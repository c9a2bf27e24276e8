(** Fig. 9: accuracy of Gist, broken into relevance and ordering
    (paper averages: 92% / 100%, overall 96%). *)

val print : unit -> unit
