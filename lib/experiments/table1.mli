(** Table 1: per bug, software size, static slice size, ideal and
    Gist-computed sketch sizes, and the diagnosis latency in failure
    recurrences. *)

(** The table as [print] writes it: a pure function of the code, pinned
    by [test/golden/experiments.txt]. *)
val render : unit -> string

val print : unit -> unit
