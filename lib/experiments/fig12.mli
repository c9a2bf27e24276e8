(** Fig. 12: tradeoff between the initial tracked slice size sigma_0
    and the resulting accuracy and root-cause-diagnosis latency. *)

val print : unit -> unit
