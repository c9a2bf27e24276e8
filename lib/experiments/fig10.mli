(** Fig. 10: contribution of static slicing, +control-flow tracking and
    +data-flow tracking to overall sketch accuracy, measured by staging
    the techniques. *)

val print : unit -> unit
