(** Fig. 11: Gist's average (fleet-aggregate) runtime overhead as a
    function of the tracked slice size. *)

val print : unit -> unit
