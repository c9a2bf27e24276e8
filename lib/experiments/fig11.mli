(** Fig. 11: Gist's average (fleet-aggregate) runtime overhead as a
    function of the tracked slice size. *)

val sizes : int list

type point = { size : int; overhead_pct : float }

val points : unit -> point list
val print : unit -> unit
