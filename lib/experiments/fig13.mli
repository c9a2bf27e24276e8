(** Fig. 13: full-tracing overhead of record/replay vs hardware Intel
    PT, per program (paper: 984% vs 11% on average). *)

type row = {
  name : string;
  rr_pct : float;
  pt_pct : float;
  ratio : float;  (** rr / pt *)
}

val row_for : Bugbase.Common.t -> row
val rows : unit -> row list
val print : unit -> unit
