(** Evaluations of the paper's §6 future-work proposals: PTWRITE data
    packets instead of watchpoints, range/inequality value predicates,
    and value redaction for user privacy. *)

type ptwrite_row = {
  pw_name : string;
  wp_accuracy : float;
  pw_accuracy : float;
  wp_overhead : float;
  pw_overhead : float;
  wp_recurrences : int;
  pw_recurrences : int;
}

type range_row = {
  rg_name : string;
  exact_best_f : float;
  range_best_f : float;
}

type alias_row = {
  al_name : string;
  plain_instrs : int;
  alias_instrs : int;
  growth_pct : float;
}

val print : unit -> unit
