(** Static backward slicing (paper §3.1, Algorithm 1).

    The algorithm is {e interprocedural} (needed arguments flow to the
    actuals at every call and spawn site via the TICFG; needed return
    values flow into callee returns), {e path-insensitive} (every
    definition that may reach the failure is kept; runtime control-flow
    tracking filters infeasible ones later), {e flow-sensitive} (the
    slice is ordered backward from the failing statement, so adaptive
    slice tracking can take "the sigma statements closest to the
    failure"), and {e alias-free} (memory items match syntactically:
    same function, same base register, same field offset, or same
    global — stores reaching a load through a different pointer name
    are deliberately missed and recovered at runtime by watchpoint
    data-flow tracking, §3.2.3).

    Control dependencies are included: for every sliced statement, the
    branches it is control-dependent on join the slice with their
    condition items. *)

open Ir.Types

type entry = {
  e_iid : iid;
  e_dist : int;  (** fixpoint round at which the statement joined *)
}

type t = {
  failing : iid;
  program : program;
  entries : entry list;  (** ordered: closest to the failure first *)
}

(** [compute program report] slices backward from [report.pc].  With
    [alias], memory matching goes through {!Alias} may-alias sets
    instead of syntactic base names — the configuration the paper
    rejects for its slice-size cost (§3.1); the [extensions] experiment
    measures that cost. *)
val compute : ?alias:Alias.t -> program -> Exec.Failure.report -> t

(** All slice statements, closest-to-failure first. *)
val iids : t -> iid list

(** The sigma statements adaptive slice tracking monitors (§3.2.1):
    the [n] closest to the failure point (a prefix of {!iids}). *)
val take : t -> int -> iid list

val instr_count : t -> int
val source_loc_count : t -> int
val pp : Format.formatter -> t -> unit
