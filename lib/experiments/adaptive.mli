(** PR 7 experiment: adaptive early-exit AsT ([Gist.Config.adaptive])
    vs the exhaustive reference ([Gist.Config.default]) over the
    Bugbase, plus reallocation of the saved client budget to the bugs
    the stopping rule left ambiguous. *)

type row = {
  r_bug : string;
  r_exh_dispatched : int;
  r_exh_iterations : int;
  r_ad_dispatched : int;
  r_ad_iterations : int;
  r_ad_early_iters : int;
      (** adaptive iterations cut short at a checkpoint or converged *)
  r_converged : bool;  (** adaptive run stopped by the rule *)
  r_top_identical : bool;
      (** same top-ranked predictor in both modes (the PR 7 identity
          requirement) *)
  r_top : string option;  (** the adaptive top predictor, printed *)
}

type realloc = {
  ra_bug : string;
  ra_extra : int;       (** extra per-iteration client headroom granted *)
  ra_dispatched : int;  (** dispatches in the boosted re-run *)
  ra_converged : bool;  (** did the boosted run converge? *)
}

type t = {
  rows : row list;
  total_exh : int;
  total_ad : int;
  ratio : float;  (** total_exh / total_ad *)
  mean_ratio : float;
      (** Bugbase mean of per-bug exhaustive/adaptive ratios: the ≥3x
          target.  Bugs whose adaptive run dispatched nothing count as
          ratio 1. *)
  saved : int;
  reallocated : realloc list;
}

(** The production-fleet configuration the comparison runs under:
    [Gist.Config.default] with [fail_quota = 12], [succ_quota = 64],
    [max_clients_per_iter = 3000] and [wp_capacity = 8].  The toy
    default quotas gather too little evidence per iteration for 95%
    intervals to separate; this regime models the paper's setting of
    thousands of cooperating clients per refinement round. *)
val fleet_base : Gist.Config.t

(** Diagnose [bug] in both modes on top of [base] (so fault-regime
    sweeps reuse the comparison); [None] when the target failure never
    manifests.  Returns the comparison row plus both full results. *)
val compare_bug :
  ?pool:Parallel.Pool.t ->
  base:Gist.Config.t ->
  Bugbase.Common.t ->
  (row * (Harness.bug_result * Harness.bug_result)) option

(** Run the comparison over the full Bugbase on top of {!fleet_base},
    then re-diagnose the ambiguous bugs with the saved budget split
    evenly among them. *)
val run : unit -> t

(** The [gist_cli experiments adaptive] report. *)
val print : unit -> unit
