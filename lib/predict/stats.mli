(** Statistical ranking of failure predictors (paper §3.3).

    precision P = |failing runs where the predictor held| /
                  |runs where it held|;
    recall    R = |failing runs where it held| / |failing runs|.

    Predictors are ranked by F_beta, the weighted harmonic mean of P
    and R; Gist sets beta = 0.5, favouring precision, "because its
    primary aim is to not confuse developers with potentially erroneous
    failure predictors". *)

(** One monitored run: the predictors that held and whether the run
    failed (with the target signature). *)
type observation = { predictors : Predictor.t list; failing : bool }

type ranked = {
  predictor : Predictor.t;
  precision : float;
  recall : float;
  f_measure : float;
  n_failing_with : int;
  n_success_with : int;
}

(** F_0.5 of a precision and a recall. *)
val f_measure : precision:float -> recall:float -> float

(** Rank all predictors, best first (F-measure, deterministic
    tie-break).  Each observation's predictor list is deduplicated. *)
val rank : observation list -> ranked list

(** {2 Confidence bounds (the adaptive early-exit stopping rule)} *)

(** The two-sided critical value for error rate [delta]: the inverse
    standard-normal CDF (Acklam's rational approximation) at
    [1 - delta/2] (1.96 at delta = 0.05). *)
val z_of_delta : float -> float

(** Wilson score interval on a binomial proportion, clamped to [0,1].
    [trials <= 0] yields the vacuous interval (0, 1).  At a fixed
    observed rate the half-width strictly shrinks as trials grow:
    more confirming reports never widen the interval. *)
val wilson_interval :
  ?delta:float -> successes:int -> trials:int -> unit -> float * float

(** Conservative interval on F_beta from per-predictor counts:
    Wilson bounds on precision (over [n_failing_with +
    n_success_with] trials) and recall (over [total_failing] trials),
    combined through F_beta's monotonicity in both arguments. *)
val f_interval :
  ?delta:float ->
  n_failing_with:int ->
  n_success_with:int ->
  total_failing:int ->
  unit ->
  float * float

(** Per-predictor sufficient statistics: the streaming replacement for
    retaining observations.  Holds (failing-with, success-with)
    counters per predictor plus the failing-run total — O(predictors)
    state, not O(runs).

    {!Acc.rank} is bit-identical to {!rank} over the same
    observations in any accumulation order: the counts are
    commutative integer sums and the sort key (f_measure descending,
    then [Predictor.compare]) is a total order over distinct
    predictors. *)
module Acc : sig
  type t

  val create : unit -> t

  (** Fold one run's observation into the counters (predictor list is
      deduplicated, as in {!rank}). *)
  val add : t -> observation -> unit

  (** The accumulator as a deterministic value, for snapshot codecs:
      [(cells, total_failing, n_obs)] with cells sorted by
      [Predictor.compare] — the same counts always export to the same
      list whatever the accumulation order. *)
  val export : t -> (Predictor.t * (int * int * int)) list * int * int

  (** Rebuild an accumulator from {!export}'s output; every query on
      the result is identical to the original. *)
  val import :
    cells:(Predictor.t * (int * int * int)) list ->
    total_failing:int -> n_obs:int -> t

  val rank : t -> ranked list

  (** The sequential stopping test: [Some p] when the top-ranked
      predictor [p]'s F_beta lower confidence bound (error rate
      [delta], {!f_interval}) strictly exceeds the upper bound of
      every rival with different counts — the ranking cannot flip
      within the stated confidence, so gathering more reports is
      unlikely to change the answer.  Rivals that held in exactly the
      runs the leader held in (equal counts and equal co-occurrence
      fingerprint) are the same evidence class (coupled predictors
      mined from one mechanism co-occur in every run); they are
      ordered by the deterministic tie-break, not by data, and do not
      block separation.  Coincidental ties — equal counts over
      different runs — do block, since more evidence can still part
      them.  [None] below the evidence floor (fewer than 2 failing
      runs overall, fewer than 3 runs where the leader held, or fewer
      than 2 {e failing} runs where the leader held — a leader with no
      failing evidence of its own must never separate vacuously).

      A pure function of the accumulated counters: any accumulation
      order that yields the same counts yields the same verdict
      (qcheck-tested). *)
  val separated : ?delta:float -> t -> Predictor.t option
end

(** The sketch shows the best predictor {e per category} (branches,
    data values, statement orders), §3.3. *)
val best_per_kind : ranked list -> ranked list

val pp_ranked : Format.formatter -> ranked -> unit
