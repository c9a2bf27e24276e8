(** The ground-truth oracle: diagnose an injected-bug case end-to-end
    and score the sketch's top-ranked predictor against the label. *)

(** Everything a case can get wrong, most severe last.  Payload strings
    are normalized (source-line based), so two checks of equivalent
    programs — e.g. a case and its shrunk reproducer — yield equal
    verdicts exactly when they fail the same way. *)
type verdict =
  | Correct
  | Wrong_root_cause of string  (** normalized top predictor *)
  | No_predictor
  | No_failure
  | Crash of string             (** the pipeline raised *)

val verdict_name : verdict -> string
val verdict_to_string : verdict -> string
val verdict_equal : verdict -> verdict -> bool

(** {1 Probing} *)

type probe = {
  p_target : Exec.Failure.report option;
      (** first failure matching the injected truth *)
  p_fails : int;
  p_succs : int;
}

(** Scan the first 96 production runs. *)
val probe : Gen.case -> probe

(** A case is diagnosable when both outcomes occur in the probe
    window, 3 times each. *)
val viable : probe -> bool

(** {1 Diagnosis} *)

(** The bounded fleet configuration fuzzing runs under; the case's
    [c_faults], when present, sets the fault rates and seed. *)
val config_of : Gen.case -> Gist.Config.t

type outcome = {
  verdict : verdict;
  top : string option;  (** normalized top predictor, if any *)
  iterations : int;
  total_runs : int;
  fleet : Gist.Server.fleet_stats option;
      (** fleet-protocol health; present when diagnose ran *)
}

val verdict_of_sketch : Gen.case -> Fsketch.Sketch.t -> verdict

(** {2 Stages}

    {!check} is these stages in order; callers that diagnose
    elsewhere (the service gate) run the same stages around their own
    diagnosis. *)

(** What the target probe decided about a case. *)
type stage =
  | Decided of outcome  (** no target failure *)
  | Diagnose of Exec.Failure.report  (** the failure to diagnose *)

(** The failure probe: {!probe}'s target, or [No_failure]. *)
val prepare : Gen.case -> stage

(** The ground-truth accept oracle: the top predictor matches the
    label. *)
val oracle : Gen.case -> Fsketch.Sketch.t -> bool

(** Verdict scoring of a finished diagnosis. *)
val of_diagnosis : Gen.case -> Gist.Server.diagnosis -> outcome

(** The outcome of a case decided without a diagnosis ([top] absent,
    zero runs, no fleet). *)
val decided : verdict -> outcome

(** {!prepare}, full {!Gist.Server.diagnose}, {!of_diagnosis}; a
    raise anywhere in diagnosis or scoring is a [Crash] verdict.  A
    pure function of the case, fault injection included; the probes
    run unmonitored (faults only touch the monitored fleet).

    [early_exit] (default false) turns the sequential stopping rule
    on; [use_oracle] false (default true) drops the ground-truth
    accept oracle — unattended production, as the adaptive
    early-exit comparisons require. *)
val check :
  ?pool:Parallel.Pool.t ->
  ?early_exit:bool ->
  ?use_oracle:bool ->
  Gen.case ->
  outcome
