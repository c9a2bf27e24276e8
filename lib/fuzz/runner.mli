(** The fuzz campaign driver: generate, check, shrink, aggregate.
    Deterministic for a given (seed, count) whatever the job count. *)

type case_report = {
  cr_name : string;
  cr_pattern : Gen.pattern;
  cr_seed : int;
  cr_verdict : Check.verdict;
  cr_top : string option;
  cr_iterations : int;
  cr_total_runs : int;
  cr_shrink : Shrink.result option; (** present for shrunk failures *)
  cr_fleet : Gist.Server.fleet_stats option;
      (** fleet-protocol health; present when diagnose ran *)
}

type pattern_stats = {
  ps_pattern : Gen.pattern;
  ps_total : int;
  ps_correct : int;
}

type report = {
  r_seed : int;
  r_count : int;
  r_cases : case_report list;
  r_stats : pattern_stats list;
      (** per pattern actually generated, in {!Gen.all_patterns} order *)
  r_faults : (Faults.Fault.rates * int) option;
      (** the campaign's fault environment, if any *)
}

val failures : report -> case_report list
val overall_accuracy : report -> float

(** Worst per-pattern accuracy — the acceptance gate. *)
val min_pattern_accuracy : report -> float

(** [run ~seed ~count ()] fuzzes [count] cases round-robin over the
    taxonomy.  [jobs] sizes the case-level pool; [shrink] (default on)
    minimizes every failing case; 5 candidate seeds are pre-drawn
    per slot and the first diagnosable one is used; [faults]
    (rates, fault seed) checks every case under injected fleet faults
    — the shrinker then reproduces verdicts under the same faults;
    [early_exit] (default false) diagnoses every case with the
    sequential stopping rule on. *)
val run :
  ?jobs:int -> ?shrink:bool ->
  ?faults:Faults.Fault.rates * int -> ?early_exit:bool ->
  seed:int -> count:int ->
  unit -> report

(** Per-pattern accuracy of a case list, as in {!report.r_stats}. *)
val stats_of : case_report list -> pattern_stats list

(** A case's report from its {!Check.outcome}; [shrink] is the
    shrinker's result, if it ran. *)
val case_report :
  ?shrink:Shrink.result -> Gen.case -> Check.outcome -> case_report

(** The exact case list a campaign with the same (seed, count)
    checks, in slot order — for differential harnesses that compare
    diagnosis modes on the campaign's cases. *)
val cases : seed:int -> count:int -> unit -> Gen.case list

val to_json : report -> string
val pp : Format.formatter -> report -> unit
