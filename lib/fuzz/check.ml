(* The ground-truth oracle: run the full diagnosis pipeline on an
   injected-bug case and score the sketch's top-ranked predictor
   against the labelled root cause.

   All comparisons are in source-line terms ([describe],
   [matches_accept]): lines survive iid renumbering through the .gir
   corpus round-trip and padding removal during shrinking, iids do
   not. *)

module F = Exec.Failure
module I = Exec.Interp

type verdict =
  | Correct
  | Wrong_root_cause of string  (* normalized top predictor *)
  | No_predictor
  | No_failure
  | Crash of string             (* pipeline raised *)

let verdict_name = function
  | Correct -> "correct"
  | Wrong_root_cause _ -> "wrong-root-cause"
  | No_predictor -> "no-predictor"
  | No_failure -> "no-failure"
  | Crash _ -> "crash"

let verdict_to_string = function
  | Correct -> "correct"
  | Wrong_root_cause d -> "wrong-root-cause: " ^ d
  | No_predictor -> "no-predictor"
  | No_failure -> "no-failure"
  | Crash d -> "crash: " ^ d

let verdict_equal a b = (a : verdict) = b

(* ------------------------------------------------------------------ *)
(* Line-based predictor descriptions. *)

let line_of program iid = (Ir.Program.loc_of program iid).Ir.Types.line

let describe program (p : Predict.Predictor.t) =
  let l iid = line_of program iid in
  match p with
  | Branch_taken (iid, taken) ->
    Printf.sprintf "branch@%d=%s" (l iid)
      (if taken then "taken" else "not-taken")
  | Data_value (iid, v) -> Printf.sprintf "value@%d=%s" (l iid) v
  | Value_range (iid, pred) -> Printf.sprintf "range@%d %s" (l iid) pred
  | Race (pat, a, b) -> Printf.sprintf "race:%s@%d->%d" pat (l a) (l b)
  | Atomicity (pat, a, b, c) ->
    Printf.sprintf "atom:%s@%d,%d,%d" pat (l a) (l b) (l c)

let matches_accept program (acc : Gen.accept) (p : Predict.Predictor.t) =
  let l iid = line_of program iid in
  match (acc, p) with
  | Gen.A_race (pat, la, lb), Race (pat', a, b) ->
    pat = pat' && l a = la && l b = lb
  | Gen.A_atom (pat, la, lb, lc), Atomicity (pat', a, b, c) ->
    pat = pat' && l a = la && l b = lb && l c = lc
  | Gen.A_value (line, v), Data_value (iid, v') -> l iid = line && v = v'
  | Gen.A_branch (line, taken), Branch_taken (iid, taken') ->
    l iid = line && taken = taken'
  | _ -> false

let accepted (case : Gen.case) (p : Predict.Predictor.t) =
  List.exists
    (fun acc -> matches_accept case.c_program acc p)
    case.c_truth.t_accept

(* ------------------------------------------------------------------ *)
(* Probing: the target failure. *)

let probe_max_steps = 50_000

type probe = {
  p_target : F.report option;  (* first failure matching the truth *)
  p_fails : int;               (* matching failures among probed clients *)
  p_succs : int;
}

let target_matches (case : Gen.case) (f : F.report) =
  F.kind_tag f.kind = case.c_truth.t_kind_tag
  && line_of case.c_program f.pc = case.c_truth.t_fail_line

(* Scan the client sequence the way [Exec.Interp.first_failure] scans
   production runs, keeping counts so callers can tell an unviable
   case (never fails / never succeeds) from a diagnosable one. *)
let probe_clients = 96

let probe (case : Gen.case) =
  let target = ref None and fails = ref 0 and succs = ref 0 in
  for c = 0 to probe_clients - 1 do
    let r =
      I.run ~max_steps:probe_max_steps ~preempt_prob:case.c_preempt
        case.c_program
        (Gen.workload_of case c)
    in
    match r.I.outcome with
    | I.Success -> incr succs
    | I.Failed f when target_matches case f ->
      incr fails;
      if !target = None then target := Some f
    | I.Failed _ -> ()
  done;
  { p_target = !target; p_fails = !fails; p_succs = !succs }

(* Runs of each outcome a viable case shows in the probe window. *)
let min_outcomes = 3

let viable p = p.p_fails >= min_outcomes && p.p_succs >= min_outcomes

(* ------------------------------------------------------------------ *)
(* Diagnosis. *)

(* Statistical power matters more than fleet size here: an AsT
   iteration whose client window contains no failing run correlates
   nothing (every predictor mined in it has zero failing
   observations), and windows advance across iterations.  200 clients
   per iteration keeps >= 3 expected failures even at the ~3% failure
   rate the viability probe admits. *)
let config_of (case : Gen.case) =
  let base =
    {
      Gist.Config.default with
      fail_quota = 3;
      succ_quota = 8;
      max_clients_per_iter = 200;
      max_iterations = 6;
      max_steps = probe_max_steps;
      preempt_prob = case.c_preempt;
    }
  in
  match case.c_faults with
  | None -> base
  | Some (rates, seed) ->
    { base with Gist.Config.fault_rates = rates; fault_seed = seed }

type outcome = {
  verdict : verdict;
  top : string option;  (* normalized top predictor, if any *)
  iterations : int;
  total_runs : int;
  fleet : Gist.Server.fleet_stats option; (* present when diagnose ran *)
}

let verdict_of_sketch (case : Gen.case) (sk : Fsketch.Sketch.t) =
  match sk.predictors with
  | [] -> No_predictor
  | top :: _ ->
    if accepted case top.Predict.Stats.predictor then Correct
    else Wrong_root_cause (describe case.c_program top.Predict.Stats.predictor)

(* The outcome of a case decided without a diagnosis. *)
let decided verdict =
  { verdict; top = None; iterations = 0; total_runs = 0; fleet = None }

type stage = Decided of outcome | Diagnose of F.report

(* The probe stage: the target failure. *)
let prepare case =
  match (probe case).p_target with
  | None -> Decided (decided No_failure)
  | Some failure -> Diagnose failure

let oracle (case : Gen.case) (sk : Fsketch.Sketch.t) =
  match sk.predictors with
  | top :: _ -> accepted case top.Predict.Stats.predictor
  | [] -> false

(* Verdict scoring of a finished diagnosis. *)
let of_diagnosis (case : Gen.case) (d : Gist.Server.diagnosis) =
  {
    verdict = verdict_of_sketch case d.sketch;
    top =
      (match d.sketch.predictors with
       | t :: _ -> Some (describe case.c_program t.Predict.Stats.predictor)
       | [] -> None);
    iterations = d.iterations;
    total_runs = d.total_runs;
    fleet = Some d.fleet;
  }

(* [check case]: the target probe, full [diagnose], verdict scoring.
   Deterministic: every stage is a pure function of the case, fault
   injection included ([c_faults] seeds its own stream).  The probes
   run unmonitored -- faults only touch the monitored fleet.

   [early_exit] turns the sequential stopping rule on; [use_oracle]
   false drops the ground-truth accept oracle, modelling unattended
   production (the adaptive-vs-exhaustive comparisons run both modes
   this way so the stopping rule is the only difference). *)
let check ?pool ?(early_exit = false) ?(use_oracle = true) (case : Gen.case) =
  match prepare case with
  | Decided o -> o
  | Diagnose failure -> (
    try
      of_diagnosis case
        (Gist.Server.diagnose
           ~config:{ (config_of case) with Gist.Config.early_exit }
           ?pool
           ?oracle:(if use_oracle then Some (oracle case) else None)
           ~bug_name:case.c_name
           ~failure_type:(F.kind_to_string failure.F.kind)
           ~program:case.c_program ~workload_of:(Gen.workload_of case) ~failure
           ())
    with e -> decided (Crash (Printexc.to_string e)))
