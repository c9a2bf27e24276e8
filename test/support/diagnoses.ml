(* Diagnosis helpers shared by the differential suites, and the golden
   diagnosis ledger (test/golden/diagnoses.tsv).

   The ledger pins every diagnosis of a fixed case set across commits:
   one line per case and regime holding [Serve.Service.diagnosis_digest],
   which folds every compared field of a diagnosis (floats by their
   bits).  Cases are the Bugbase bugs
   (with their oracle and preempt probability), the corpus
   reproducers and the seed-42 fuzz campaign's cases; regimes are a
   reliable fleet and 10% spread faults (fault seed 42), each with
   early exit off and on.  A case whose target failure never
   manifests gets a fixed marker instead of a digest. *)

module S = Gist.Server
module Svc = Serve.Service

(* The one-shot diagnosis of a session spec: the reference every
   multiplexed, recovered or triaged diagnosis must equal. *)
let one_shot (sp : Svc.spec) =
  S.diagnose ~config:sp.sp_config ~ingest:sp.sp_ingest ?oracle:sp.sp_oracle
    ~bug_name:sp.sp_name ~failure_type:sp.sp_failure_type
    ~program:sp.sp_program ~workload_of:sp.sp_workload_of
    ~failure:sp.sp_failure ()

(* Two diagnoses are bit-identical: sketch, iteration and run counts,
   sigma, tracked set, overhead (by its bits), iteration trace and
   fleet ledger. *)
let compare name (a : S.diagnosis) (b : S.diagnosis) =
  Alcotest.(check string)
    (name ^ ": sketch")
    (Fsketch.Render.render a.sketch)
    (Fsketch.Render.render b.sketch);
  Alcotest.(check int) (name ^ ": iterations") a.iterations b.iterations;
  Alcotest.(check int) (name ^ ": recurrences") a.recurrences b.recurrences;
  Alcotest.(check int) (name ^ ": total runs") a.total_runs b.total_runs;
  Alcotest.(check int) (name ^ ": final sigma") a.final_sigma b.final_sigma;
  Alcotest.(check (list int)) (name ^ ": tracked") a.tracked b.tracked;
  Alcotest.(check bool)
    (name ^ ": avg overhead bit-identical")
    true
    (Int64.bits_of_float a.avg_overhead_pct
    = Int64.bits_of_float b.avg_overhead_pct);
  Alcotest.(check bool) (name ^ ": per-iteration trace") true (a.trace = b.trace);
  Alcotest.(check bool) (name ^ ": fleet ledger") true (a.fleet = b.fleet)

(* ------------------------------------------------------------------ *)
(* The golden ledger *)

type regime = { faults : Faults.Fault.rates; early_exit : bool }

let regimes =
  [
    { faults = Faults.Fault.zero; early_exit = false };
    { faults = Faults.Fault.zero; early_exit = true };
    { faults = Faults.Fault.spread 0.10; early_exit = false };
    { faults = Faults.Fault.spread 0.10; early_exit = true };
  ]

let fault_seed = 42

let regime_name r =
  Printf.sprintf "faults=%s,early_exit=%s"
    (if Faults.Fault.is_zero r.faults then "0" else "0.10")
    (if r.early_exit then "on" else "off")

(* A case the ledger diagnoses: its spec under a regime, or [None]
   when the target failure never manifests (or the case is not
   diagnosable at all). *)
type case = { name : string; spec : regime -> Svc.spec option }

let bugbase_case (b : Bugbase.Common.t) =
  {
    name = b.name;
    spec =
      (fun r ->
        Serve.Stream.bugbase_spec ~early_exit:r.early_exit
          ~faults:(r.faults, fault_seed) ~name:b.name b
        |> Option.map (fun sp ->
               { sp with Svc.sp_oracle = Some (Experiments.Oracle.for_bug b) }));
  }

let fuzz_case (c : Fuzz.Gen.case) =
  {
    name = c.Fuzz.Gen.c_name;
    spec =
      (fun r ->
        Serve.Stream.fuzz_spec ~early_exit:r.early_exit
          ~faults:(r.faults, fault_seed) ~name:c.Fuzz.Gen.c_name c
        |> Option.map (fun sp ->
               { sp with Svc.sp_oracle = Some (Fuzz.Check.oracle c) }));
  }

let fuzz_count = 50

(* [corpus] is the directory of the checked-in reproducers. *)
let cases ~corpus =
  let reproducers =
    match Fuzz.Corpus.load_dir corpus with
    | Ok cs -> cs
    | Error e -> failwith ("corpus load: " ^ e)
  in
  List.map bugbase_case Bugbase.Registry.all
  @ List.map fuzz_case reproducers
  @ List.map fuzz_case (Fuzz.Runner.cases ~seed:42 ~count:fuzz_count ())

let undiagnosed = "no-failure"

(* One ledger line: name, regime, digest (or the marker). *)
let line case r =
  let digest =
    match case.spec r with
    | None -> undiagnosed
    | Some sp -> Printf.sprintf "%x" (Svc.diagnosis_digest (one_shot sp))
  in
  String.concat "\t" [ case.name; regime_name r; digest ]

(* Every line, cases in order, each case under every regime. *)
let ledger ~corpus =
  List.concat_map (fun c -> List.map (line c) regimes) (cases ~corpus)

let to_string lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)
