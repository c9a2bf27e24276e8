(* Streaming-vs-retained ingestion differential suite.

   The streaming server folds each accepted report into per-predictor
   sufficient statistics the moment validation accepts it and then
   drops the report; the retained mode keeps every accepted report and
   replays the original batch refinement loop (the reference
   oracle).  The two must produce
   bit-identical diagnoses — sketch, iteration trace, fleet ledger,
   every float — over the whole Bugbase and over generated fuzz bugs,
   with and without the injected-fault regime. *)

module S = Gist.Server
module D = Tsupport.Diagnoses

(* ------------------------------------------------------------------ *)
(* The whole Bugbase, reliable fleet and the PR4 fault regime. *)

let diagnose_bug ~ingest ~faults (b : Bugbase.Common.t) =
  let _, failure = Option.get (Bugbase.Common.find_target_failure b) in
  let config =
    let base = { Gist.Config.default with preempt_prob = b.preempt_prob } in
    if faults then
      {
        base with
        Gist.Config.fault_rates = Faults.Fault.spread 0.10;
        fault_seed = 42;
      }
    else base
  in
  S.diagnose ~config ~ingest
    ~oracle:(Experiments.Oracle.for_bug b)
    ~bug_name:b.name ~failure_type:b.failure_type ~program:b.program
    ~workload_of:b.workload_of ~failure ()

let bugbase_case ~faults (b : Bugbase.Common.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      D.compare b.name
        (diagnose_bug ~ingest:S.Streaming ~faults b)
        (diagnose_bug ~ingest:S.Retained ~faults b))

(* ------------------------------------------------------------------ *)
(* Generated bugs: 50 fuzz cases (campaign seed 42), every viable one
   diagnosed under both modes, reliable and faulty fleets. *)

let fuzz_count = 50

let fuzz_cases =
  lazy
    (let patterns = Array.of_list Fuzz.Gen.all_patterns in
     List.init fuzz_count (fun i ->
         Fuzz.Gen.generate patterns.(i mod Array.length patterns) (42 + i)))

let fuzz_differential ~faults () =
  let diagnosed = ref 0 in
  List.iter
    (fun (case : Fuzz.Gen.case) ->
      let case =
        if faults then
          { case with Fuzz.Gen.c_faults = Some (Faults.Fault.spread 0.10, 42) }
        else case
      in
      match Fuzz.Check.probe case with
      | { Fuzz.Check.p_target = Some failure; _ } as p
        when Fuzz.Check.viable p ->
        let run ingest =
          S.diagnose
            ~config:(Fuzz.Check.config_of case)
            ~ingest ~bug_name:case.Fuzz.Gen.c_name
            ~failure_type:(Exec.Failure.kind_to_string failure.Exec.Failure.kind)
            ~program:case.Fuzz.Gen.c_program
            ~workload_of:(Fuzz.Gen.workload_of case)
            ~failure ()
        in
        incr diagnosed;
        D.compare case.Fuzz.Gen.c_name (run S.Streaming)
          (run S.Retained)
      | _ -> ())
    (Lazy.force fuzz_cases);
  (* The sweep must not silently degenerate into a no-op: most
     generated cases are viable by construction. *)
  Alcotest.(check bool)
    (Printf.sprintf "enough viable cases (%d of %d)" !diagnosed fuzz_count)
    true
    (!diagnosed >= fuzz_count / 2)

let () =
  let bugs = Bugbase.Registry.all in
  Alcotest.run "stream"
    [
      ("bugbase", List.map (bugbase_case ~faults:false) bugs);
      ("bugbase-faults", List.map (bugbase_case ~faults:true) bugs);
      ( "fuzz",
        [ Alcotest.test_case "50 generated bugs" `Slow
            (fuzz_differential ~faults:false) ] );
      ( "fuzz-faults",
        [ Alcotest.test_case "50 generated bugs at 10% aggregate faults"
            `Slow
            (fuzz_differential ~faults:true) ] );
    ]
