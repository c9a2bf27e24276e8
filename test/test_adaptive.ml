(* Adaptive early-exit AsT differential suite (PR 7).

   The sequential stopping rule ([Gist.Config.early_exit]) may only
   change *how much* evidence a diagnosis gathers, never what it
   concludes: over the whole Bugbase (production fleet regime) and
   over generated fuzz bugs, with and without the PR 4 fault regime,
   the top-ranked predictor must be identical to the exhaustive
   reference, while the adaptive mode dispatches no more clients —
   and strictly fewer in aggregate.  Both modes run unattended (no
   developer oracle): the stopping rule is the stand-in for §3.2.1's
   developer, so the honest comparison gives neither mode the
   oracle's stop signal.

   Also covered here: checkpoint decisions are bit-identical at any
   pool size (report-count boundaries, never wall-clock), and the
   adaptive mode stays bit-identical between streaming and retained
   ingestion (the stopping rule reads the streaming sufficient
   statistics in both modes). *)

module A = Experiments.Adaptive
module S = Gist.Server
module D = Tsupport.Diagnoses

let fleet ~faults =
  if faults then
    {
      A.fleet_base with
      Gist.Config.fault_rates = Faults.Fault.spread 0.10;
      fault_seed = 42;
    }
  else A.fleet_base

(* ------------------------------------------------------------------ *)
(* Bugbase: adaptive vs exhaustive, top-1 identity + dispatch savings. *)

let bugbase_differential ~faults () =
  let base = fleet ~faults in
  let rows =
    List.filter_map
      (fun r -> Option.map fst r)
      (Experiments.Harness.map_bugs
         (fun b -> A.compare_bug ~base b)
         Bugbase.Registry.all)
  in
  Alcotest.(check int)
    "every bug compared"
    (List.length Bugbase.Registry.all)
    (List.length rows);
  List.iter
    (fun (r : A.row) ->
      Alcotest.(check bool) (r.r_bug ^ ": top identical") true r.r_top_identical;
      Alcotest.(check bool)
        (r.r_bug ^ ": no extra clients")
        true
        (r.r_ad_dispatched <= r.r_exh_dispatched))
    rows;
  let total f = List.fold_left (fun s r -> s + f r) 0 rows in
  Alcotest.(check bool)
    "strictly fewer clients in aggregate" true
    (total (fun r -> r.A.r_ad_dispatched)
    < total (fun r -> r.A.r_exh_dispatched));
  (* The rule must actually fire: several bugs converge outright under
     the fleet regime (7 of 11 at the time of writing; 3 is the
     non-brittle floor). *)
  Alcotest.(check bool)
    "at least 3 bugs converge" true
    (List.length (List.filter (fun r -> r.A.r_converged) rows) >= 3)

(* ------------------------------------------------------------------ *)
(* Fuzz bugs: 50 generated cases (seeds 42..91), every viable one
   diagnosed in both modes. *)

let fuzz_count = 50

let fuzz_cases =
  lazy
    (let patterns = Array.of_list Fuzz.Gen.all_patterns in
     List.init fuzz_count (fun i ->
         Fuzz.Gen.generate patterns.(i mod Array.length patterns) (42 + i)))

let fuzz_differential ~faults () =
  let diagnosed = ref 0 and saved = ref 0 in
  let total_exh = ref 0 and total_ad = ref 0 in
  List.iter
    (fun (case : Fuzz.Gen.case) ->
      let case =
        if faults then
          { case with Fuzz.Gen.c_faults = Some (Faults.Fault.spread 0.10, 42) }
        else case
      in
      match Fuzz.Check.probe case with
      | p when Fuzz.Check.viable p ->
        let oe = Fuzz.Check.check ~use_oracle:false case in
        let oa = Fuzz.Check.check ~early_exit:true ~use_oracle:false case in
        incr diagnosed;
        Alcotest.(check (option string))
          (case.Fuzz.Gen.c_name ^ ": top identical")
          oe.Fuzz.Check.top oa.Fuzz.Check.top;
        let d (o : Fuzz.Check.outcome) =
          match o.Fuzz.Check.fleet with
          | Some f -> f.S.f_dispatched
          | None -> 0
        in
        Alcotest.(check bool)
          (case.Fuzz.Gen.c_name ^ ": no extra clients")
          true
          (d oa <= d oe);
        total_exh := !total_exh + d oe;
        total_ad := !total_ad + d oa;
        if d oa < d oe then incr saved
      | _ -> ())
    (Lazy.force fuzz_cases);
  Alcotest.(check bool)
    (Printf.sprintf "enough viable cases (%d of %d)" !diagnosed fuzz_count)
    true
    (!diagnosed >= fuzz_count / 2);
  Alcotest.(check bool)
    (Printf.sprintf "aggregate strictly fewer clients (%d -> %d)" !total_exh
       !total_ad)
    true (!total_ad < !total_exh);
  Alcotest.(check bool) "the rule fired on some case" true (!saved > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint determinism: the adaptive diagnosis is bit-identical at
   any pool size, and between streaming and retained ingestion. *)

let adaptive_diagnosis ?pool ?ingest (b : Bugbase.Common.t) =
  let _, failure = Option.get (Bugbase.Common.find_target_failure b) in
  let config =
    {
      A.fleet_base with
      Gist.Config.early_exit = true;
      preempt_prob = b.preempt_prob;
    }
  in
  S.diagnose ~config ?pool ?ingest ~bug_name:b.name
    ~failure_type:b.failure_type ~program:b.program ~workload_of:b.workload_of
    ~failure ()

let determinism_case (b : Bugbase.Common.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      let seq = adaptive_diagnosis b in
      Parallel.Pool.with_pool ~jobs:3 (fun pool ->
          D.compare (b.name ^ " jobs 1 vs 3") seq
            (adaptive_diagnosis ~pool b)))

let ingest_case (b : Bugbase.Common.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      D.compare
        (b.name ^ " streaming vs retained")
        (adaptive_diagnosis ~ingest:S.Streaming b)
        (adaptive_diagnosis ~ingest:S.Retained b))

let small_bugs =
  List.filter
    (fun (b : Bugbase.Common.t) ->
      List.mem b.name [ "Curl"; "Pbzip2"; "SQLite" ])
    Bugbase.Registry.all

let () =
  Alcotest.run "adaptive"
    [
      ( "bugbase",
        [ Alcotest.test_case "11 bugs, fleet regime" `Slow
            (bugbase_differential ~faults:false) ] );
      ( "bugbase-faults",
        [ Alcotest.test_case "11 bugs at 10% aggregate faults" `Slow
            (bugbase_differential ~faults:true) ] );
      ( "fuzz",
        [ Alcotest.test_case "50 generated bugs" `Slow
            (fuzz_differential ~faults:false) ] );
      ( "fuzz-faults",
        [ Alcotest.test_case "50 generated bugs at 10% aggregate faults"
            `Slow
            (fuzz_differential ~faults:true) ] );
      ("determinism", List.map determinism_case small_bugs);
      ("ingest-modes", List.map ingest_case small_bugs);
    ]
