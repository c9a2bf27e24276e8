(* Property tests over randomly generated programs [Fuzz.Gen]:
   interpreter safety, PT round-trip fidelity, instrumentation
   coverage, and slicer invariants hold for arbitrary well-formed
   code, not just the hand-written corpus. *)

module I = Exec.Interp

let seed_arb = QCheck.(int_bound 100_000)

let run_random seed run_seed =
  let program = Fuzz.Gen.random seed in
  ( program,
    Exec.Interp.run ~record_gt:true ~max_steps:100_000 program
      (I.workload ~args:[ Exec.Value.VInt (seed mod 7) ] run_seed) )

let interp_props =
  [
    QCheck.Test.make ~name:"generated programs always run to success"
      ~count:300 seed_arb (fun seed ->
        let _, res = run_random seed 1 in
        res.I.outcome = I.Success);
    QCheck.Test.make ~name:"generated programs are deterministic" ~count:100
      QCheck.(pair seed_arb (int_bound 1000))
      (fun (seed, run_seed) ->
        let _, a = run_random seed run_seed in
        let _, b = run_random seed run_seed in
        a.I.executed = b.I.executed && a.I.steps = b.I.steps);
    QCheck.Test.make ~name:"step count equals instruction counter" ~count:100
      seed_arb (fun seed ->
        let _, res = run_random seed 1 in
        res.I.steps = res.I.counters.Exec.Cost.instrs);
  ]

let pt_props =
  [
    QCheck.Test.make
      ~name:"PT round trip: decode equals execution on random programs"
      ~count:200 seed_arb
      (fun seed ->
        let program = Fuzz.Gen.random seed in
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
        let res =
          Exec.Interp.run ~hooks ~counters ~record_gt:true ~max_steps:100_000
            program (I.workload ~args:[ Exec.Value.VInt 3 ] 1)
        in
        Hw.Pt.finish pt;
        let d = List.assoc 0 (Tsupport.Programs.decode_streams pt program) in
        res.I.outcome = I.Success
        && d.Hw.Pt.d_iids = List.map snd res.I.executed);
  ]

(* The coverage invariant: every tracked statement that executes is
   decodable from the toggled PT stream — over random programs *and*
   random tracked subsets. *)
let coverage_props =
  [
    QCheck.Test.make
      ~name:"instrumentation coverage on random programs and tracked sets"
      ~count:150
      QCheck.(pair seed_arb (int_range 1 6))
      (fun (seed, stride) ->
        let program = Fuzz.Gen.random seed in
        let all =
          Ir.Program.all_instrs program
          |> List.map (fun (x : Ir.Types.instr) -> x.iid)
        in
        let tracked =
          List.filteri (fun k _ -> k mod stride = seed mod stride) all
        in
        let plan = Instrument.Place.compute program tracked in
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let wp = Hw.Watchpoint.create counters in
        let hooks =
          Instrument.Runtime.hooks ~data_via_pt:false ~plan ~pt ~wp
            ~wp_allowed:[]
        in
        let res =
          Exec.Interp.run ~hooks ~counters ~record_gt:true ~max_steps:100_000
            program (I.workload ~args:[ Exec.Value.VInt 3 ] 1)
        in
        Hw.Pt.finish pt;
        let decoded =
          Tsupport.Programs.decode_streams pt program
          |> List.concat_map (fun (_, (d : Hw.Pt.decoded)) -> d.d_iids)
          |> List.sort_uniq compare
        in
        let executed = List.map snd res.I.executed |> List.sort_uniq compare in
        List.for_all
          (fun iid -> (not (List.mem iid executed)) || List.mem iid decoded)
          tracked);
  ]

let slicing_props =
  [
    QCheck.Test.make ~name:"slice contains the failing statement first"
      ~count:150 seed_arb (fun seed ->
        let program = Fuzz.Gen.random seed in
        let _, res = run_random seed 1 in
        (* slice from the last executed instruction *)
        match List.rev res.I.executed with
        | [] -> true
        | (_, pc) :: _ ->
          let report =
            Exec.Failure.
              { kind = Segfault; pc; tid = 0; stack = [ "main" ]; message = "" }
          in
          let s = Slicing.Slicer.compute program report in
          (match Slicing.Slicer.iids s with
           | first :: _ -> first = pc
           | [] -> false));
    QCheck.Test.make ~name:"take is a prefix of the slice order" ~count:150
      QCheck.(pair seed_arb (int_range 1 12))
      (fun (seed, n) ->
        let program = Fuzz.Gen.random seed in
        let _, res = run_random seed 1 in
        match List.rev res.I.executed with
        | [] -> true
        | (_, pc) :: _ ->
          let report =
            Exec.Failure.
              { kind = Segfault; pc; tid = 0; stack = [ "main" ]; message = "" }
          in
          let s = Slicing.Slicer.compute program report in
          let all = Slicing.Slicer.iids s in
          let prefix = Slicing.Slicer.take s n in
          List.length prefix = min n (List.length all)
          && prefix = List.filteri (fun k _ -> k < List.length prefix) all);
  ]

let mt_props =
  [
    QCheck.Test.make ~name:"threaded random programs always succeed"
      ~count:150
      QCheck.(pair (int_bound 100_000) (int_bound 500))
      (fun (seed, run_seed) ->
        let program = Fuzz.Gen.random_threaded seed in
        let res =
          Exec.Interp.run ~max_steps:100_000 program
            (I.workload ~args:[ Exec.Value.VInt (seed mod 5) ] run_seed)
        in
        res.I.outcome = I.Success);
    QCheck.Test.make
      ~name:"PT round trip holds per thread under racy interleavings"
      ~count:120
      QCheck.(pair (int_bound 100_000) (int_bound 500))
      (fun (seed, run_seed) ->
        let program = Fuzz.Gen.random_threaded seed in
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
        let res =
          Exec.Interp.run ~hooks ~counters ~record_gt:true ~max_steps:100_000
            program (I.workload ~args:[ Exec.Value.VInt 3 ] run_seed)
        in
        Hw.Pt.finish pt;
        let decoded = Tsupport.Programs.decode_streams pt program in
        res.I.outcome = I.Success
        && List.for_all
             (fun (tid, expected) ->
               match List.assoc_opt tid decoded with
               | None -> expected = []
               | Some (d : Hw.Pt.decoded) -> d.d_iids = expected)
             (Tsupport.Programs.per_thread_executed res));
    QCheck.Test.make
      ~name:"record/replay reproduces racy random programs" ~count:80
      QCheck.(pair (int_bound 100_000) (int_bound 500))
      (fun (seed, run_seed) ->
        let program = Fuzz.Gen.random_threaded seed in
        let rec_ =
          Baseline.Rr.record ~max_steps:100_000 program
            (I.workload ~args:[ Exec.Value.VInt 3 ] run_seed)
        in
        snd (Baseline.Rr.replay ~max_steps:100_000 program rec_));
    QCheck.Test.make
      ~name:"coverage invariant under racy interleavings" ~count:80
      QCheck.(pair (int_bound 100_000) (int_range 1 5))
      (fun (seed, stride) ->
        let program = Fuzz.Gen.random_threaded seed in
        let all =
          Ir.Program.all_instrs program
          |> List.map (fun (x : Ir.Types.instr) -> x.iid)
        in
        let tracked =
          List.filteri (fun k _ -> k mod stride = seed mod stride) all
        in
        let plan = Instrument.Place.compute program tracked in
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let wp = Hw.Watchpoint.create counters in
        let hooks =
          Instrument.Runtime.hooks ~data_via_pt:false ~plan ~pt ~wp
            ~wp_allowed:[]
        in
        let res =
          Exec.Interp.run ~hooks ~counters ~record_gt:true ~max_steps:100_000
            program (I.workload ~args:[ Exec.Value.VInt 3 ] 1)
        in
        Hw.Pt.finish pt;
        let decoded =
          Tsupport.Programs.decode_streams pt program
          |> List.concat_map (fun (_, (d : Hw.Pt.decoded)) -> d.d_iids)
          |> List.sort_uniq compare
        in
        let executed = List.map snd res.I.executed |> List.sort_uniq compare in
        List.for_all
          (fun iid -> (not (List.mem iid executed)) || List.mem iid decoded)
          tracked);
  ]

let rr_props =
  [
    QCheck.Test.make ~name:"record/replay reproduces random programs"
      ~count:100 seed_arb (fun seed ->
        let program = Fuzz.Gen.random seed in
        let rec_ =
          Baseline.Rr.record ~max_steps:100_000 program
            (I.workload ~args:[ Exec.Value.VInt 3 ] 5)
        in
        let _, same = Baseline.Rr.replay ~max_steps:100_000 program rec_ in
        same);
  ]

let () =
  Alcotest.run "gen-properties"
    [
      ("interp", List.map QCheck_alcotest.to_alcotest interp_props);
      ("pt", List.map QCheck_alcotest.to_alcotest pt_props);
      ("coverage", List.map QCheck_alcotest.to_alcotest coverage_props);
      ("slicing", List.map QCheck_alcotest.to_alcotest slicing_props);
      ("record-replay", List.map QCheck_alcotest.to_alcotest rr_props);
      ("multithreaded", List.map QCheck_alcotest.to_alcotest mt_props);
    ]
