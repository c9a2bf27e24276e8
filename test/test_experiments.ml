(* Experiment-harness tests: the oracle, shared helpers, and the
   cheap shape checks of the Fig. 13 comparison (the full experiment
   sweeps run under bench/main.exe). *)

let oracle =
  [
    Alcotest.test_case "convincing predictor requires precision" `Quick
      (fun () ->
        let ranked =
          Predict.Stats.rank
            [
              { predictors = [ Predict.Predictor.Data_value (1, "0") ];
                failing = true };
              { predictors = [ Predict.Predictor.Data_value (1, "0") ];
                failing = false };
              { predictors = []; failing = false };
            ]
        in
        let sketch =
          Fsketch.Sketch.build ~bug_name:"t" ~failure_type:"t"
            ~program:Tsupport.Programs.diamond
            ~failure:
              Exec.Failure.
                { kind = Segfault; pc = 1; tid = 0; stack = []; message = "" }
            ~per_thread:[ (0, [ 1 ]) ] ~traps:[] ~ranked
        in
        (* precision 0.5 < 0.85: not convincing *)
        Alcotest.(check bool) "not convincing" false
          (Experiments.Oracle.convincing_predictor sketch));
    Alcotest.test_case "coverage check needs every ideal statement" `Quick
      (fun () ->
        let sketch =
          Fsketch.Sketch.build ~bug_name:"t" ~failure_type:"t"
            ~program:Tsupport.Programs.diamond
            ~failure:
              Exec.Failure.
                { kind = Segfault; pc = 1; tid = 0; stack = []; message = "" }
            ~per_thread:[ (0, [ 1; 2 ]) ] ~traps:[] ~ranked:[]
        in
        Alcotest.(check bool) "covers {1,2}" true
          (Experiments.Oracle.covers_ideal { i_iids = [ 1; 2 ] } sketch);
        Alcotest.(check bool) "misses {3}" false
          (Experiments.Oracle.covers_ideal { i_iids = [ 3 ] } sketch));
  ]

let helpers =
  [
    Alcotest.test_case "mean" `Quick (fun () ->
        Alcotest.(check (float 0.001)) "mean" 2.0
          (Experiments.Harness.mean [ 1.0; 2.0; 3.0 ]);
        Alcotest.(check (float 0.001)) "empty" 0.0 (Experiments.Harness.mean []));
  ]

let fig13_shape =
  [
    Alcotest.test_case "record/replay costs more than Intel PT (shape)" `Quick
      (fun () ->
        (* One representative program is enough for the test suite; the
           full 11-program sweep is `gist_cli experiments fig13`. *)
        let bug = Bugbase.Memcached.bug in
        let row = Experiments.Fig13.row_for bug in
        Alcotest.(check bool) "rr > pt" true (row.rr_pct > row.pt_pct);
        Alcotest.(check bool) "rr is orders of magnitude" true
          (row.rr_pct > 10.0 *. row.pt_pct));
  ]

let harness_smoke =
  [
    Alcotest.test_case "diagnose_bug produces a full result (curl)" `Quick
      (fun () ->
        match Experiments.Harness.diagnose_bug Bugbase.Curl.bug with
        | None -> Alcotest.fail "no result"
        | Some r ->
          Alcotest.(check bool) "accuracy sane" true
            (r.accuracy.overall > 50.0 && r.accuracy.overall <= 100.0);
          let src, instr = Experiments.Harness.sketch_size r in
          Alcotest.(check bool) "sizes positive" true (src > 0 && instr >= src));
  ]

(* The pinned `gist_cli experiments` printout, Table 1 so far
   (test/golden/experiments.txt, written by test/golden/gen.exe): exact
   equality, naming the first line that differs. *)
let golden =
  [
    Alcotest.test_case "the printout matches golden/experiments.txt" `Quick
      (fun () ->
        Tsupport.Golden.check_lines "experiments.txt"
          (Experiments.Table1.render ()));
  ]

let () =
  Alcotest.run "experiments"
    [
      ("oracle", oracle);
      ("helpers", helpers);
      ("fig13-shape", fig13_shape);
      ("harness", harness_smoke);
      ("golden", golden);
    ]
