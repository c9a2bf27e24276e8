(* The self-checking fuzzer end-to-end: bug injection with a labelled
   root cause, the ground-truth oracle, campaign determinism across job
   counts, and the verdict-preserving shrinker. *)

module G = Fuzz.Gen
module C = Fuzz.Check
module R = Fuzz.Runner
module S = Fuzz.Shrink
module Corp = Fuzz.Corpus

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (C.verdict_to_string v))
    C.verdict_equal

let viable_seeds = Tsupport.Programs.viable_seeds

let doctor_accept acc case =
  { case with G.c_truth = { case.G.c_truth with G.t_accept = acc } }

let generation =
  [
    Alcotest.test_case "same (pattern, seed) compiles identically" `Quick
      (fun () ->
        List.iter
          (fun (pat, seed) ->
            let a = G.generate pat seed and b = G.generate pat seed in
            Alcotest.(check string)
              (G.pattern_name pat)
              (Ir.Text.emit a.G.c_program)
              (Ir.Text.emit b.G.c_program))
          viable_seeds);
    Alcotest.test_case "pattern names round-trip" `Quick (fun () ->
        List.iter
          (fun p ->
            match G.pattern_of_name (G.pattern_name p) with
            | Some p' when p' = p -> ()
            | _ -> Alcotest.failf "pattern %s" (G.pattern_name p))
          G.all_patterns);
    Alcotest.test_case "truth names real source lines of the program" `Quick
      (fun () ->
        List.iter
          (fun (pat, seed) ->
            let case = G.generate pat seed in
            let lines =
              List.map
                (fun (i : Ir.Types.instr) -> i.Ir.Types.loc.Ir.Types.line)
                (Ir.Program.all_instrs case.G.c_program)
            in
            List.iter
              (fun l ->
                if not (List.mem l lines) then
                  Alcotest.failf "%s: kernel line %d not in program"
                    (G.pattern_name pat) l)
              (case.G.c_truth.G.t_fail_line
               :: case.G.c_truth.G.t_kernel_lines))
          viable_seeds);
    Alcotest.test_case "workloads are deterministic per client" `Quick
      (fun () ->
        let case = G.generate G.RWR 91052412 in
        let w = G.workload_of case 5 and w' = G.workload_of case 5 in
        Alcotest.(check bool) "equal" true (w = w'));
  ]

let oracle =
  [
    Alcotest.test_case "every pattern diagnoses to its labelled cause"
      `Slow (fun () ->
        List.iter
          (fun (pat, seed) ->
            let o = C.check (G.generate pat seed) in
            Alcotest.check verdict (G.pattern_name pat) C.Correct
              o.C.verdict)
          viable_seeds);
    Alcotest.test_case "empty accept set turns Correct into Wrong" `Quick
      (fun () ->
        let case = doctor_accept [] (G.generate G.Branch_bug 591480616) in
        match (C.check case).C.verdict with
        | C.Wrong_root_cause _ -> ()
        | v -> Alcotest.failf "got %s" (C.verdict_to_string v));
    Alcotest.test_case "unreachable failure line yields No_failure" `Quick
      (fun () ->
        let case = G.generate G.RWR 91052412 in
        let case =
          { case with
            G.c_truth = { case.G.c_truth with G.t_fail_line = 9999 } }
        in
        Alcotest.check verdict "no-failure" C.No_failure
          (C.check case).C.verdict);
    Alcotest.test_case "probe counts both outcomes on a viable case"
      `Quick (fun () ->
        let p = C.probe (G.generate G.WW 856513169) in
        Alcotest.(check bool) "viable" true (C.viable p);
        Alcotest.(check bool) "target found" true (p.C.p_target <> None));
  ]

let campaign =
  [
    Alcotest.test_case "campaign is deterministic across job counts"
      `Slow (fun () ->
        let a = R.run ~jobs:0 ~seed:42 ~count:27 () in
        let b = R.run ~jobs:3 ~seed:42 ~count:27 () in
        Alcotest.(check string) "json" (R.to_json a) (R.to_json b));
    Alcotest.test_case "campaign accuracy is perfect on seed 42" `Slow
      (fun () ->
        let r = R.run ~jobs:0 ~seed:42 ~count:27 () in
        Alcotest.(check (float 0.001)) "overall" 1.0 (R.overall_accuracy r);
        Alcotest.(check (float 0.001)) "min pattern" 1.0
          (R.min_pattern_accuracy r);
        Alcotest.(check int) "cases" 27 (List.length r.R.r_cases);
        Alcotest.(check int) "patterns covered" 9
          (List.length r.R.r_stats));
  ]

let shrinker =
  [
    Alcotest.test_case "shrunk reproducers are small and verdict-stable"
      `Slow (fun () ->
        (* Doctor the truth so the (correct) diagnosis is judged wrong,
           then shrink while that exact wrong-root-cause verdict
           reproduces. *)
        List.iter
          (fun (pat, seed) ->
            let case = doctor_accept [] (G.generate pat seed) in
            let o = C.check case in
            let s = S.run case o.C.verdict in
            let name = G.pattern_name pat in
            Alcotest.(check bool) (name ^ " shrank") true
              (s.S.size_after <= s.S.size_before);
            Alcotest.(check bool) (name ^ " <= 25 instrs") true
              (s.S.size_after <= 25);
            Alcotest.check verdict (name ^ " verdict preserved")
              o.C.verdict (C.check s.S.shrunk).C.verdict)
          [ (G.RWR, 91052412); (G.WW, 856513169);
            (G.Branch_bug, 591480616) ]);
    Alcotest.test_case "scenario-less cases are returned unchanged" `Quick
      (fun () ->
        let case = G.generate G.Value_bug 489017093 in
        let bare = { case with G.c_scenario = None } in
        let s = S.run bare C.Correct in
        Alcotest.(check int) "rounds" 0 s.S.rounds;
        Alcotest.(check int) "size" (S.instr_count bare) s.S.size_after);
    Alcotest.test_case "every shrink candidate strictly shrinks" `Quick
      (fun () ->
        List.iter
          (fun (pat, seed) ->
            let sc = G.scenario pat seed in
            List.iter
              (fun sc' ->
                if G.scenario_size sc' >= G.scenario_size sc then
                  Alcotest.failf "%s-%d: candidate did not shrink"
                    (G.pattern_name pat) seed)
              (G.shrink_candidates sc))
          viable_seeds);
  ]

let corpus_format =
  [
    Alcotest.test_case "accept strings round-trip" `Quick (fun () ->
        List.iter
          (fun acc ->
            match Corp.accept_of_string (Corp.accept_to_string acc) with
            | Ok acc' when acc' = acc -> ()
            | Ok _ -> Alcotest.failf "mangled %s" (Corp.accept_to_string acc)
            | Error e -> Alcotest.fail e)
          [
            G.A_race ("WR", 12, 101); G.A_atom ("RWR", 101, 102, 103);
            G.A_value (112, "6"); G.A_value (101, "null");
            G.A_branch (101, true); G.A_branch (103, false);
          ]);
    Alcotest.test_case "malformed accept strings are rejected" `Quick
      (fun () ->
        List.iter
          (fun s ->
            match Corp.accept_of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ ""; "frob@12"; "race:WR@12"; "branch@x=taken"; "atom:RWR@1,2" ]);
    Alcotest.test_case "a case round-trips through the corpus format"
      `Quick (fun () ->
        let case = G.generate G.WR 293615293 in
        match Corp.of_string ~name:"rt" (Corp.to_string case) with
        | Error e -> Alcotest.fail e
        | Ok c ->
          Alcotest.(check string) "kind"
            case.G.c_truth.G.t_kind_tag c.G.c_truth.G.t_kind_tag;
          Alcotest.(check int) "fail line"
            case.G.c_truth.G.t_fail_line c.G.c_truth.G.t_fail_line;
          Alcotest.(check (list int)) "kernel lines"
            case.G.c_truth.G.t_kernel_lines c.G.c_truth.G.t_kernel_lines;
          Alcotest.(check bool) "accept set" true
            (case.G.c_truth.G.t_accept = c.G.c_truth.G.t_accept);
          Alcotest.(check (list int)) "args"
            case.G.c_args_cycle c.G.c_args_cycle;
          Alcotest.(check (float 0.0001))
            "preempt" case.G.c_preempt c.G.c_preempt;
          Alcotest.(check int) "instrs"
            case.G.c_program.Ir.Types.n_instrs
            c.G.c_program.Ir.Types.n_instrs);
  ]

let () =
  Alcotest.run "fuzz"
    [
      ("generation", generation);
      ("oracle", oracle);
      ("campaign", campaign);
      ("shrinker", shrinker);
      ("corpus-format", corpus_format);
    ]
