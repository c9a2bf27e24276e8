(* Instrumentation placement tests (paper Fig. 4 rules) and the key
   coverage invariant: every tracked statement that executes appears in
   the decoded Intel PT trace. *)

open Tsupport.Programs
module I = Exec.Interp
module Plan = Instrument.Plan

let plan_for program tracked = Instrument.Place.compute program tracked

let has_action plan iid a = List.mem a (Plan.actions_at plan iid)

let placement =
  [
    Alcotest.test_case "tracked statement gets a start at its block head"
      `Quick (fun () ->
        (* diamond: track the statement in the positive arm (iid 3) *)
        let plan = plan_for diamond [ 3 ] in
        Alcotest.(check bool) "start at arm head" true
          (has_action plan 3 Plan.Pt_start));
    Alcotest.test_case "start also placed at predecessor terminators" `Quick
      (fun () ->
        let plan = plan_for diamond [ 3 ] in
        (* the entry block's branch (iid 2) is the predecessor terminator *)
        Alcotest.(check bool) "start at branch" true
          (has_action plan 2 Plan.Pt_start));
    Alcotest.test_case "stop placed after the tracked statement" `Quick
      (fun () ->
        let plan = plan_for diamond [ 3 ] in
        let stops =
          Hashtbl.fold
            (fun iid2 acts acc ->
              if List.mem Plan.Pt_stop acts then iid2 :: acc else acc)
            plan.Plan.actions []
        in
        Alcotest.(check bool) "some stop exists" true (stops <> []));
    Alcotest.test_case "consecutive tracked statements do not stop in between"
      `Quick (fun () ->
        (* straight: track instrs 1 and 2 (same block, 1 sdom 2) *)
        let plan = plan_for straight [ 1; 2 ] in
        Alcotest.(check bool) "no stop at 2" false
          (has_action plan 2 Plan.Pt_stop));
    Alcotest.test_case "watchpoints only on memory accesses" `Quick (fun () ->
        let p = Bugbase.Pbzip2.program in
        let all =
          Ir.Program.all_instrs p |> List.map (fun (x : Ir.Types.instr) -> x.iid)
        in
        let plan = plan_for p all in
        List.iter
          (fun iid ->
            Alcotest.(check bool) "is access" true
              (Ir.Program.is_memory_access (Ir.Program.instr_at p iid)))
          plan.Plan.wp_targets);
    Alcotest.test_case "enable_cf=false produces no PT actions" `Quick
      (fun () ->
        let plan =
          Instrument.Place.compute ~enable_cf:false diamond [ 3 ]
        in
        Hashtbl.iter
          (fun _ acts ->
            if List.mem Plan.Pt_start acts || List.mem Plan.Pt_stop acts then
              Alcotest.fail "unexpected PT action")
          plan.Plan.actions);
    Alcotest.test_case "enable_df=false produces no watchpoint targets" `Quick
      (fun () ->
        let plan =
          Instrument.Place.compute ~enable_df:false Bugbase.Pbzip2.program
            [ 1; 2; 3 ]
        in
        Alcotest.(check (list int)) "no wp" [] plan.Plan.wp_targets);
    Alcotest.test_case "peephole: no toggle churn on tight loop back edges"
      `Quick (fun () ->
        (* loop_sum: track the body statement; the loop head must not
           carry a stop that a start immediately undoes every iteration *)
        let body_iid = 6 in
        let plan = plan_for loop_sum [ body_iid ] in
        let stop_and_near_start =
          Hashtbl.fold
            (fun _iid acts acc ->
              acc
              || (List.mem Plan.Pt_stop acts && List.mem Plan.Pt_start acts))
            plan.Plan.actions false
        in
        Alcotest.(check bool) "no stop+start on one point" false
          stop_and_near_start);
  ]

(* The coverage invariant that once broke: run monitored clients over
   many configurations and check every *executed* tracked statement is
   decoded.  (A tracked statement may legitimately not execute at all.) *)
let coverage_case name program args =
  Alcotest.test_case name `Quick (fun () ->
      let all =
        Ir.Program.all_instrs program
        |> List.map (fun (x : Ir.Types.instr) -> x.iid)
      in
      List.iter
        (fun sigma ->
          let tracked = List.filteri (fun k _ -> k mod sigma = 0) all in
          let plan = plan_for program tracked in
          for seed = 0 to 4 do
            let counters = Exec.Cost.create () in
            let pt = Hw.Pt.create counters in
            let wp = Hw.Watchpoint.create counters in
            let hooks = Instrument.Runtime.hooks ~data_via_pt:false ~plan ~pt ~wp ~wp_allowed:[] in
            let res =
              Exec.Interp.run ~hooks ~counters ~record_gt:true program
                (I.workload ~args seed)
            in
            Hw.Pt.finish pt;
            let decoded =
              decode_streams pt program
              |> List.concat_map (fun (_, (d : Hw.Pt.decoded)) -> d.d_iids)
              |> List.sort_uniq compare
            in
            let executed =
              List.map snd res.I.executed |> List.sort_uniq compare
            in
            let crash_pc =
              match res.I.outcome with
              | I.Failed rep -> Some rep.pc
              | I.Success -> None
            in
            List.iter
              (fun iid ->
                if
                  List.mem iid executed
                  && (not (List.mem iid decoded))
                  && Some iid <> crash_pc
                then
                  Alcotest.failf
                    "tracked+executed iid %d missing from decode (sigma=%d seed=%d)"
                    iid sigma seed)
              tracked
          done)
        [ 1; 2; 3; 5 ])

let coverage =
  [
    coverage_case "coverage: loop program" loop_sum [ Exec.Value.VInt 7 ];
    coverage_case "coverage: calls" call_chain [ Exec.Value.VInt 3 ];
    coverage_case "coverage: threads" (counter ~locked:true)
      [ Exec.Value.VInt 3 ];
    coverage_case "coverage: curl bug program" Bugbase.Curl.program
      [ Exec.Value.VStr "http://example.com/{a,b}.txt" ];
  ]

let () =
  Alcotest.run "instrument"
    [ ("placement", placement); ("coverage", coverage) ]
