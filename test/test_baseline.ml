(* Record/replay baseline tests: replay must reproduce the recorded
   outcome exactly (that is what makes it a record/replay system), and
   the cost relationships of Fig. 13 must hold. *)

module I = Exec.Interp

let replay_case name program workload =
  Alcotest.test_case name `Quick (fun () ->
      let rec_ = Baseline.Rr.record program workload in
      let outcome, same = Baseline.Rr.replay program rec_ in
      Alcotest.(check bool) "replay reproduces the outcome" true same;
      (match (outcome, rec_.rec_outcome) with
       | I.Failed a, I.Failed b ->
         Alcotest.(check int) "same pc" b.pc a.pc
       | I.Success, I.Success -> ()
       | _ -> Alcotest.fail "outcome class mismatch"))

let w ?(args = []) seed = I.workload ~args seed

let replay =
  [
    replay_case "successful multithreaded run replays"
      (Tsupport.Programs.counter ~locked:true)
      (w ~args:[ Exec.Value.VInt 4 ] 3);
    replay_case "racy run replays (unlocked counter)"
      (Tsupport.Programs.counter ~locked:false)
      (w ~args:[ Exec.Value.VInt 4 ] 17);
    replay_case "crashing run replays to the same failure"
      Tsupport.Programs.uaf (w 1);
    Alcotest.test_case "pbzip2 failing run replays to the same signature"
      `Quick (fun () ->
        let bug = Bugbase.Pbzip2.bug in
        match Bugbase.Common.find_target_failure bug with
        | None -> Alcotest.fail "no failing run found"
        | Some (c, _) ->
          let rec_ =
            Baseline.Rr.record ~preempt_prob:bug.preempt_prob bug.program
              (bug.workload_of c)
          in
          (* Replay must land on the identical failure even though the
             run is racy. *)
          let _, same = Baseline.Rr.replay bug.program rec_ in
          Alcotest.(check bool) "same" true same);
    Alcotest.test_case "recording captures one event per scheduling step"
      `Quick (fun () ->
        let rec_ =
          Baseline.Rr.record (Tsupport.Programs.counter ~locked:true)
            (w ~args:[ Exec.Value.VInt 2 ] 5)
        in
        Alcotest.(check int) "schedule length = steps" rec_.rec_steps
          (Array.length rec_.rec_schedule));
    Alcotest.test_case "recording captures shared-read values" `Quick
      (fun () ->
        let rec_ =
          Baseline.Rr.record (Tsupport.Programs.counter ~locked:true)
            (w ~args:[ Exec.Value.VInt 2 ] 5)
        in
        Alcotest.(check bool) "reads recorded" true
          (List.length rec_.rec_read_values > 0));
  ]

let overheads =
  [
    Alcotest.test_case "rr costs more than full hardware PT" `Quick (fun () ->
        let bug = Bugbase.Transmission.bug in
        let wl = bug.workload_of 0 in
        let rec_ =
          Baseline.Rr.record ~preempt_prob:bug.preempt_prob bug.program wl
        in
        let _, pt_pct =
          Baseline.Softpt.full_pt ~preempt_prob:bug.preempt_prob bug.program wl
        in
        let rr_pct =
          Exec.Cost.rr_overhead_percent rec_.Baseline.Rr.rec_counters
        in
        Alcotest.(check bool) "rr > pt" true (rr_pct > pt_pct));
    Alcotest.test_case "software tracing costs more than hardware PT" `Quick
      (fun () ->
        let bug = Bugbase.Curl.bug in
        let wl = bug.workload_of 0 in
        let _, sw_pct =
          Baseline.Softpt.full_trace ~preempt_prob:bug.preempt_prob bug.program
            wl
        in
        let _, pt_pct =
          Baseline.Softpt.full_pt ~preempt_prob:bug.preempt_prob bug.program wl
        in
        Alcotest.(check bool) "sw > pt" true (sw_pct > pt_pct);
        Alcotest.(check bool) "sw is multiples of base" true (sw_pct > 300.0));
  ]

let () =
  Alcotest.run "baseline" [ ("replay", replay); ("overheads", overheads) ]
