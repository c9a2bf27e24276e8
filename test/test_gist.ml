(* End-to-end tests of the Gist server/client pipeline: failure
   matching, cooperative watchpoint rotation, adaptive slice tracking,
   refinement and the final sketch. *)

module I = Exec.Interp

let wp_groups =
  [
    Alcotest.test_case "groups of at most the watchpoint capacity" `Quick
      (fun () ->
        let gs = Gist.Server.wp_groups ~wp_capacity:4 [ 1; 2; 3; 4; 5; 6 ] in
        Alcotest.(check int) "two groups" 2 (List.length gs);
        List.iter
          (fun g -> Alcotest.(check bool) "<=4" true (List.length g <= 4))
          gs;
        Alcotest.(check (list int)) "union preserved" [ 1; 2; 3; 4; 5; 6 ]
          (List.concat gs |> List.sort compare));
    Alcotest.test_case "no targets yields one empty group" `Quick (fun () ->
        Alcotest.(check (list (list int))) "empty" [ [] ]
          (Gist.Server.wp_groups ~wp_capacity:4 []));
    Alcotest.test_case "non-positive capacity is a programming error" `Quick
      (fun () ->
        List.iter
          (fun cap ->
            match Gist.Server.wp_groups ~wp_capacity:cap [ 1; 2; 3 ] with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "wp_capacity %d accepted" cap)
          [ 0; -1; -4 ]);
  ]

let first_failure =
  [
    Alcotest.test_case "first_failure finds a production failure" `Quick
      (fun () ->
        let bug = Bugbase.Pbzip2.bug in
        match
          I.first_failure ~preempt_prob:bug.preempt_prob bug.program
            bug.workload_of
        with
        | Some (_, rep) ->
          Alcotest.(check bool) "a crash kind" true
            (List.mem
               (Exec.Failure.kind_tag rep.kind)
               [ "segfault"; "use-after-free"; "double-free"; "assert" ])
        | None -> Alcotest.fail "no failure found");
    Alcotest.test_case "a bug-free program yields no production failure"
      `Quick (fun () ->
        (* backs the CLI's distinct no-failing-run exit code: the scan
           itself must come back empty, not crash or mis-match *)
        let program = Tsupport.Programs.loop_sum in
        let workload_of c =
          I.workload ~args:[ Exec.Value.VInt ((c mod 7) + 1) ] c
        in
        match
          I.first_failure ~max_runs:50 program workload_of
        with
        | None -> ()
        | Some (_, rep) ->
          Alcotest.failf "unexpected failure: %s"
            (Exec.Failure.report_to_string rep));
    Alcotest.test_case "signatures separate distinct failure modes" `Quick
      (fun () ->
        let bug = Bugbase.Pbzip2.bug in
        let sigs = Hashtbl.create 4 in
        for c = 0 to 120 do
          match
            (I.run ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of c))
              .I.outcome
          with
          | I.Failed rep ->
            Hashtbl.replace sigs (Exec.Failure.signature rep) ()
          | I.Success -> ()
        done;
        Alcotest.(check bool) "several signatures" true (Hashtbl.length sigs >= 2));
  ]

let client =
  [
    Alcotest.test_case "client reports signature and decode for failures"
      `Quick (fun () ->
        let bug = Bugbase.Curl.bug in
        let c0, _ = Option.get (Bugbase.Common.find_target_failure bug) in
        let failure =
          match Bugbase.Common.find_target_failure bug with
          | Some (_, f) -> f
          | None -> assert false
        in
        let slice = Slicing.Slicer.compute bug.program failure in
        let plan =
          Instrument.Place.compute bug.program (Slicing.Slicer.take slice 4)
        in
        let report =
          Gist.Client.run_one ~plan
            ~wp_allowed:plan.Instrument.Plan.wp_targets
            ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of c0)
        in
        Alcotest.(check bool) "failing" true (Gist.Client.failing report);
        Alcotest.(check bool) "failure pc decoded" true
          (List.exists
             (fun (_, iids) -> List.mem failure.pc iids)
             report.r_executed);
        Alcotest.(check bool) "base cycles positive" true
          (report.r_base_cycles > 0.0));
    Alcotest.test_case "monitored successful run has no signature" `Quick
      (fun () ->
        let bug = Bugbase.Curl.bug in
        let plan = Instrument.Place.compute bug.program [] in
        let report =
          Gist.Client.run_one ~plan ~wp_allowed:[]
            ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of 0)
        in
        Alcotest.(check bool) "success" false (Gist.Client.failing report);
        Alcotest.(check (float 0.0001)) "zero overhead when untracked" 0.0
          report.r_overhead_pct);
  ]

let diagnose_bug (bug : Bugbase.Common.t) =
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let config =
    { Gist.Config.default with Gist.Config.preempt_prob = bug.preempt_prob }
  in
  Gist.Server.diagnose ~config
    ~oracle:(Experiments.Oracle.for_bug bug)
    ~bug_name:bug.name ~failure_type:bug.failure_type ~program:bug.program
    ~workload_of:bug.workload_of ~failure ()

let end_to_end_case (bug : Bugbase.Common.t) ~max_recurrences ~min_accuracy =
  Alcotest.test_case (Printf.sprintf "diagnose %s" bug.name) `Quick (fun () ->
      let d = diagnose_bug bug in
      Alcotest.(check bool)
        (Printf.sprintf "recurrences %d <= %d" d.recurrences max_recurrences)
        true
        (d.recurrences <= max_recurrences);
      (* the sketch covers the root cause *)
      let got = Fsketch.Sketch.iids d.sketch in
      List.iter
        (fun iid ->
          if not (List.mem iid got) then
            Alcotest.failf "root-cause iid %d missing from sketch" iid)
        (Bugbase.Common.root_cause_iids bug);
      (* a convincing predictor exists *)
      Alcotest.(check bool) "convincing predictor" true
        (Experiments.Oracle.convincing_predictor d.sketch);
      (* accuracy against the hand-built ideal *)
      let acc =
        Fsketch.Accuracy.of_sketch d.sketch ~ideal:(Bugbase.Common.ideal bug)
      in
      Alcotest.(check bool)
        (Printf.sprintf "accuracy %.1f >= %.1f" acc.overall min_accuracy)
        true
        (acc.overall >= min_accuracy);
      (* monitoring stayed cheap *)
      Alcotest.(check bool) "overhead below 15%" true
        (d.avg_overhead_pct < 15.0))

let end_to_end =
  [
    end_to_end_case Bugbase.Pbzip2.bug ~max_recurrences:6 ~min_accuracy:75.0;
    end_to_end_case Bugbase.Curl.bug ~max_recurrences:6 ~min_accuracy:85.0;
    end_to_end_case Bugbase.Transmission.bug ~max_recurrences:6
      ~min_accuracy:85.0;
    end_to_end_case Bugbase.Sqlite.bug ~max_recurrences:6 ~min_accuracy:80.0;
  ]

let ablation =
  [
    Alcotest.test_case "disabling data flow loses the value predictors"
      `Quick (fun () ->
        let bug = Bugbase.Transmission.bug in
        let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
        let config =
          {
            Gist.Config.default with
            Gist.Config.preempt_prob = bug.preempt_prob;
            enable_df = false;
            max_iterations = 3;
          }
        in
        let d =
          Gist.Server.diagnose ~config ~bug_name:bug.name
            ~failure_type:bug.failure_type ~program:bug.program
            ~workload_of:bug.workload_of ~failure ()
        in
        let has_value_predictor =
          List.exists
            (fun (r : Predict.Stats.ranked) ->
              match r.predictor with
              | Predict.Predictor.Data_value _ | Value_range _ | Race _
              | Atomicity _ ->
                true
              | Branch_taken _ -> false)
            d.sketch.predictors
        in
        Alcotest.(check bool) "no data predictors without watchpoints" false
          has_value_predictor);
    Alcotest.test_case "iteration trace is recorded with doubling sigma"
      `Quick (fun () ->
        let d = diagnose_bug Bugbase.Curl.bug in
        let sigmas =
          List.map (fun (t : Gist.Server.iteration_info) -> t.it_sigma) d.trace
        in
        let rec doubling = function
          | a :: (b :: _ as tl) -> b = 2 * a && doubling tl
          | _ -> true
        in
        Alcotest.(check bool) "doubles" true (doubling sigmas);
        Alcotest.(check int) "starts at 2" 2 (List.hd sigmas));
  ]

(* Config validation (PR 7): diagnose rejects nonsense knobs with a
   typed error instead of looping forever or dividing by zero. *)

let validation =
  let open Gist.Config in
  let expects_error name bad expected =
    Alcotest.test_case name `Quick (fun () ->
        match validate bad with
        | Ok _ -> Alcotest.fail "expected a validation error"
        | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error is %s" expected)
            true
            (String.length (error_to_string e) > 0
            && e
               = (match expected with
                  | "sigma0" -> Bad_sigma0 bad.sigma0
                  | "max_clients" ->
                    Bad_max_clients_per_iter bad.max_clients_per_iter
                  | "delta" -> Bad_separation_delta bad.separation_delta
                  | "checkpoint" -> Bad_checkpoint_every bad.checkpoint_every
                  | _ -> assert false)))
  in
  [
    Alcotest.test_case "the default and adaptive configs validate" `Quick
      (fun () ->
        Alcotest.(check bool) "default ok" true (validate default = Ok default);
        Alcotest.(check bool) "adaptive ok" true
          (validate adaptive = Ok adaptive));
    expects_error "sigma0 must be positive" { default with sigma0 = 0 }
      "sigma0";
    expects_error "clients per iteration must be positive"
      { default with max_clients_per_iter = -3 }
      "max_clients";
    expects_error "separation delta must lie in (0,1)"
      { default with separation_delta = 1.0 } "delta";
    expects_error "checkpoint interval must be positive"
      { default with checkpoint_every = 0 } "checkpoint";
    Alcotest.test_case "check raises Invalid on a bad config" `Quick
      (fun () ->
        Alcotest.check_raises "raises"
          (Invalid (Bad_sigma0 (-1)))
          (fun () -> ignore (check { default with sigma0 = -1 })));
    Alcotest.test_case "diagnose surfaces the validation error" `Quick
      (fun () ->
        let bug = Bugbase.Curl.bug in
        match Bugbase.Common.find_target_failure bug with
        | None -> Alcotest.fail "curl failure must manifest"
        | Some (_, failure) ->
          Alcotest.check_raises "raises"
            (Invalid (Bad_sigma0 0))
            (fun () ->
              ignore
                (Gist.Server.diagnose
                   ~config:{ default with sigma0 = 0 }
                   ~bug_name:bug.name ~failure_type:bug.failure_type
                   ~program:bug.program ~workload_of:bug.workload_of
                   ~failure ())));
  ]

(* The service-level scheduler knobs (lib/serve) carry the same typed
   validation contract as the diagnosis config above: every reject is
   a [cerror] naming the knob and the offending value, and [create] is
   [validate] with the error raised. *)
let sconfig_validation =
  let module Svc = Serve.Service in
  let expects name bad (err : Svc.cerror) =
    Alcotest.test_case name `Quick (fun () ->
        match Svc.validate bad with
        | Ok _ -> Alcotest.failf "%s: bad sconfig accepted" name
        | Error e ->
          Alcotest.(check string)
            (name ^ ": typed reject")
            (Svc.cerror_to_string err)
            (Svc.cerror_to_string e))
  in
  [
    Alcotest.test_case "the default sconfig validates" `Quick (fun () ->
        Alcotest.(check bool) "default ok" true
          (Svc.validate Svc.default = Ok Svc.default));
    Alcotest.test_case "checkpointing and deadlines may be disabled"
      `Quick (fun () ->
        let off =
          { Svc.default with
            Svc.checkpoint_every_rounds = 0;
            session_deadline_rounds = 0 }
        in
        Alcotest.(check bool) "zero disables" true
          (Svc.validate off = Ok off));
    expects "negative checkpoint cadence is rejected"
      { Svc.default with Svc.checkpoint_every_rounds = -1 }
      (Svc.Bad_checkpoint_every (-1));
    expects "negative session deadline is rejected"
      { Svc.default with Svc.session_deadline_rounds = -7 }
      (Svc.Bad_deadline (-7));
    expects "zero strikes is rejected"
      { Svc.default with Svc.max_session_strikes = 0 }
      (Svc.Bad_strikes 0);
    expects "negative strikes is rejected"
      { Svc.default with Svc.max_session_strikes = -2 }
      (Svc.Bad_strikes (-2));
    Alcotest.test_case "create raises Invalid_argument on a bad sconfig"
      `Quick (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument
             (Svc.cerror_to_string (Svc.Bad_strikes 0)))
          (fun () ->
            ignore
              (Svc.create
                 ~sconfig:{ Svc.default with Svc.max_session_strikes = 0 }
                 ())));
  ]

let () =
  Alcotest.run "gist"
    [
      ("wp-groups", wp_groups);
      ("first-failure", first_failure);
      ("client", client);
      ("end-to-end", end_to_end);
      ("ablation", ablation);
      ("validation", validation);
      ("sconfig-validation", sconfig_validation);
    ]
