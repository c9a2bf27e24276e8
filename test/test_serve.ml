(* One-shot-vs-multiplexed differential suite for the diagnosis
   service (lib/serve).

   The service's determinism contract: every per-bug diagnosis it
   completes is bit-identical to the same spec diagnosed one-shot through
   [Gist.Server.diagnose], whatever the scheduler interleaves between
   its grant rounds, whatever the pool size.  The suite holds that
   contract over the whole Bugbase and 50 generated fuzz bugs, in
   both the zero-fault and the 10%-aggregate-fault regimes, at jobs 1
   and jobs 4, with a deliberately adversarial scheduler shape (small
   quantum, tight round budget) so passes span many rounds and
   speculative surplus is exercised.

   Also here: admission control, fairness and backpressure-ledger
   unit tests, and the protocol v2->v3 migration tests (old-layout
   envelopes draw a typed [Bad_version]; mis-routed v3 envelopes draw
   a typed [Wrong_session]). *)

module S = Gist.Server
module D = Tsupport.Diagnoses
module P = Gist.Protocol

(* An adversarial scheduler shape: tiny quantum and a round budget
   that cannot serve every session, so every pass spans rounds, grants
   are partial, and the ring rotation carries starved sessions to the
   front. *)
let tight =
  { Serve.Service.default with
    Serve.Service.max_inflight = 16; max_queue = 64; quantum = 7;
    round_budget = 23 }

(* Run all [specs] through one service at [jobs]; diagnoses keyed by
   session name. *)
let multiplexed ~jobs specs =
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let svc = Serve.Service.create ~sconfig:tight ~pool () in
      List.iter
        (fun sp ->
          match Serve.Service.submit svc sp with
          | Ok _ -> ()
          | Error r ->
            Alcotest.failf "submit %s: %s" sp.Serve.Service.sp_name
              (Serve.Service.sreject_to_string r))
        specs;
      Serve.Service.drain svc;
      List.map
        (fun (c : Serve.Service.completion) ->
          match c.Serve.Service.c_result with
          | Ok d -> (c.Serve.Service.c_name, d)
          | Error f ->
            Alcotest.failf "session %s failed: %s" c.Serve.Service.c_name
              (Serve.Service.session_failure_to_string f))
        (Serve.Service.completions svc))

(* ------------------------------------------------------------------ *)
(* Bugbase: all 11 bugs as concurrent sessions of one service. *)

let bugbase_spec ~faults (b : Bugbase.Common.t) =
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
  {
    Serve.Service.sp_name = b.name;
    sp_failure_type = b.failure_type;
    sp_config = config;
    sp_ingest = S.Streaming;
    sp_oracle = Some (Experiments.Oracle.for_bug b);
    sp_program = b.program;
    sp_workload_of = b.workload_of;
    sp_failure = failure;
    sp_case = None;
  }

let bugbase_differential ~faults () =
  let specs = List.map (bugbase_spec ~faults) Bugbase.Registry.all in
  Alcotest.(check bool)
    "at least 10 concurrent sessions" true
    (List.length specs >= 10);
  let reference =
    List.map (fun sp -> (sp.Serve.Service.sp_name, D.one_shot sp)) specs
  in
  List.iter
    (fun jobs ->
      let served = multiplexed ~jobs specs in
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: all sessions completed" jobs)
        (List.length specs) (List.length served);
      List.iter
        (fun (name, d) ->
          D.compare
            (Printf.sprintf "%s (jobs %d)" name jobs)
            (List.assoc name reference)
            d)
        served)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Fuzz: 50 generated bugs (campaign seed 42), every viable one
   one-shot and as one of 10+ interleaved sessions. *)

let fuzz_count = 50

let fuzz_cases =
  lazy
    (let patterns = Array.of_list Fuzz.Gen.all_patterns in
     List.init fuzz_count (fun i ->
         Fuzz.Gen.generate patterns.(i mod Array.length patterns) (42 + i)))

let fuzz_specs ~faults =
  List.filter_map
    (fun (case : Fuzz.Gen.case) ->
      let case =
        if faults then
          { case with Fuzz.Gen.c_faults = Some (Faults.Fault.spread 0.10, 42) }
        else case
      in
      match Fuzz.Check.probe case with
      | { Fuzz.Check.p_target = Some failure; _ } as p
        when Fuzz.Check.viable p ->
        Some
          {
            Serve.Service.sp_name = case.Fuzz.Gen.c_name;
            sp_failure_type =
              Exec.Failure.kind_to_string failure.Exec.Failure.kind;
            sp_config = Fuzz.Check.config_of case;
            sp_ingest = S.Streaming;
            sp_oracle = None;
            sp_program = case.Fuzz.Gen.c_program;
            sp_workload_of = Fuzz.Gen.workload_of case;
            sp_failure = failure;
    sp_case = None;
          }
      | _ -> None)
    (Lazy.force fuzz_cases)

let fuzz_differential ~faults () =
  let specs = fuzz_specs ~faults in
  (* The sweep must not silently degenerate into a no-op. *)
  Alcotest.(check bool)
    (Printf.sprintf "enough viable cases (%d of %d)" (List.length specs)
       fuzz_count)
    true
    (List.length specs >= fuzz_count / 2);
  let reference =
    List.map (fun sp -> (sp.Serve.Service.sp_name, D.one_shot sp)) specs
  in
  List.iter
    (fun jobs ->
      let served = multiplexed ~jobs specs in
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: all sessions completed" jobs)
        (List.length specs) (List.length served);
      List.iter
        (fun (name, d) ->
          D.compare
            (Printf.sprintf "%s (jobs %d)" name jobs)
            (List.assoc name reference)
            d)
        served)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Admission control, fairness, backpressure ledger. *)

let small_spec name =
  let b = List.hd Bugbase.Registry.all in
  let sp = bugbase_spec ~faults:false b in
  { sp with Serve.Service.sp_name = name }

let admission =
  [
    Alcotest.test_case "typed reject once the waiting room is full" `Quick
      (fun () ->
        let sconfig =
          { Serve.Service.default with
            Serve.Service.max_inflight = 1; max_queue = 2; quantum = 4;
            round_budget = 4 }
        in
        let svc = Serve.Service.create ~sconfig () in
        (match Serve.Service.submit svc (small_spec "a") with
         | Ok (Serve.Service.Ticket 1) -> ()
         | Ok (Serve.Service.Ticket id) ->
           Alcotest.failf "first ticket %d, expected 1" id
         | Ok (Serve.Service.Coalesced _) ->
           Alcotest.fail "coalesced without triage"
         | Error _ -> Alcotest.fail "first submit rejected");
        (match Serve.Service.submit svc (small_spec "b") with
         | Ok _ -> ()
         | Error _ -> Alcotest.fail "second submit rejected");
        (match Serve.Service.submit svc (small_spec "c") with
         | Error (Serve.Service.Busy { inflight = 0; queued = 2; retry_after_rounds }) ->
           Alcotest.(check bool) "retry hint positive" true
             (retry_after_rounds >= 1)
         | Error (Serve.Service.Busy { inflight; queued; _ }) ->
           Alcotest.failf "busy payload inflight=%d queued=%d" inflight queued
         | Error (Serve.Service.Shed _) ->
           Alcotest.fail "shed without triage"
         | Ok _ -> Alcotest.fail "third submit accepted past the cap");
        (* A round admits one session, freeing a queue slot. *)
        ignore (Serve.Service.step svc);
        (match Serve.Service.submit svc (small_spec "d") with
         | Ok _ -> ()
         | Error _ -> Alcotest.fail "submit after step rejected");
        Serve.Service.drain svc;
        let st = Serve.Service.stats svc in
        Alcotest.(check int) "submitted" 4 st.st_submitted;
        Alcotest.(check int) "rejected" 1 st.st_rejected;
        Alcotest.(check int) "admitted" 3 st.st_admitted;
        Alcotest.(check int) "completed" 3 st.st_completed;
        Alcotest.(check int) "peak inflight" 1 st.st_peak_inflight);
    (* Tickets queue only until the next round admits them, so without
       a waiting room they stop at in-flight capacity even before the
       first step. *)
    Alcotest.test_case "no waiting room: tickets stop at in-flight capacity"
      `Quick (fun () ->
        let sconfig =
          { Serve.Service.default with
            Serve.Service.max_inflight = 2; max_queue = 0; quantum = 4;
            round_budget = 8 }
        in
        let svc = Serve.Service.create ~sconfig () in
        let results =
          List.init 10 (fun i ->
              Serve.Service.submit svc (small_spec (string_of_int i)))
        in
        let tickets, busy =
          List.partition
            (function Ok (Serve.Service.Ticket _) -> true | _ -> false)
            results
        in
        Alcotest.(check int) "tickets" 2 (List.length tickets);
        Alcotest.(check bool) "every refusal is Busy" true
          (List.for_all
             (function Error (Serve.Service.Busy _) -> true | _ -> false)
             busy);
        Alcotest.(check int) "busy" 8 (List.length busy);
        ignore (Serve.Service.step svc);
        Alcotest.(check int) "nothing left queued" 0
          (Serve.Service.queued svc);
        Serve.Service.drain svc;
        let st = Serve.Service.stats svc in
        Alcotest.(check int) "rejected" 8 st.st_rejected;
        Alcotest.(check int) "completed" 2 st.st_completed);
    Alcotest.test_case "reject labels" `Quick (fun () ->
        let r =
          Serve.Service.Busy
            { inflight = 3; queued = 7; retry_after_rounds = 1 }
        in
        Alcotest.(check bool) "busy" true
          (match r with Serve.Service.Busy _ -> true | Shed _ -> false);
        Alcotest.(check bool) "string mentions both numbers" true
          (let s = Serve.Service.sreject_to_string r in
           Astring.String.is_infix ~affix:"3" s
           && Astring.String.is_infix ~affix:"7" s));
    Alcotest.test_case
      "ledger balances: submitted = completed + rejected after drain" `Quick
      (fun () ->
        let sconfig =
          { Serve.Service.default with
            Serve.Service.max_inflight = 3; max_queue = 2; quantum = 5;
            round_budget = 10 }
        in
        let svc = Serve.Service.create ~sconfig () in
        let rejected = ref 0 in
        for i = 1 to 9 do
          match Serve.Service.submit svc (small_spec (string_of_int i)) with
          | Ok _ -> ()
          | Error (Serve.Service.Busy _ | Serve.Service.Shed _) ->
            incr rejected;
            ignore (Serve.Service.step svc)
        done;
        Serve.Service.drain svc;
        let st = Serve.Service.stats svc in
        Alcotest.(check int) "submitted" 9 st.st_submitted;
        Alcotest.(check int) "rejected booked" !rejected st.st_rejected;
        Alcotest.(check int) "balance"
          st.st_submitted
          (st.st_completed + st.st_rejected);
        Alcotest.(check int) "no sessions in flight" 0
          (Serve.Service.inflight svc);
        Alcotest.(check int) "no sessions queued" 0 (Serve.Service.queued svc);
        Alcotest.(check int) "completions harvested once" st.st_completed
          (List.length (Serve.Service.take_completions svc));
        Alcotest.(check int) "nothing retained after harvest" 0
          (List.length (Serve.Service.completions svc)));
    Alcotest.test_case
      "fairness: no session starved beyond max_inflight rounds" `Quick
      (fun () ->
        (* round_budget = quantum: only one session served per round —
           the worst case the rotation has to keep fair. *)
        let sconfig =
          { Serve.Service.default with
            Serve.Service.max_inflight = 6; max_queue = 8; quantum = 8;
            round_budget = 8 }
        in
        let svc = Serve.Service.create ~sconfig () in
        List.iter
          (fun (b : Bugbase.Common.t) ->
            match
              Serve.Service.submit svc (bugbase_spec ~faults:false b)
            with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "submit rejected below the cap")
          (List.filteri (fun i _ -> i < 6) Bugbase.Registry.all);
        Serve.Service.drain svc;
        let st = Serve.Service.stats svc in
        Alcotest.(check int) "all completed" 6 st.st_completed;
        Alcotest.(check bool)
          (Printf.sprintf "max wait %d <= %d rounds" st.st_max_wait_rounds
             sconfig.Serve.Service.max_inflight)
          true
          (st.st_max_wait_rounds <= sconfig.Serve.Service.max_inflight));
    Alcotest.test_case "malformed scheduler shapes are refused" `Quick
      (fun () ->
        let bad sconfig =
          match Serve.Service.create ~sconfig () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "malformed sconfig accepted"
        in
        bad { Serve.Service.default with Serve.Service.max_inflight = 0 };
        bad { Serve.Service.default with Serve.Service.quantum = 0 };
        bad
          {
            Serve.Service.default with
            Serve.Service.quantum = 8;
            round_budget = 4;
          });
  ]

(* ------------------------------------------------------------------ *)
(* Protocol v3 migration: the old v2 wire layout (no session word) is
   refused with a typed [Bad_version]; a v3 envelope routed to the
   wrong session is refused with a typed [Wrong_session] before the
   freshness check. *)

(* One real client report to route: (report, n_instrs, plan_id). *)
let fixture =
  lazy
    (let program = Tsupport.Programs.counter ~locked:true in
     let all = Ir.Program.all_instrs program in
     let n_instrs =
       1 + List.fold_left (fun m (i : Ir.Types.instr) -> max m i.iid) 0 all
     in
     let tracked =
       List.filteri (fun i _ -> i < 6) all
       |> List.map (fun (ins : Ir.Types.instr) -> ins.iid)
     in
     let plan = Instrument.Place.compute program tracked in
     let report =
       Gist.Client.run_one ~plan ~wp_allowed:plan.Instrument.Plan.wp_targets
         program
         (Exec.Interp.workload ~args:[ Exec.Value.VInt 3 ] 1)
     in
     (report, n_instrs, Instrument.Plan.id plan))

let migration =
  [
    Alcotest.test_case "v2 wire layout draws Bad_version 2" `Quick (fun () ->
        let report, n_instrs, plan_id = Lazy.force fixture in
        let v3 =
          P.Encode.encode (P.Encode.arena ()) ~client:5 ~plan_id report
        in
        (* The v2 layout is the v3 layout minus the fixed 4-byte
           session word (bytes 2..5 here: version and client are
           single-byte varints for these values), with the version
           byte downgraded. *)
        let v2 =
          let b = Bytes.of_string v3 in
          Bytes.set b 0 '\002';
          let out = Bytes.create (Bytes.length b - 4) in
          Bytes.blit b 0 out 0 2;
          Bytes.blit b 6 out 2 (Bytes.length b - 6);
          Bytes.to_string out
        in
        match P.Encode.ingest ~n_instrs ~plan_id v2 with
        | Error (P.Bad_version 2) -> ()
        | Error r -> Alcotest.failf "ingest: %s" (P.reject_to_string r)
        | Ok _ -> Alcotest.fail "v2 envelope decoded");
    Alcotest.test_case
      "mis-routed v3 envelope draws Wrong_session before Stale_plan" `Quick
      (fun () ->
        let report, n_instrs, plan_id = Lazy.force fixture in
        let bytes =
          P.Encode.encode (P.Encode.arena ()) ~session:5 ~client:3 ~plan_id
            report
        in
        (* Wrong session AND stale plan: the session check wins. *)
        (match
           P.Encode.ingest ~session:9 ~n_instrs ~plan_id:(plan_id + 1) bytes
         with
         | Error (P.Wrong_session { expected = 9; got = 5 }) -> ()
         | Error r -> Alcotest.failf "ingest: %s" (P.reject_to_string r)
         | Ok _ -> Alcotest.fail "mis-routed envelope accepted");
        (* Right session: the freshness layer takes over again. *)
        (match
           P.Encode.ingest ~session:5 ~n_instrs ~plan_id:(plan_id + 1) bytes
         with
         | Error (P.Stale_plan { got; _ }) ->
           Alcotest.(check int) "stale got" plan_id got
         | Error r -> Alcotest.failf "ingest: %s" (P.reject_to_string r)
         | Ok _ -> Alcotest.fail "stale envelope accepted");
        (* Right session, right plan: accepted. *)
        match P.Encode.ingest ~session:5 ~n_instrs ~plan_id bytes with
        | Ok _ -> ()
        | Error r -> Alcotest.failf "ingest: %s" (P.reject_to_string r));
  ]

(* ------------------------------------------------------------------ *)
(* The session id must never influence the diagnosis: the same spec
   run as session 0 (the one-shot id) and as a large id produce
   bit-identical results, fault regime included (fault draws are
   keyed by slot, tamper positions by envelope length — and the
   session word is fixed-width). *)

let session_id_independence =
  [
    Alcotest.test_case "diagnosis is invariant in the session id" `Quick
      (fun () ->
        let sp =
          bugbase_spec ~faults:true (List.hd Bugbase.Registry.all)
        in
        let run id =
          let s =
            S.Session.create ~config:sp.Serve.Service.sp_config
              ~ingest:sp.Serve.Service.sp_ingest
              ?oracle:sp.Serve.Service.sp_oracle ~id
              ~bug_name:sp.Serve.Service.sp_name
              ~failure_type:sp.Serve.Service.sp_failure_type
              ~program:sp.Serve.Service.sp_program
              ~workload_of:sp.Serve.Service.sp_workload_of
              ~failure:sp.Serve.Service.sp_failure ()
          in
          let rec loop () =
            match S.Session.need s with
            | S.Session.Finished -> S.Session.result s
            | S.Session.Slots n ->
              let thunks = S.Session.grant s (min 5 n) in
              S.Session.deliver s (Array.map (fun th -> th ()) thunks);
              loop ()
          in
          loop ()
        in
        D.compare "session id 0 vs 40961" (run 0) (run 40961));
  ]

(* ------------------------------------------------------------------ *)
(* Seed-corpus replay under interleaving: every diagnosable shrunk
   reproducer is diagnosed one-shot and as one of a full ring of
   concurrent sessions under an adversarial scheduler shape, and the
   two diagnoses must be bit-identical.  Cases 15..17 were added for
   this suite (17 carries its fault regime). *)

let corpus_cases =
  lazy
    ((* The corpus is a dune dep copied next to the test binary;
        resolve it there so the suite also runs under [dune exec]. *)
     let dir =
       if Sys.file_exists "corpus" then "corpus"
       else if Sys.file_exists "test/corpus" then "test/corpus"
       else Filename.concat (Filename.dirname Sys.executable_name) "corpus"
     in
     match Fuzz.Corpus.load_dir dir with
     | Ok cases -> cases
     | Error e -> Alcotest.failf "corpus load: %s" e)

let corpus_spec (case : Fuzz.Gen.case) =
  match Fuzz.Check.prepare case with
  | Fuzz.Check.Decided _ -> None
  | Fuzz.Check.Diagnose failure ->
    Some
      {
        Serve.Service.sp_name = case.Fuzz.Gen.c_name;
        sp_failure_type =
          Exec.Failure.kind_to_string failure.Exec.Failure.kind;
        sp_config = Fuzz.Check.config_of case;
        sp_ingest = S.Streaming;
        sp_oracle = None;
        sp_program = case.Fuzz.Gen.c_program;
        sp_workload_of = Fuzz.Gen.workload_of case;
        sp_failure = failure;
        sp_case = None;
      }

let corpus =
  [
    Alcotest.test_case "corpus carries the interleaving-era additions"
      `Quick (fun () ->
        let cases = Lazy.force corpus_cases in
        Alcotest.(check bool) "at least 18 cases" true
          (List.length cases >= 18);
        Alcotest.(check bool) "a fault-regime reproducer among 15.." true
          (List.exists
             (fun (c : Fuzz.Gen.case) ->
               String.length c.Fuzz.Gen.c_name >= 2
               && (match int_of_string_opt (String.sub c.c_name 0 2) with
                   | Some i -> i >= 15
                   | None -> false)
               && c.Fuzz.Gen.c_faults <> None)
             cases));
    Alcotest.test_case "interleaved replay is bit-identical to one-shot"
      `Slow (fun () ->
        let specs =
          List.filter_map corpus_spec (Lazy.force corpus_cases)
        in
        Alcotest.(check bool)
          (Printf.sprintf "enough diagnosable reproducers (%d)"
             (List.length specs))
          true
          (List.length specs >= 15);
        let reference =
          List.map (fun sp -> (sp.Serve.Service.sp_name, D.one_shot sp)) specs
        in
        let served = multiplexed ~jobs:4 specs in
        Alcotest.(check int) "all sessions completed" (List.length specs)
          (List.length served);
        List.iter
          (fun (name, d) ->
            D.compare name (List.assoc name reference) d)
          served);
  ]

(* ------------------------------------------------------------------ *)
(* The service gate at zero chaos reports exactly what the one-shot
   campaign does (shrinking aside), verdict for verdict. *)

let gate_equals_one_shot ~faults () =
  let faults = if faults then Some (Faults.Fault.spread 0.10, 42) else None in
  let one_shot = Fuzz.Runner.run ~shrink:false ?faults ~seed:42 ~count:25 () in
  let gated, _, _ =
    Serve.Gate.run_chaos ?faults ~rates:Faults.Chaos.zero ~seed:42 ~count:25 ()
  in
  Alcotest.(check bool) "same case reports" true
    (one_shot.Fuzz.Runner.r_cases = gated.Fuzz.Runner.r_cases);
  Alcotest.(check string) "same JSON report"
    (Fuzz.Runner.to_json one_shot)
    (Fuzz.Runner.to_json gated)

let gate =
  [
    Alcotest.test_case "gate at zero chaos = one-shot campaign" `Quick
      (gate_equals_one_shot ~faults:false);
    Alcotest.test_case "gate at zero chaos = one-shot campaign, 10% faults"
      `Quick
      (gate_equals_one_shot ~faults:true);
  ]

(* Speculative surplus never reaches the consume fold.  Grant each
   pass's whole budget in one batch and deliver the outcomes one at a
   time.  With everything granted, [need] says [Slots 0] until the
   batch is delivered, whether or not the fold has stopped; the stop
   shows as a delivery that leaves [p_clients] unchanged.  From there
   on every outcome delivered is [crashed_outcome]: were any of them
   folded, the ledger (a lost dispatch, a crash fault) would differ from the one-shot diagnosis at batch 1.
   Returns the diagnosis and the number of outcomes discarded. *)
let surplus_discarded sp =
  let module Ss = S.Session in
  let s = Tsupport.Golden.session_of sp in
  let discarded = ref 0 in
  let rec loop () =
    match Ss.need s with
    | Ss.Finished -> Ss.result s
    | Ss.Slots n ->
      let thunks = Ss.grant s n in
      let stopped = ref false in
      Array.iteri
        (fun i th ->
          if !stopped then Ss.deliver s [| Ss.crashed_outcome |]
          else begin
            let before = (Ss.progress s).Ss.p_clients in
            Ss.deliver s [| th () |];
            stopped := (Ss.progress s).Ss.p_clients = before
          end;
          if !stopped then begin
            incr discarded;
            if i < Array.length thunks - 1 && Ss.need s <> Ss.Slots 0 then
              Alcotest.fail "need asked for slots with outcomes outstanding"
          end)
        thunks;
      loop ()
  in
  let d = loop () in
  (d, !discarded)

let surplus =
  [
    Alcotest.test_case "surplus delivered after a stop is discarded" `Slow
      (fun () ->
        List.iter
          (fun r ->
            let discarded = ref 0 in
            List.iter
              (fun (b : Bugbase.Common.t) ->
                match (D.bugbase_case b).D.spec r with
                | None -> ()
                | Some sp ->
                  let d, k = surplus_discarded sp in
                  discarded := !discarded + k;
                  Alcotest.(check int)
                    (b.name ^ ", " ^ D.regime_name r)
                    (Serve.Service.diagnosis_digest (D.one_shot sp))
                    (Serve.Service.diagnosis_digest d))
              Bugbase.Registry.all;
            if !discarded = 0 then
              Alcotest.failf "%s: no pass stopped with outcomes outstanding"
                (D.regime_name r))
          D.regimes);
  ]

let () =
  Alcotest.run "serve"
    [
      ( "bugbase",
        [
          Alcotest.test_case "11 bugs, one-shot vs multiplexed" `Slow
            (bugbase_differential ~faults:false);
        ] );
      ( "bugbase-faults",
        [
          Alcotest.test_case "11 bugs at 10% aggregate faults" `Slow
            (bugbase_differential ~faults:true);
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "50 generated bugs" `Slow
            (fuzz_differential ~faults:false);
        ] );
      ( "fuzz-faults",
        [
          Alcotest.test_case "50 generated bugs at 10% aggregate faults" `Slow
            (fuzz_differential ~faults:true);
        ] );
      ("corpus", corpus);
      ("surplus", surplus);
      ("admission", admission);
      ("migration", migration);
      ("session-id", session_id_independence);
      ("gate", gate);
    ]
