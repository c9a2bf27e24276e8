(* Fault-injection and fleet-protocol tests.  Two properties anchor the
   robustness story: the seeded fault model is a pure function of
   (seed, client, attempt) and honest about its rates, and every
   tampered report is rejected with the right typed reason before it
   can reach aggregation or predictor ranking. *)

module F = Faults.Fault
module T = Faults.Tamper
module P = Gist.Protocol
module I = Exec.Interp

(* ------------------------------------------------------------------ *)
(* The fault model *)

let draws rates ~seed n =
  List.init n (fun c -> F.draw rates ~seed ~client:c ~attempt:0)

let model =
  [
    Alcotest.test_case "zero rates never inject" `Quick (fun () ->
        List.iter
          (fun seed ->
            List.iter
              (fun inj ->
                Alcotest.(check bool) "none" true (inj = F.none))
              (draws F.zero ~seed 50))
          [ 0; 1; 42; 123456 ]);
    Alcotest.test_case "draw is a pure function of (seed, client, attempt)"
      `Quick (fun () ->
        let rates = F.spread 0.3 in
        for c = 0 to 40 do
          for a = 0 to 3 do
            let x = F.draw rates ~seed:9 ~client:c ~attempt:a in
            let y = F.draw rates ~seed:9 ~client:c ~attempt:a in
            if x <> y then Alcotest.fail "draw not deterministic"
          done
        done);
    Alcotest.test_case "clients and attempts are independent coordinates"
      `Quick (fun () ->
        let rates = F.spread 0.5 in
        let by_client = draws rates ~seed:3 300 in
        let distinct =
          List.exists (fun inj -> inj <> List.hd by_client) by_client
        in
        Alcotest.(check bool) "clients differ" true distinct;
        let a0 = F.draw rates ~seed:3 ~client:7 ~attempt:0 in
        let some_attempt_differs =
          List.exists
            (fun a -> F.draw rates ~seed:3 ~client:7 ~attempt:a <> a0)
            [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        in
        Alcotest.(check bool) "attempts differ" true some_attempt_differs);
    Alcotest.test_case "certain rate always injects exactly that kind"
      `Quick (fun () ->
        List.iter
          (fun kind ->
            let rates = F.with_rate F.zero kind 1.0 in
            List.iter
              (fun inj ->
                Alcotest.(check (list string))
                  (F.kind_name kind) [ F.kind_name kind ]
                  (List.map F.kind_name (F.kinds_of inj)))
              (draws rates ~seed:5 40))
          F.all_kinds);
    Alcotest.test_case "observed frequency tracks the configured rate"
      `Quick (fun () ->
        let rates = F.with_rate F.zero F.Drop 0.3 in
        let n = 4000 in
        let hits =
          List.length (List.filter (fun i -> i.F.j_drop) (draws rates ~seed:11 n))
        in
        let freq = float_of_int hits /. float_of_int n in
        if abs_float (freq -. 0.3) > 0.05 then
          Alcotest.failf "drop frequency %.3f too far from 0.3" freq);
    Alcotest.test_case "spread inverts aggregate" `Quick (fun () ->
        List.iter
          (fun r ->
            let got = F.aggregate (F.spread r) in
            if abs_float (got -. r) > 1e-9 then
              Alcotest.failf "aggregate (spread %.2f) = %.6f" r got)
          [ 0.0; 0.05; 0.10; 0.25; 0.5 ];
        Alcotest.(check bool) "spread 0 is zero" true (F.is_zero (F.spread 0.0)));
    Alcotest.test_case "kind names round-trip" `Quick (fun () ->
        List.iter
          (fun k ->
            match F.kind_of_name (F.kind_name k) with
            | Some k' when k' = k -> ()
            | _ -> Alcotest.failf "round trip failed for %s" (F.kind_name k))
          F.all_kinds;
        Alcotest.(check bool) "unknown name" true
          (F.kind_of_name "meteor-strike" = None));
    Alcotest.test_case "rate accessors touch only their kind" `Quick (fun () ->
        List.iter
          (fun k ->
            let r = F.with_rate F.zero k 0.25 in
            Alcotest.(check (float 1e-9)) "set" 0.25 (F.rate_of r k);
            List.iter
              (fun k' ->
                if k' <> k then
                  Alcotest.(check (float 1e-9))
                    (F.kind_name k') 0.0 (F.rate_of r k'))
              F.all_kinds)
          F.all_kinds);
  ]

(* ------------------------------------------------------------------ *)
(* Damage models *)

let sample_packets =
  Hw.Pt.[ PGE 1; TNT [ true; false; true ]; TIP 9; PGE 4; TNT [ false ]; PGD 7 ]

let sample_ring = Hw.Pt.Wire.encode sample_packets

let tamper =
  [
    Alcotest.test_case "truncate_wire yields a non-empty strict byte prefix"
      `Quick (fun () ->
        let n = String.length sample_ring in
        for salt = 0 to 30 do
          let t = T.truncate_wire ~salt sample_ring in
          let k = String.length t in
          Alcotest.(check bool) "non-empty, strictly shorter" true
            (k > 0 && k < n);
          Alcotest.(check string) "prefix" (String.sub sample_ring 0 k) t
        done);
    Alcotest.test_case "corrupt_packets changes the stream" `Quick (fun () ->
        let changed = ref 0 in
        for salt = 0 to 30 do
          if T.corrupt_packets ~salt ~n_instrs:12 sample_packets
             <> sample_packets
          then incr changed
        done;
        Alcotest.(check bool) "mostly damaging" true (!changed >= 25));
    Alcotest.test_case "corrupt_traps points a trap out of range" `Quick
      (fun () ->
        let trap =
          {
            Hw.Watchpoint.w_seq = 0;
            w_tid = 1;
            w_iid = 3;
            w_addr = 100;
            w_rw = I.Write;
            w_value = Exec.Value.VInt 7;
          }
        in
        let n_instrs = 10 in
        for salt = 0 to 10 do
          let traps = T.corrupt_traps ~salt ~n_instrs [ trap; trap ] in
          Alcotest.(check bool) "some trap out of range" true
            (List.exists
               (fun (t : Hw.Watchpoint.trap) ->
                 t.w_iid < 0 || t.w_iid >= n_instrs)
               traps)
        done);
    Alcotest.test_case "damage is deterministic in the salt" `Quick (fun () ->
        for salt = 0 to 10 do
          Alcotest.(check string) "truncate"
            (T.truncate_wire ~salt sample_ring)
            (T.truncate_wire ~salt sample_ring);
          Alcotest.(check bool) "corrupt" true
            (T.corrupt_packets ~salt ~n_instrs:12 sample_packets
            = T.corrupt_packets ~salt ~n_instrs:12 sample_packets)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Protocol: every validation layer over the wire bytes *)

(* The fixture program, a plan tracking its first statements, and the
   iid bound. *)
let fixture_setup =
  lazy
    (let program = Tsupport.Programs.counter ~locked:true in
     let all = Ir.Program.all_instrs program in
     (* iids are 1-based: the validation bound is max iid + 1 *)
     let n_instrs =
       1 + List.fold_left (fun m (i : Ir.Types.instr) -> max m i.iid) 0 all
     in
     let tracked =
       List.filteri (fun i _ -> i < 6) all
       |> List.map (fun (ins : Ir.Types.instr) -> ins.iid)
     in
     (program, Instrument.Place.compute program tracked, n_instrs))

(* The fixture program's client report under workload seed [seed]. *)
let fixture_report seed =
  let program, plan, _ = Lazy.force fixture_setup in
  Gist.Client.run_one ~plan ~wp_allowed:plan.Instrument.Plan.wp_targets program
    (I.workload ~args:[ Exec.Value.VInt 3 ] seed)

(* One real client report to tamper with. *)
let fixture =
  lazy
    (let _, plan, n_instrs = Lazy.force fixture_setup in
     (fixture_report 1, n_instrs, Instrument.Plan.id plan))

let expect_reject name pred = function
  | Ok _ -> Alcotest.failf "%s: report was accepted" name
  | Error r ->
    if not (pred r) then
      Alcotest.failf "%s: wrong reason %s" name (P.reject_to_string r)

(* ------------------------------------------------------------------ *)
(* The binary wire envelope: Encode.encode / ingest *)

let wire_of ?(client = 0) ?plan_id report =
  let _, _, fixture_plan = Lazy.force fixture in
  let plan_id = Option.value ~default:fixture_plan plan_id in
  Gist.Protocol.Encode.encode
    (Gist.Protocol.Encode.arena ())
    ~client ~plan_id report

let ingest ?n_instrs ?plan_id bytes =
  let _, n, p = Lazy.force fixture in
  P.Encode.ingest
    ~n_instrs:(Option.value ~default:n n_instrs)
    ~plan_id:(Option.value ~default:p plan_id)
    bytes

let expect_wire_reject name pred bytes = expect_reject name pred (ingest bytes)

(* A payload-layer reject, pinned by its exact message. *)
let expect_payload_reject name expected bytes =
  match ingest bytes with
  | Ok _ -> Alcotest.failf "%s: report was accepted" name
  | Error r -> Alcotest.(check string) name expected (P.reject_to_string r)

let outside_exec = "malformed payload: executed statement outside the program"

let outside_branch =
  "malformed payload: branch outcome on a statement outside the program"

let outside_trap =
  "malformed payload: watchpoint trap on a statement outside the program"

let truncated_thread0 =
  "damaged PT trace: thread 0: truncated stream (missing PGD terminator)"

(* A trap on statement [iid]. *)
let trap_at iid =
  {
    Hw.Watchpoint.w_seq = 0;
    w_tid = 0;
    w_iid = iid;
    w_addr = 0;
    w_rw = I.Read;
    w_value = Exec.Value.VInt 0;
  }

(* The low bit of byte [off] flipped. *)
let flip s off =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
  Bytes.to_string b

(* Byte offsets inside an envelope [wire_of] sealed: its digest field
   follows the version, client, 4-byte session and plan id header. *)
let digest_offset () =
  let _, _, plan_id = Lazy.force fixture in
  6 + String.length (Hw.Codec.encode Hw.Codec.uint plan_id)

let protocol =
  [
    Alcotest.test_case "a sealed report validates" `Quick (fun () ->
        let report, _, _ = Lazy.force fixture in
        match ingest (wire_of report) with
        | Ok r -> Alcotest.(check bool) "same report" true (r = report)
        | Error e -> Alcotest.failf "rejected: %s" (P.reject_to_string e));
    Alcotest.test_case "a single checksum bit flip is rejected" `Quick
      (fun () ->
        let report, _, _ = Lazy.force fixture in
        expect_wire_reject "bad-checksum"
          (function P.Bad_checksum -> true | _ -> false)
          (flip (wire_of report) (digest_offset ())));
    Alcotest.test_case "a foreign protocol version is rejected" `Quick
      (fun () ->
        let report, _, _ = Lazy.force fixture in
        let b = Bytes.of_string (wire_of report) in
        Bytes.set b 0 (Char.chr (P.version + 1));
        expect_wire_reject "bad-version"
          (function P.Bad_version v -> v = P.version + 1 | _ -> false)
          (Bytes.to_string b));
    Alcotest.test_case "a stale plan digest is rejected" `Quick (fun () ->
        let report, _, plan_id = Lazy.force fixture in
        expect_reject "stale-plan"
          (function
            | P.Stale_plan { expected; got } ->
              expected = plan_id + 1 && got = plan_id
            | _ -> false)
          (ingest ~plan_id:(plan_id + 1) (wire_of report)));
    Alcotest.test_case "client-side decode damage is rejected" `Quick
      (fun () ->
        let report, _, _ = Lazy.force fixture in
        let damaged =
          { report with Gist.Client.r_pt_errors = [ (0, Hw.Pt.Truncated) ] }
        in
        expect_payload_reject "damaged-trace" truncated_thread0
          (wire_of damaged));
    Alcotest.test_case "out-of-range statement ids are rejected" `Quick
      (fun () ->
        let report, n_instrs, _ = Lazy.force fixture in
        let bad_exec =
          { report with Gist.Client.r_executed = [ (0, [ n_instrs + 3 ]) ] }
        in
        expect_payload_reject "bad-payload (executed)" outside_exec
          (wire_of bad_exec);
        let bad_branch =
          { report with Gist.Client.r_branches = [ (n_instrs, true) ] }
        in
        expect_payload_reject "bad-payload (branch)" outside_branch
          (wire_of bad_branch);
        let bad_trap = { report with Gist.Client.r_traps = [ trap_at (-2) ] } in
        expect_payload_reject "bad-payload (trap)" outside_trap
          (wire_of bad_trap));
    Alcotest.test_case "the checksum covers the tail of the report" `Quick
      (fun () ->
        (* The digest must notice a change in the very last payload
           field ([r_steps]) and in the pt-error section. *)
        let report, _, _ = Lazy.force fixture in
        let bytes = wire_of report in
        let payload = digest_offset () + 8 in
        let seed = String.length (Hw.Codec.encode Hw.Codec.int report.r_seed) in
        List.iter
          (fun (what, off) ->
            expect_wire_reject what
              (function P.Bad_checksum -> true | _ -> false)
              (flip bytes off))
          [ ("r_steps", String.length bytes - 1); ("r_pt_errors", payload + seed) ]);
    Alcotest.test_case "reject labels are stable counter keys" `Quick
      (fun () ->
        let labels =
          List.map P.reject_label
            [
              P.Bad_version 2;
              P.Bad_checksum;
              P.Wrong_session { expected = 0; got = 7 };
              P.Stale_plan { expected = 1; got = 2 };
              P.Damaged_trace "x";
              P.Bad_payload "y";
            ]
        in
        Alcotest.(check (list string)) "labels"
          [ "bad-version"; "bad-checksum"; "wrong-session"; "stale-plan";
            "damaged-trace"; "bad-payload" ]
          labels);
  ]

let wire =
  [
    Alcotest.test_case "encode / ingest round-trips the whole report"
      `Quick (fun () ->
        let report, _, _ = Lazy.force fixture in
        match ingest (wire_of report) with
        | Ok r ->
          Alcotest.(check bool) "structurally equal" true (r = report)
        | Error e -> Alcotest.failf "rejected: %s" (P.reject_to_string e));
    Alcotest.test_case "ingest accepts every fleet report" `Quick
      (fun () ->
        (* Reports from 16 workload seeds, each sealed from its own
           fleet slot, come back whole. *)
        for seed = 1 to 16 do
          let report = fixture_report seed in
          match ingest (wire_of ~client:seed report) with
          | Ok r -> Alcotest.(check bool) "same report" true (r = report)
          | Error e ->
            Alcotest.failf "seed %d rejected: %s" seed (P.reject_to_string e)
        done);
    Alcotest.test_case "a foreign version byte is rejected first" `Quick
      (fun () ->
        let report, _, _ = Lazy.force fixture in
        let b = Bytes.of_string (wire_of report) in
        (* The envelope leads with the version varint; 4 is a valid
           one-byte varint that is not [P.version]. *)
        Bytes.set b 0 '\004';
        expect_wire_reject "bad-version"
          (function P.Bad_version 4 -> true | _ -> false)
          (Bytes.to_string b));
    Alcotest.test_case "a payload bit flip is a checksum mismatch" `Quick
      (fun () ->
        let report, _, _ = Lazy.force fixture in
        let s = wire_of report in
        let b = Bytes.of_string s in
        let last = Bytes.length b - 1 in
        Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
        expect_wire_reject "bad-checksum"
          (function P.Bad_checksum -> true | _ -> false)
          (Bytes.to_string b));
    Alcotest.test_case "a stale plan id is rejected" `Quick (fun () ->
        let report, _, plan_id = Lazy.force fixture in
        expect_wire_reject "stale-plan"
          (function
            | P.Stale_plan { expected; got } ->
              expected = plan_id && got = plan_id + 1
            | _ -> false)
          (wire_of ~plan_id:(plan_id + 1) report));
    Alcotest.test_case "a dropped ring outranks payload damage" `Quick
      (fun () ->
        let report, n_instrs, _ = Lazy.force fixture in
        (* Both a transport drop and an out-of-range statement: the
           drop must win (reject priority follows payload order). *)
        let damaged =
          {
            report with
            Gist.Client.r_pt_errors = [ (1, Hw.Pt.Empty_stream) ];
            Gist.Client.r_executed = [ (0, [ n_instrs + 3 ]) ];
          }
        in
        expect_payload_reject "dropped-trace"
          "dropped PT ring: thread 1 shipped no bytes" (wire_of damaged));
    Alcotest.test_case "decode damage outranks payload damage" `Quick
      (fun () ->
        let report, n_instrs, _ = Lazy.force fixture in
        let damaged =
          {
            report with
            Gist.Client.r_pt_errors = [ (0, Hw.Pt.Truncated) ];
            Gist.Client.r_executed = [ (0, [ n_instrs + 3 ]) ];
          }
        in
        expect_payload_reject "damaged-trace" truncated_thread0
          (wire_of damaged));
    Alcotest.test_case "a PT fault outranks every out-of-range id" `Quick
      (fun () ->
        let report, n_instrs, _ = Lazy.force fixture in
        let damaged =
          {
            report with
            Gist.Client.r_pt_errors =
              [ (0, Hw.Pt.Truncated); (2, Hw.Pt.Empty_stream) ];
            r_executed = [ (0, [ n_instrs + 3 ]) ];
            r_branches = [ (-1, false) ];
            r_traps = [ trap_at n_instrs ];
          }
        in
        (* the first PT entry wins, even when a later one is a drop *)
        expect_payload_reject "damaged-trace" truncated_thread0
          (wire_of damaged));
    Alcotest.test_case "out-of-range ids rank executed, branch, trap" `Quick
      (fun () ->
        let report, n_instrs, _ = Lazy.force fixture in
        let bad =
          {
            report with
            Gist.Client.r_executed = [ (0, [ n_instrs + 3 ]) ];
            r_branches = [ (n_instrs, true) ];
            r_traps = [ trap_at (-1) ];
          }
        in
        expect_payload_reject "executed beats branch and trap" outside_exec
          (wire_of bad);
        expect_payload_reject "branch beats trap" outside_branch
          (wire_of { bad with Gist.Client.r_executed = [] });
        expect_payload_reject "trap" outside_trap
          (wire_of { bad with Gist.Client.r_executed = []; r_branches = [] }));
    Alcotest.test_case "out-of-range statement ids are rejected" `Quick
      (fun () ->
        let report, n_instrs, _ = Lazy.force fixture in
        let bad =
          { report with Gist.Client.r_executed = [ (0, [ n_instrs + 3 ]) ] }
        in
        expect_payload_reject "bad-payload" outside_exec (wire_of bad));
    Alcotest.test_case "dropped-trace has a stable counter label" `Quick
      (fun () ->
        Alcotest.(check string) "label" "dropped-trace"
          (P.reject_label (P.Dropped_trace 3)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"every envelope truncation and bit flip is rejected"
         ~count:200
         QCheck.(pair (int_bound 10_000) bool)
         (fun (salt, flip) ->
           let report, _, _ = Lazy.force fixture in
           let bytes = wire_of report in
           let bad =
             if flip then T.flip_wire_byte ~salt bytes
             else T.truncate_wire ~salt bytes
           in
           bad <> bytes && Result.is_error (ingest bad)));
  ]

(* ------------------------------------------------------------------ *)
(* End to end: diagnosis under an aggressive fault environment *)

let faulty_diagnosis ?(jobs = 0) () =
  let bug = Bugbase.Curl.bug in
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let config =
    {
      Gist.Config.default with
      preempt_prob = bug.preempt_prob;
      fault_rates = F.spread 0.25;
      fault_seed = 7;
    }
  in
  let run pool =
    Gist.Server.diagnose ~config ?pool ~bug_name:bug.name
      ~failure_type:bug.failure_type ~program:bug.program
      ~workload_of:bug.workload_of ~failure ()
  in
  if jobs = 0 then run None
  else
    let pool = Parallel.Pool.create ~jobs in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> run (Some pool))

let sum_counts l = List.fold_left (fun a (_, n) -> a + n) 0 l

let end_to_end =
  [
    Alcotest.test_case "the fleet ledger balances" `Quick (fun () ->
        let d = faulty_diagnosis () in
        let f = d.Gist.Server.fleet in
        Alcotest.(check bool) "faults were injected" true (f.f_lost + f.f_rejected > 0);
        Alcotest.(check int) "dispatched = delivered + lost" f.f_dispatched
          (f.f_delivered + f.f_lost);
        Alcotest.(check int) "delivered = valid + rejected" f.f_delivered
          (f.f_valid + f.f_rejected);
        Alcotest.(check int) "reasons sum to rejections" f.f_rejected
          (sum_counts f.f_by_reason);
        Alcotest.(check bool) "kinds cover losses and rejections" true
          (sum_counts f.f_by_kind >= f.f_lost + f.f_rejected);
        (* the per-iteration trace tells the same story *)
        let tr = d.Gist.Server.trace in
        Alcotest.(check int) "trace lost" f.f_lost
          (List.fold_left (fun a i -> a + i.Gist.Server.it_lost) 0 tr);
        Alcotest.(check int) "trace rejected" f.f_rejected
          (List.fold_left (fun a i -> a + i.Gist.Server.it_rejected) 0 tr));
    Alcotest.test_case "faulty diagnosis is pool-size independent" `Slow
      (fun () ->
        let a = faulty_diagnosis () in
        let b = faulty_diagnosis ~jobs:3 () in
        Alcotest.(check string) "sketch"
          (Fsketch.Render.render a.Gist.Server.sketch)
          (Fsketch.Render.render b.Gist.Server.sketch);
        Alcotest.(check bool) "fleet stats" true
          (a.Gist.Server.fleet = b.Gist.Server.fleet);
        Alcotest.(check int) "total runs" a.Gist.Server.total_runs
          b.Gist.Server.total_runs);
  ]

let () =
  Alcotest.run "faults"
    [
      ("model", model);
      ("tamper", tamper);
      ("protocol", protocol);
      ("wire", wire);
      ("end-to-end", end_to_end);
    ]
