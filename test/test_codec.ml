(* The binary formats: golden byte fixtures.

   test/golden/<name>.bin holds each format's bytes as the encoders
   wrote them before the formats moved onto one codec module; every
   encoder must still reproduce them, and decoding a fixture then
   encoding the result must give the fixture back, byte for byte; see
   test/support/golden.ml.  test/golden/diagnoses.tsv pins the
   diagnoses of a fixed case set the same way, and test/golden/costs.tsv
   the allocation and bytes of each Bugbase bug's fleet slots. *)

module G = Tsupport.Golden
module Svc = Serve.Service

let fixture name = G.read_file (Filename.concat "golden" (name ^ ".bin"))

let check_bytes ~what name got =
  match G.first_difference (fixture name) got with
  | None -> ()
  | Some i ->
    Alcotest.failf "%s: %s differs from its fixture at byte %d (%d vs %d bytes)"
      name what i
      (String.length (fixture name))
      (String.length got)

let encoders_reproduce =
  List.map
    (fun (name, build) ->
      Alcotest.test_case (name ^ " encoder reproduces its fixture") `Quick
        (fun () -> check_bytes ~what:"fresh encoding" name (build ())))
    G.fixtures

let snapshot_error e = Gist.Server.Session.snapshot_error_to_string e

let roundtrips =
  [
    Alcotest.test_case "envelope decodes and re-encodes to its fixture" `Quick
      (fun () ->
        let _, plan_id, n_instrs = G.envelope_parts () in
        match
          Gist.Protocol.Encode.ingest ~session:G.envelope_session ~n_instrs
            ~plan_id (fixture "envelope")
        with
        | Error r -> Alcotest.failf "ingest: %s" (Gist.Protocol.reject_to_string r)
        | Ok report ->
          check_bytes ~what:"re-encoding" "envelope"
            (G.encode_envelope ~plan_id report));
    Alcotest.test_case "snapshot decodes and re-encodes to its fixture" `Quick
      (fun () ->
        match G.restore_of (G.snapshot_spec ()) (fixture "snapshot") with
        | Error e -> Alcotest.failf "restore: %s" (snapshot_error e)
        | Ok s ->
          check_bytes ~what:"re-encoding" "snapshot"
            (Gist.Server.Session.snapshot s));
    Alcotest.test_case "journal decodes and re-encodes to its fixture" `Quick
      (fun () ->
        let j = Serve.Journal.create () in
        List.iter
          (function
            | Serve.Journal.Rec r -> Serve.Journal.append j r
            | Serve.Journal.Damaged { reason; _ } ->
              Alcotest.failf "damaged record: %s" reason)
          (Serve.Journal.load (fixture "journal"));
        check_bytes ~what:"re-encoding" "journal" (Serve.Journal.contents j));
    Alcotest.test_case "state decodes and re-encodes to its fixture" `Quick
      (fun () ->
        match Svc.recover ~resolve:G.resolve (fixture "journal") with
        | Error e -> Alcotest.failf "recover: %s" (Svc.rerror_to_string e)
        | Ok t ->
          check_bytes ~what:"re-encoding" "state"
            (Option.get (G.last_state (Svc.journal_bytes t))));
    Alcotest.test_case "triage table decodes and re-encodes to its fixture"
      `Quick (fun () ->
        match Hw.Codec.decode Serve.Triage.codec (fixture "triage") with
        | Error e -> Alcotest.failf "decode: %s" (Hw.Codec.error_to_string e)
        | Ok t ->
          check_bytes ~what:"re-encoding" "triage"
            (Hw.Codec.encode Serve.Triage.codec t));
  ]

(* The golden diagnosis ledger: every line recomputed from the current
   code (see test/support/diagnoses.ml). *)
let ledger =
  [
    Alcotest.test_case "every diagnosis matches the golden ledger" `Slow
      (fun () ->
        G.check_lines "diagnoses.tsv"
          (Tsupport.Diagnoses.to_string
             (Tsupport.Diagnoses.ledger ~corpus:"corpus")));
  ]

(* The cost ledger: allocation, packets and bytes of each Bugbase bug's
   first-iteration slots, recomputed by exact equality (see
   test/support/costs.ml). *)
let costs =
  [
    Alcotest.test_case "every slot cost matches the cost ledger" `Quick
      (fun () ->
        G.check_lines "costs.tsv"
          (Tsupport.Costs.to_string (Tsupport.Costs.ledger ())));
  ]

(* ------------------------------------------------------------------ *)
(* Totality: arbitrary bytes, and mutations of valid frames behind a
   recomputed digest, decode to a value or a typed error, never an
   exception.  The fixtures supply the valid frames. *)

module C = Hw.Codec
module P = Gist.Protocol
module W = Hw.Wirebuf

(* 0x80 x8 0x40: an overlong varint that decodes to bit 62 alone, a
   negative OCaml int.  0xff x8 0x3f: [max_int], a length that wraps
   [pos + n]. *)
let overlong = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"
let huge = "\xff\xff\xff\xff\xff\xff\xff\xff\x3f"

let int64_le d =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int d);
  Bytes.to_string b

let splice s at ins ~drop =
  String.sub s 0 at ^ ins ^ String.sub s (at + drop) (String.length s - at - drop)

(* One mutation: overwrite, delete or insert a byte, or insert one of
   the two poison varints, at [at] (taken modulo the length). *)
let mutate s (op, at, v) =
  let n = String.length s in
  let at = at mod (n + 1) in
  let byte = String.make 1 (Char.chr (v land 0xFF)) in
  match op with
  | 0 when at < n -> splice s at byte ~drop:1
  | 1 when at < n -> splice s at "" ~drop:1
  | 2 -> splice s at overlong ~drop:0
  | 3 -> splice s at huge ~drop:0
  | _ -> splice s at byte ~drop:0

let mutations =
  QCheck.(
    list_of_size
      Gen.(1 -- 3)
      (triple (int_bound 4) (int_bound 1_000_000) (int_bound 255)))

let total ~name ?(count = 300) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* A to-end frame split at its digest: (header, payload). *)
let split_frame bytes ~payload_len =
  let h = String.length bytes - payload_len - 8 in
  (String.sub bytes 0 h, String.sub bytes (h + 8) payload_len)

let reseal ~key header payload = header ^ int64_le (C.digest ~key payload) ^ payload

(* --- envelope --- *)

let envelope_ingest bytes =
  let _, plan_id, n_instrs = G.envelope_parts () in
  P.Encode.ingest ~session:G.envelope_session ~n_instrs ~plan_id bytes

(* [ingest] never raises, and an accepted report passed the typed
   checks: no PT decode fault, every statement id inside the
   program. *)
let envelope_total bytes =
  let _, _, n_instrs = G.envelope_parts () in
  let inside iid = iid >= 0 && iid < n_instrs in
  match envelope_ingest bytes with
  | Error _ -> true
  | Ok r ->
    r.Gist.Client.r_pt_errors = []
    && List.for_all (fun (_, iids) -> List.for_all inside iids) r.r_executed
    && List.for_all (fun (iid, _) -> inside iid) r.r_branches
    && List.for_all
         (fun (t : Hw.Watchpoint.trap) -> inside t.w_iid)
         r.r_traps

let reseal_envelope payload =
  let report, plan_id, _ = G.envelope_parts () in
  let bytes = G.encode_envelope ~plan_id report in
  let payload_len = String.length (C.encode P.Encode.report report) in
  let header, _ = split_frame bytes ~payload_len in
  reseal ~key:[ P.version; 3; G.envelope_session; plan_id ] header payload

let envelope_payload () =
  let report, _, _ = G.envelope_parts () in
  C.encode P.Encode.report report

(* A report whose failure carries one recognisable stack frame. *)
let failing_payload () =
  let report, _, _ = G.envelope_parts () in
  C.encode P.Encode.report
    {
      report with
      Gist.Client.r_pt_errors = [];
      r_outcome =
        Exec.Interp.Failed
          {
            Exec.Failure.kind = Exec.Failure.Segfault;
            pc = 1;
            tid = 0;
            stack = [ "STACKFRAME" ];
            message = "m";
          };
    }

let find s sub =
  let n = String.length sub in
  let rec go i = if String.sub s i n = sub then i else go (i + 1) in
  go 0

(* A payload-layer reject, pinned by its exact message. *)
let expect_reject expected bytes =
  match envelope_ingest bytes with
  | Error r -> Alcotest.(check string) "reject" expected (P.reject_to_string r)
  | Ok _ -> Alcotest.failf "accepted; expected %s" expected

let truncated = "malformed payload: truncated envelope"

let envelope_tests =
  [
    Alcotest.test_case "a huge stack-frame length is a typed reject" `Quick
      (fun () ->
        let payload = failing_payload () in
        let at = find payload "STACKFRAME" - 1 in
        expect_reject truncated (reseal_envelope (splice payload at huge ~drop:1)));
    Alcotest.test_case "an overlong pt-error count: checked as truncated"
      `Quick (fun () ->
        let report, _, _ = G.envelope_parts () in
        let seed = String.length (C.encode C.int report.Gist.Client.r_seed) in
        let payload = envelope_payload () in
        expect_reject truncated
          (reseal_envelope (splice payload seed overlong ~drop:1)));
    Alcotest.test_case "bytes after the payload are a typed reject" `Quick
      (fun () ->
        expect_reject "malformed payload: trailing envelope bytes"
          (reseal_envelope (envelope_payload () ^ "\000")));
    Alcotest.test_case "a flip of the digest's top bit is a checksum mismatch"
      `Quick (fun () ->
        let report, plan_id, _ = G.envelope_parts () in
        let bytes = G.encode_envelope ~plan_id report in
        let payload_len = String.length (C.encode P.Encode.report report) in
        let top = String.length bytes - payload_len - 1 in
        let b = Bytes.of_string bytes in
        Bytes.set b top (Char.chr (Char.code (Bytes.get b top) lxor 0x80));
        match envelope_ingest (Bytes.to_string b) with
        | Error P.Bad_checksum -> ()
        | _ -> Alcotest.fail "accepted a damaged digest");
    total ~name:"envelope: arbitrary bytes" QCheck.string envelope_total;
    total ~name:"envelope: arbitrary payload behind a valid digest"
      QCheck.string (fun p -> envelope_total (reseal_envelope p));
    total ~name:"envelope: mutated payload behind a valid digest" mutations
      (fun ms ->
        envelope_total
          (reseal_envelope (List.fold_left mutate (envelope_payload ()) ms)));
  ]

(* --- session snapshot --- *)

(* The snapshot header: magic, version and session id varints. *)
let snapshot_parts () =
  let bytes = fixture "snapshot" in
  let r = W.reader bytes in
  ignore (W.get_uint r);
  ignore (W.get_uint r);
  let s_id = W.get_uint r in
  let h = r.W.pos in
  (String.sub bytes 0 h, s_id, String.sub bytes (h + 8) (String.length bytes - h - 8))

(* [payload] behind a fresh header and digest for [version] (default:
   the current one, 4). *)
let reseal_snapshot ?(version = 4) payload =
  let header, s_id, _ = snapshot_parts () in
  let magic = W.get_uint (W.reader header) in
  let header =
    String.concat "" (List.map (C.encode C.uint) [ magic; version; s_id ])
  in
  reseal ~key:[ 3; 0; s_id; version ] header payload

let restores bytes =
  match G.restore_of (G.snapshot_spec ()) bytes with Ok _ | Error _ -> true

(* The payload's last [n] varints (each ends at a byte below 0x80; a
   bool is one such byte) split off its front: (front, values). *)
let split_varints payload n =
  let rec go stop n acc =
    if n = 0 then (String.sub payload 0 stop, acc)
    else
      let start = ref (stop - 1) in
      while !start > 0 && Char.code payload.[!start - 1] >= 0x80 do
        decr start
      done;
      let v = W.get_uint (W.reader (String.sub payload !start (stop - !start))) in
      go !start (n - 1) (v :: acc)
  in
  go (String.length payload) n []

(* A decode-only mirror of the snapshot payload's layout (the image in
   Server.Session), field by field, to locate the counters a test
   rewrites.  A drift from the real layout fails the walk below. *)
let snapshot_layout =
  let u c = C.conv (fun () -> invalid_arg "decode-only") ignore c in
  let seq = function
    | c :: cs -> List.fold_left (fun acc c -> u (C.pair acc c)) c cs
    | [] -> invalid_arg "seq"
  in
  let open C in
  let none _ = None in
  let predictor =
    variant
      [
        case 1 (pair uint bool) none ignore;
        case 2 (pair uint string) none ignore;
        case 3 (pair uint string) none ignore;
        case 4 (triple string uint uint) none ignore;
        case 5 (pair string (triple uint uint uint)) none ignore;
      ]
  in
  let iteration_info =
    seq
      (List.map u [ uint; uint; uint; uint; uint ]
      @ [ u float; u bool ]
      @ List.map u [ uint; uint; uint; uint; uint ]
      @ [ u bool; variant [ const 0 (); const 1 (); const 2 () ] ])
  in
  let uints names = List.map (fun n -> (n, u uint)) names in
  [
    ("bug_name", u string);
    ("streaming", u bool);
    ("early", u bool);
    ("n_instrs", u uint);
    ("sigma", u uint);
    ("discovered", u (list uint));
    ("confirmed", u (list uint));
    ( "acc",
      seq
        [ u (list (seq [ predictor; u uint; u uint; u bool; u uint ])); u uint; u uint ] );
    ("observations", u (list (seq [ u (list predictor); u bool ])));
    ("repr_failing", u (option P.Encode.report));
    ("audit", u uint);
    ("base_cycles", u float);
    ("extra_cycles", u float);
    ("ov", u (array float));
    ("trace", u (list iteration_info));
    ("by_kind", u (list (pair string uint)));
      ("by_reason", u (list (pair string uint)));
      ("prev_winner", u (option predictor));
      ("win_streak", u uint);
    ("prev_tracked", u (option (list uint)));
  ]
  @ uints [ "fails"; "succs"; "clients" ]
  @ [ ("iter_reports", u (list (pair P.Encode.report bool))) ]
  @ uints [ "it_dispatched"; "it_lost"; "it_rejected"; "it_quarantined" ]
  @ [ ("it_exited", u bool); ("x_tracked", u (list uint)) ]
  @ uints [ "g_base"; "g_budget" ]
  @ [ ("g_first", u (option (pair uint uint))) ]
  @ uints [ "g_granted"; "g_consumed" ]
  @ [ ("g_stopped", u bool); ("g_valid", u uint) ]

(* The first trace entry's counters as "trace.<field>" windows: after
   the list count, five uints, the overhead float and the oracle bool,
   then five more uints. *)
let trace_entry_fields payload (pos, _) =
  let r = W.reader ~pos payload in
  if W.get_uint r = 0 then Alcotest.fail "the fixture's trace is empty";
  let uints names =
    List.map
      (fun name ->
        let at = r.W.pos in
        ignore (W.get_uint r);
        ("trace." ^ name, (at, r.W.pos - at)))
      names
  in
  let front =
    uints [ "it_sigma"; "it_tracked"; "it_fails"; "it_succs"; "it_clients" ]
  in
  r.W.pos <- r.W.pos + 9;
  front
  @ uints
      [ "it_dispatched"; "it_lost"; "it_rejected"; "it_retried"; "it_quarantined" ]

(* Each layout field's (offset, length) in [payload]: the shortest
   window its codec decodes exactly (every field is self-delimiting). *)
let snapshot_fields payload =
  let n = String.length payload in
  let rec span c pos len =
    if pos + len > n then Alcotest.fail "snapshot layout mirror ran off the end"
    else
      match C.decode c ~pos ~len payload with
      | Ok () -> len
      | Error _ -> span c pos (len + 1)
  in
  let stop, fields =
    List.fold_left
      (fun (pos, acc) (name, c) ->
        let len = span c pos 1 in
        (pos + len, (name, (pos, len)) :: acc))
      (0, []) snapshot_layout
  in
  if stop <> n then Alcotest.fail "snapshot layout mirror does not span the payload";
  fields @ trace_entry_fields payload (List.assoc "trace" fields)

let snapshot_tests =
  [
    Alcotest.test_case "restore: an overlong varint at every payload offset"
      `Slow (fun () ->
        let _, _, payload = snapshot_parts () in
        for at = 0 to String.length payload do
          match
            G.restore_of (G.snapshot_spec ())
              (reseal_snapshot (splice payload at overlong ~drop:0))
          with
          | Ok _ -> Alcotest.failf "offset %d: restored a poisoned snapshot" at
          | Error _ -> ()
        done);
    total ~name:"snapshot: arbitrary bytes" QCheck.string restores;
    total ~name:"snapshot: arbitrary payload behind a valid digest"
      QCheck.string (fun p -> restores (reseal_snapshot p));
    total ~name:"snapshot: mutated payload behind a valid digest" mutations
      (fun ms ->
        let _, _, payload = snapshot_parts () in
        restores (reseal_snapshot (List.fold_left mutate payload ms)));
  ]
  @ List.map
      (fun version ->
        Alcotest.test_case
          (Printf.sprintf "restore: a version-%d snapshot is refused" version)
          `Quick (fun () ->
            let _, _, payload = snapshot_parts () in
            match
              G.restore_of (G.snapshot_spec ())
                (reseal_snapshot ~version payload)
            with
            | Error (Gist.Server.Session.Snapshot_bad_version v)
              when v = version -> ()
            | Error e -> Alcotest.failf "refused as %s" (snapshot_error e)
            | Ok _ -> Alcotest.fail "restored"))
      [ 1; 2; 3 ]
  @ [
    (* A snapshot ends with its gathering pass: budget, pass-1 summary
       (None, one 0 byte, in pass 1), granted, consumed, stopped,
       valid.  Rewrite those counters and re-seal behind a fresh
       digest. *)
    Alcotest.test_case "restore: contradictory gathering counters are refused"
      `Quick (fun () ->
        let _, _, payload = snapshot_parts () in
        match split_varints payload 6 with
        | front, [ budget; 0; granted; consumed; stopped; valid ] ->
          let restore counters =
            G.restore_of (G.snapshot_spec ())
              (reseal_snapshot
                 (front ^ String.concat "" (List.map (C.encode C.uint) counters)))
          in
          (match restore [ budget; 0; granted; consumed; stopped; valid ] with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "unchanged counters: %s" (snapshot_error e));
          List.iter
            (fun (what, counters) ->
              match restore counters with
              | Error (Gist.Server.Session.Snapshot_mismatch _) -> ()
              | Error e -> Alcotest.failf "%s: %s" what (snapshot_error e)
              | Ok _ -> Alcotest.failf "%s: restored" what)
            [
              ( "consumed > granted",
                [ budget; 0; granted; granted + 1; stopped; valid ] );
              ( "granted > budget",
                [ budget; 0; budget + 1; consumed; stopped; valid ] );
              ( "valid > consumed",
                [ budget; 0; granted; consumed; stopped; consumed + 1 ] );
            ]
        | _ -> Alcotest.fail "the fixture's gathering pass is not in pass 1");
    (* Rewrite ledger counters behind a fresh digest; each rewrite
       (with compensating ones where needed) breaks exactly one
       identity, which restore names. *)
    Alcotest.test_case "restore: contradictory ledger counters are refused"
      `Quick (fun () ->
        let _, _, payload = snapshot_parts () in
        let fields = snapshot_fields payload in
        let get name =
          let pos, len = List.assoc name fields in
          Result.get_ok (C.decode C.uint ~pos ~len payload)
        in
        (* [changes] as (field, new value), spliced back to front. *)
        let rewrite changes =
          List.map (fun (name, v) -> (List.assoc name fields, v)) changes
          |> List.sort (fun (a, _) (b, _) -> compare b a)
          |> List.fold_left
               (fun p ((pos, len), v) -> splice p pos (C.encode C.uint v) ~drop:len)
               payload
        in
        let bump names = List.map (fun n -> (n, get n + 1)) names in
        let valid =
          W.get_uint (W.reader ~pos:(fst (List.assoc "ov" fields)) payload)
        in
        List.iter
          (fun (changes, expected) ->
            let what = String.concat "+" (List.map fst changes) in
            match
              G.restore_of (G.snapshot_spec ()) (reseal_snapshot (rewrite changes))
            with
            | Error (Gist.Server.Session.Snapshot_mismatch m) ->
              Alcotest.(check string) what expected m
            | Error e -> Alcotest.failf "%s: %s" what (snapshot_error e)
            | Ok _ -> Alcotest.failf "%s: restored" what)
          [
            (bump [ "it_lost" ], "iteration dispatches are not lost + rejected + valid");
            ( [ ("clients", get "it_dispatched" + 1) ],
              "iteration has more clients than dispatches" );
            ( [ ("fails", valid - get "succs" + 1) ],
              "more fails + successes than valid reports" );
            ( [
                ( "trace.it_lost",
                  get "trace.it_dispatched" - get "trace.it_rejected" + 1 );
              ],
              "a traced iteration lost or rejected more than it dispatched" );
            ( bump [ "trace.it_retried" ],
              "traced retries are not dispatches - clients" );
            ( bump [ "it_rejected"; "it_dispatched" ],
              "rejection reasons do not sum to the rejections" );
          ]);
  ]

(* --- journal and service state --- *)

(* One journal record frame around [payload], digest recomputed. *)
let journal_frame ~kind payload =
  "\xA7"
  ^ C.encode C.uint kind
  ^ C.encode C.uint (String.length payload)
  ^ payload
  ^ int64_le (C.digest ~key:[ 3; kind; 0; 1 ] payload)

let journal_total bytes =
  ignore (Serve.Journal.load bytes);
  ignore (Serve.Journal.corrupt_last_checkpoint ~salt:7 bytes);
  true

(* A journal holding one checkpoint of [state]: recovery decodes it
   and has no tail to replay. *)
let recovers state =
  let j = Serve.Journal.create () in
  Serve.Journal.append j (Serve.Journal.Checkpoint { round = 5; state });
  match Svc.recover ~resolve:G.resolve (Serve.Journal.contents j) with
  | Ok _ | Error _ -> true

let journal_tests =
  [
    Alcotest.test_case "load: a huge record length is a torn tail" `Quick
      (fun () ->
        let j = fixture "journal" in
        (* The first frame: magic, kind, then its length varint. *)
        let r = W.reader ~pos:1 j in
        ignore (W.get_uint r);
        let len_at = r.W.pos in
        ignore (W.get_uint r);
        let poisoned = splice j len_at huge ~drop:(r.W.pos - len_at) in
        Alcotest.(check int) "nothing loads" 0
          (List.length (Serve.Journal.load poisoned));
        Alcotest.(check bool) "no checkpoint to corrupt" true
          (Serve.Journal.corrupt_last_checkpoint ~salt:3 poisoned = None));
    total ~name:"journal: arbitrary bytes" QCheck.string journal_total;
    total ~name:"journal: mutated stream" mutations (fun ms ->
        journal_total (List.fold_left mutate (fixture "journal") ms));
    total ~name:"journal: mutated record behind a valid digest"
      QCheck.(pair (int_bound 5) mutations)
      (fun (kind, ms) ->
        let payload = List.fold_left mutate (fixture "state") ms in
        journal_total (fixture "journal" ^ journal_frame ~kind payload));
  ]
  (* The state starts with its version varint: one byte, 5.  A
     checkpoint of an older version is undecodable, so recovery skips
     it for an older one, and with no older one has nothing to restart
     from. *)
  @ List.map
      (fun version ->
        Alcotest.test_case
          (Printf.sprintf "recover: a version-%d checkpoint is skipped" version)
          `Quick (fun () ->
            let state = fixture "state" in
            Alcotest.(check int) "state version" 5 (Char.code state.[0]);
            let old =
              String.make 1 (Char.chr version)
              ^ String.sub state 1 (String.length state - 1)
            in
            let journal states =
              let j = Serve.Journal.create () in
              List.iteri
                (fun round state ->
                  Serve.Journal.append j
                    (Serve.Journal.Checkpoint { round; state }))
                states;
              Serve.Journal.contents j
            in
            (match Svc.recover ~resolve:G.resolve (journal [ state; old ]) with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "recover: %s" (Svc.rerror_to_string e));
            match Svc.recover ~resolve:G.resolve (journal [ old ]) with
            | Error Svc.No_checkpoint -> ()
            | Error e -> Alcotest.failf "refused as %s" (Svc.rerror_to_string e)
            | Ok _ ->
              Alcotest.failf "recovered from a version-%d checkpoint" version))
      [ 3; 4 ]
  @ [
    total ~name:"state: arbitrary bytes" ~count:100 QCheck.string recovers;
    total ~name:"state: mutated state behind a valid digest" ~count:150
      mutations (fun ms -> recovers (List.fold_left mutate (fixture "state") ms));
  ]

(* --- triage table and the wire primitives --- *)

let triage_decodes bytes =
  match C.decode Serve.Triage.codec bytes with Ok _ | Error _ -> true

(* Every primitive either reads or raises [Short], and the cursor never
   leaves [0, limit]. *)
let wirebuf_total (ops, bytes) =
  let r = W.reader bytes in
  List.for_all
    (fun op ->
      (try
         match op mod 7 with
         | 0 -> ignore (W.byte r)
         | 1 -> ignore (W.get_uint r)
         | 2 -> ignore (W.get_int r)
         | 3 -> ignore (W.get_float r)
         | 4 -> ignore (W.get_string r)
         | 5 -> ignore (W.get_bool r)
         | _ -> ignore (W.get_value r)
       with W.Short -> ());
      r.W.pos >= 0 && r.W.pos <= r.W.limit)
    ops

let primitive_tests =
  [
    Alcotest.test_case "wirebuf: a huge string length keeps the cursor in range"
      `Quick (fun () ->
        let r = W.reader (huge ^ "\001") in
        (match W.get_string r with
         | s -> Alcotest.failf "read %d bytes past the end" (String.length s)
         | exception W.Short -> ());
        Alcotest.(check bool) "cursor in range" true
          (r.W.pos >= 0 && r.W.pos <= r.W.limit));
    Alcotest.test_case "wirebuf: varints past 62 bits are refused" `Quick
      (fun () ->
        List.iter
          (fun bytes ->
            match W.get_uint (W.reader bytes) with
            | n -> Alcotest.failf "decoded %d" n
            | exception W.Short -> ())
          [ overlong; "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" ];
        Alcotest.(check int) "max_int round-trips" max_int
          (W.get_uint (W.reader huge)));
    total ~name:"wirebuf: arbitrary bytes"
      QCheck.(pair (small_list small_nat) string)
      wirebuf_total;
    total ~name:"wirebuf: arbitrary bytes around poison varints"
      QCheck.(pair (small_list small_nat) mutations)
      (fun (ops, ms) -> wirebuf_total (ops, List.fold_left mutate "\001\002\003" ms));
    total ~name:"triage: arbitrary bytes" QCheck.string triage_decodes;
    total ~name:"triage: mutated table" mutations (fun ms ->
        triage_decodes (List.fold_left mutate (fixture "triage") ms));
  ]

let () =
  Alcotest.run "codec"
    [
      ("golden", encoders_reproduce);
      ("golden-roundtrip", roundtrips);
      ("golden-diagnoses", ledger);
      ("golden-costs", costs);
      ("envelope", envelope_tests);
      ("snapshot", snapshot_tests);
      ("journal", journal_tests);
      ("primitives", primitive_tests);
    ]
