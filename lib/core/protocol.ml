(* The fleet wire protocol: a versioned envelope around each client
   report, checked by the server before anything reaches aggregation or
   predictor ranking.  A real Gist deployment ships reports from
   thousands of unreliable endpoints over an unreliable network (paper
   §4 runs "clients" as processes feeding a central server); this layer
   is what lets the AsT loop survive lost, damaged, or out-of-date
   reports instead of silently diagnosing from garbage.

   Validation is layered:
   - transport integrity: protocol version and a digest over the
     encoded report bytes (every field is in the bytes);
   - freshness: the client echoes the digest of the plan it ran under,
     so a report built from a previous iteration's plan is rejected
     (its tracked set and watchpoint rotation no longer match);
   - structure: the client's own PT decoder flagged ring damage;
   - semantics: every statement id the report mentions must exist in
     the program the server is diagnosing. *)

(* Version 3 is the multi-bug service era: the envelope is keyed by
   the diagnosis session (which bug the report belongs to) as well as
   the fleet slot.  Version 2 keyed reports by client slot alone — a
   latent single-bug assumption: once thousands of distinct failures
   are diagnosed concurrently, slot numbers repeat across sessions and
   a mis-routed report must be a typed reject, not a silent
   cross-contamination of another bug's statistics. *)
let version = 3

type reject =
  | Bad_version of int
  | Bad_checksum
  | Wrong_session of { expected : int; got : int }
  | Stale_plan of { expected : int; got : int }
  | Dropped_trace of int  (* a thread's PT ring arrived with no bytes *)
  | Damaged_trace of string
  | Bad_payload of string

(* Stable keys for per-reason counters.  Dropped and damaged traces
   are distinct reasons: fleet-health dashboards must not book ring
   drops (a transport problem) as ring corruption (a client problem). *)
let reject_label = function
  | Bad_version _ -> "bad-version"
  | Bad_checksum -> "bad-checksum"
  | Wrong_session _ -> "wrong-session"
  | Stale_plan _ -> "stale-plan"
  | Dropped_trace _ -> "dropped-trace"
  | Damaged_trace _ -> "damaged-trace"
  | Bad_payload _ -> "bad-payload"

let reject_to_string = function
  | Bad_version v -> Printf.sprintf "unknown protocol version %d" v
  | Bad_checksum -> "checksum mismatch (report damaged in transit)"
  | Wrong_session { expected; got } ->
    Printf.sprintf "report for session %d routed to session %d" got expected
  | Stale_plan { expected; got } ->
    Printf.sprintf "report built under stale plan %#x (current %#x)" got
      expected
  | Dropped_trace tid ->
    Printf.sprintf "dropped PT ring: thread %d shipped no bytes" tid
  | Damaged_trace m -> Printf.sprintf "damaged PT trace: %s" m
  | Bad_payload m -> Printf.sprintf "malformed payload: %s" m

(* ------------------------------------------------------------------ *)
(* Encode: the byte form an envelope takes on the wire.

   Layout: a [Hw.Codec.frame] whose header is [version] and [client]
   as varints, [session] as a fixed 4-byte LE word and [plan_id] as a
   varint, all four keying the 8-byte digest of the report payload
   that follows.  The session field is fixed-width on purpose: a
   varint would make envelope length a function of the session id, and
   deterministic in-transit damage models pick the byte they flip from
   the envelope length — the same report would then draw different
   reject labels in different sessions, breaking the contract that a
   multiplexed diagnosis is bit-identical to its one-shot counterpart
   (whose session id differs).

   {!ingest} reads the payload once, with the [report] codec, and
   then checks the typed report; the codec is the payload's only
   description.

   Encoders write through a reusable per-worker {!arena}
   ([Parallel.Pool] gives each domain its own), so steady-state
   encoding allocates only the final immutable string. *)
module Encode = struct
  module W = Hw.Wirebuf
  module C = Hw.Codec

  type arena = { pbuf : Buffer.t; ebuf : Buffer.t }

  let arena () = { pbuf = Buffer.create 4096; ebuf = Buffer.create 4096 }

  let kind : Exec.Failure.kind C.t =
    C.(
      variant
        [
          const 1 Exec.Failure.Segfault;
          const 2 Exec.Failure.Use_after_free;
          const 3 Exec.Failure.Double_free;
          case 4 string
            (function Exec.Failure.Assert_fail s -> Some s | _ -> None)
            (fun s -> Exec.Failure.Assert_fail s);
          const 5 Exec.Failure.Deadlock;
          const 6 Exec.Failure.Hang;
          const 7 Exec.Failure.Div_by_zero;
          case 8 string
            (function Exec.Failure.Type_error s -> Some s | _ -> None)
            (fun s -> Exec.Failure.Type_error s);
        ])

  let pt_error : (int * Hw.Pt.error) C.t =
    C.(
      pair uint
        (variant
           [
             const 1 Hw.Pt.Empty_stream;
             const 2 Hw.Pt.Truncated;
             case 3 int
               (function Hw.Pt.Bad_target pc -> Some pc | _ -> None)
               (fun pc -> Hw.Pt.Bad_target pc);
             case 4 string
               (function Hw.Pt.Malformed_packet m -> Some m | _ -> None)
               (fun m -> Hw.Pt.Malformed_packet m);
           ]))

  let outcome : Exec.Interp.outcome C.t =
    let failure =
      C.(
        record
          (fun kind pc tid stack message ->
            { Exec.Failure.kind; pc; tid; stack; message })
          (fields
          |+ (kind, fun (f : Exec.Failure.report) -> f.kind)
          |+ (int, fun f -> f.pc)
          |+ (uint, fun f -> f.tid)
          |+ (list string, fun f -> f.stack)
          |+ (string, fun f -> f.message)))
    in
    C.(
      variant
        [
          const 1 Exec.Interp.Success;
          case 2 failure
            (function Exec.Interp.Failed f -> Some f | _ -> None)
            (fun f -> Exec.Interp.Failed f);
        ])

  let signature : Exec.Failure.signature C.t =
    C.(
      record
        (fun s_kind s_pc s_stack -> { Exec.Failure.s_kind; s_pc; s_stack })
        (fields
        |+ (string, fun (s : Exec.Failure.signature) -> s.s_kind)
        |+ (int, fun s -> s.s_pc)
        |+ (list string, fun s -> s.s_stack)))

  let trap : Hw.Watchpoint.trap C.t =
    let rw =
      C.conv
        (fun rw -> rw = Exec.Interp.Write)
        (fun w -> if w then Exec.Interp.Write else Exec.Interp.Read)
        C.bool
    in
    C.(
      record
        (fun w_seq w_tid w_iid w_addr w_rw w_value ->
          { Hw.Watchpoint.w_seq; w_tid; w_iid; w_addr; w_rw; w_value })
        (fields
        |+ (uint, fun (t : Hw.Watchpoint.trap) -> t.w_seq)
        |+ (uint, fun t -> t.w_tid)
        |+ (int, fun t -> t.w_iid)
        |+ (int, fun t -> t.w_addr)
        |+ (rw, fun t -> t.w_rw)
        |+ (value, fun t -> t.w_value)))

  let counters : Exec.Cost.t C.t =
    C.(
      record
        (fun instrs branches mem_accesses sched_switches pt_packets pt_bytes
             pt_toggles wp_traps wp_arms rr_events sw_trace_events ->
          {
            Exec.Cost.instrs;
            branches;
            mem_accesses;
            sched_switches;
            pt_packets;
            pt_bytes;
            pt_toggles;
            wp_traps;
            wp_arms;
            rr_events;
            sw_trace_events;
          })
        (fields
        |+ (uint, fun (c : Exec.Cost.t) -> c.instrs)
        |+ (uint, fun c -> c.branches)
        |+ (uint, fun c -> c.mem_accesses)
        |+ (uint, fun c -> c.sched_switches)
        |+ (uint, fun c -> c.pt_packets)
        |+ (uint, fun c -> c.pt_bytes)
        |+ (uint, fun c -> c.pt_toggles)
        |+ (uint, fun c -> c.wp_traps)
        |+ (uint, fun c -> c.wp_arms)
        |+ (uint, fun c -> c.rr_events)
        |+ (uint, fun c -> c.sw_trace_events)))

  (* Executed statements are delta-encoded per thread -- control flow
     is local, so deltas are mostly one byte. *)
  let report : Client.report C.t =
    C.(
      record
        (fun r_seed r_pt_errors r_outcome r_signature r_executed r_branches
             r_traps r_counters r_overhead_pct r_base_cycles r_extra_cycles
             r_steps ->
          {
            Client.r_seed;
            r_outcome;
            r_signature;
            r_executed;
            r_branches;
            r_traps;
            r_counters;
            r_overhead_pct;
            r_base_cycles;
            r_extra_cycles;
            r_steps;
            r_pt_errors;
          })
        (fields
        |+ (int, fun (r : Client.report) -> r.r_seed)
        |+ (list pt_error, fun r -> r.r_pt_errors)
        |+ (outcome, fun r -> r.r_outcome)
        |+ (option signature, fun r -> r.r_signature)
        |+ (list (pair uint deltas), fun r -> r.r_executed)
        |+ (list (pair int bool), fun r -> r.r_branches)
        |+ (list trap, fun r -> r.r_traps)
        |+ (counters, fun r -> r.r_counters)
        |+ (float, fun r -> r.r_overhead_pct)
        |+ (float, fun r -> r.r_base_cycles)
        |+ (float, fun r -> r.r_extra_cycles)
        |+ (uint, fun r -> r.r_steps)))

  (* The envelope frame: version, client slot, the fixed-width session
     word and the plan id, all four keying the digest. *)
  let envelope =
    C.frame
      ~key:(fun (client, session, plan_id) -> [ version; client; session; plan_id ])
      (C.versioned version C.(triple uint fixed32 uint))

  (* [encode a ~client ~plan_id report] seals a report into its wire
     bytes.  [a]'s buffers are reused across calls: the only per-call
     allocation that survives is the returned string. *)
  let encode a ?(session = 0) ~client ~plan_id rep =
    Buffer.clear a.pbuf;
    C.put report a.pbuf rep;
    Buffer.clear a.ebuf;
    C.seal envelope a.ebuf (client, session, plan_id) (Buffer.contents a.pbuf);
    Buffer.contents a.ebuf

  (* The digest field of an already-encoded envelope, re-read from the
     bytes (it was computed once by {!encode}): what a crash-only
     journal folds into its accepted-report audit without paying a
     second payload walk. *)
  let wire_digest bytes = C.sealed_digest envelope bytes

  let truncated = Bad_payload "truncated envelope"

  (* The typed checks over a decoded report, in reject priority order:
     the client's first PT decode fault (dropped/damaged-trace beats
     bad-payload), then statement ids outside the program in executed
     statements, branch outcomes and watchpoint traps. *)
  let validate ~n_instrs (r : Client.report) =
    let outside iid = iid < 0 || iid >= n_instrs in
    match r.r_pt_errors with
    | (tid, Hw.Pt.Empty_stream) :: _ -> Error (Dropped_trace tid)
    | (tid, e) :: _ ->
      Error
        (Damaged_trace
           (Printf.sprintf "thread %d: %s" tid (Hw.Pt.error_to_string e)))
    | [] ->
      if List.exists (fun (_, iids) -> List.exists outside iids) r.r_executed
      then Error (Bad_payload "executed statement outside the program")
      else if List.exists (fun (iid, _) -> outside iid) r.r_branches then
        Error (Bad_payload "branch outcome on a statement outside the program")
      else if
        List.exists (fun (t : Hw.Watchpoint.trap) -> outside t.w_iid) r.r_traps
      then
        Error (Bad_payload "watchpoint trap on a statement outside the program")
      else Ok r

  (* Every validation layer, in order: version, digest, routing,
     freshness, then one decode of the payload and the typed checks.
     Routing (session) is checked after integrity but before
     freshness: a mis-routed report's plan digest belongs to another
     session's iteration history, so comparing it against [plan_id]
     first would book routing faults as staleness. *)
  let ingest ?(session = 0) ~n_instrs ~plan_id bytes =
    match C.unseal envelope (W.reader bytes) with
    | Error (C.Bad_version v) -> Error (Bad_version v)
    | Error _ -> Error truncated
    | Ok { C.intact = false; _ } -> Error Bad_checksum
    | Ok { C.header = _, got_session, got_plan; pos; _ } ->
      if got_session <> session then
        Error (Wrong_session { expected = session; got = got_session })
      else if got_plan <> plan_id then
        Error (Stale_plan { expected = plan_id; got = got_plan })
      else (
        match C.decode report ~pos bytes with
        | Ok r -> validate ~n_instrs r
        | Error (C.Trailing _) -> Error (Bad_payload "trailing envelope bytes")
        | Error _ -> Error truncated)
end
