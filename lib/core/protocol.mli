(** The fleet wire protocol: a versioned, checksummed envelope around
    each client report, validated by the server before anything reaches
    aggregation or predictor ranking.

    Layers, checked in order: protocol version; a digest over the
    encoded report bytes (transit integrity); the diagnosis session
    the report is routed to; the plan
    digest the client echoes back (freshness — a report built under a
    previous iteration's plan is useless because its tracked set and
    watchpoint rotation no longer match); the client-side PT decoder's
    typed damage flags (structure); and statement-id range checks
    (semantics). *)

(** Current protocol version (3: the multi-bug service era — the
    envelope is keyed by diagnosis session as well as fleet slot, so a
    server multiplexing many concurrent bugs rejects mis-routed
    reports instead of silently folding them into another bug's
    statistics). *)
val version : int

(** Why a report was refused.  A rejected report never reaches
    predictor ranking. *)
type reject =
  | Bad_version of int
  | Bad_checksum
  | Wrong_session of { expected : int; got : int }
      (** routed to the wrong diagnosis session — checked after
          integrity, before freshness *)
  | Stale_plan of { expected : int; got : int }
  | Dropped_trace of int
      (** a thread's PT ring arrived with no bytes at all — a
          transport drop, deliberately distinct from [Damaged_trace]
          so fleet-health counters don't book drops as corruption *)
  | Damaged_trace of string  (** client-side PT decode fault *)
  | Bad_payload of string
      (** statement id outside the program, or a payload the report
          codec cannot read *)

(** Stable key for per-reason counters ("bad-checksum", ...). *)
val reject_label : reject -> string

val reject_to_string : reject -> string

(** The byte form an envelope takes on the wire: varint [version] and
    [client], a fixed 4-byte LE [session] word (fixed-width so the
    envelope's length — and therefore which byte a deterministic
    in-transit damage model flips — never depends on the session id),
    a varint [plan_id], an 8-byte LE digest, then the varint-packed
    report payload with statement ids delta-encoded.

    The envelope is a {!Hw.Codec.frame} around the {!Encode.report}
    payload, and that codec is the payload's only description:
    {!Encode.ingest} decodes it once, then validates the typed
    report. *)
module Encode : sig
  (** Reusable encode scratch; give each [Parallel.Pool] worker its
      own.  Buffers grow to the fleet's largest report and stay
      there — steady-state encoding allocates only the returned
      string. *)
  type arena

  val arena : unit -> arena

  (** [encode a ~client ~plan_id report] seals a report into its wire
      bytes (header, digest, payload).  [session] defaults to 0. *)
  val encode :
    arena -> ?session:int -> client:int -> plan_id:int -> Client.report ->
    string

  (** [ingest ~n_instrs ~plan_id bytes] runs every validation layer in
      priority order: version, digest, session, plan; then one decode
      of the payload with {!report} and typed checks of the decoded
      report (the first PT decode fault, then statement ids in
      executed statements, branch outcomes and watchpoint traps).
      Never raises — arbitrary bytes yield a [reject]; a payload the
      codec cannot read behind a valid digest is
      [Bad_payload "truncated envelope"] (or ["trailing envelope
      bytes"]). *)
  val ingest :
    ?session:int ->
    n_instrs:int -> plan_id:int -> string -> (Client.report, reject) result

  (** The report payload codec (the bytes {!encode} seals inside an
      envelope); session snapshots embed reports with it. *)
  val report : Client.report Hw.Codec.t

  (** Re-read the digest field of an envelope {!encode} produced,
      without walking the payload.
      @raise Invalid_argument on bytes that hold no envelope header. *)
  val wire_digest : string -> int
end
