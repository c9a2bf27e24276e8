(** The service's write-ahead journal: every input and scheduler
    decision that cannot be re-derived — submissions whatever their
    fate, drain requests, the per-round audit digest, completions
    handed to the caller — plus periodic full-state checkpoints, as
    self-framed, checksummed records.

    Recovery contract: a crash can tear the tail of the byte stream
    (a partially flushed record) and can damage any record in place
    (bit rot, a corrupted checkpoint).  {!load} is built for both —
    structural breakage truncates (everything before the tear is
    kept), while a checksum failure inside intact framing yields a
    {!entry.Damaged} marker and keeps going, so a corrupted checkpoint
    falls back to an older one instead of amputating the journal at
    that point.

    Records are {!Hw.Codec.sized_frame}s: magic byte and kind, the
    length-prefixed payload, then its digest keyed by the kind.  Kind
    1 (the pre-triage submission record) is retired: such a frame
    loads as [Damaged "unknown record kind"]. *)

type record =
  | Round of { round : int; digest : int }
      (** one scheduler round completed; [digest] folds the served
          sessions' audit state — recovery compares it to detect
          divergence *)
  | Completed of { id : int; digest : int }
      (** ticket [id]'s diagnosis left the service; [digest] is the
          diagnosis signature the recovery audit checks *)
  | Checkpoint of { round : int; state : string }
      (** full service snapshot after [round]; [state] is
          {!Service}'s own codec output *)
  | Submitted of { id : int; name : string; fp : int; disp : int }
      (** one submission and its admission decision (kind 5), whether
          or not the service triages: the fingerprint ([0] without
          triage) and the disposition — fresh-lane ticket,
          recurrence-lane ticket, coalesced, shed, or busy-rejected
          ({!Service} owns the encoding).  Refusals are journaled too,
          so replay reproduces ticket ids exactly.  The payload carries
          its own version byte so the disposition vocabulary can grow
          without a journal-wide bump; replay re-derives the decision
          through the real [submit] and audits it against this record *)
  | Drained of { round : int }
      (** the service stopped admitting after [round] (kind 6); replay
          re-applies the drain at the same point of the record stream,
          so later refusals replay as refusals *)

(** What {!load} recovered a frame into. *)
type entry =
  | Rec of record
  | Damaged of { kind : int; reason : string }
      (** framing intact, content refused (checksum or decode) *)

(** An append-only in-memory journal; the service owns one and the
    caller decides when (and whether) its bytes reach a file. *)
type t

val create : unit -> t

val append : t -> record -> unit

(** Drop every record older than the second-newest checkpoint.  The
    newest checkpoint is what recovery wants; the one before it is the
    fallback when the newest arrives corrupted; nothing earlier can
    ever be read again, and on a long-running service the dead prefix
    is unbounded memory.  Safe on completions because a checkpoint is
    only written once prior completions were harvested.  No-op with
    fewer than two checkpoints. *)
val compact : t -> unit

(** Every byte appended so far.  Between compactions, a prefix of a
    later [contents] call's result — the crash model is "any prefix
    of the bytes as they stood at the kill". *)
val contents : t -> string

(** Decode a byte stream.  Never raises: a torn tail truncates, a
    damaged record inside intact framing becomes {!entry.Damaged}. *)
val load : string -> entry list

(** {2 Files} *)

val save_file : string -> string -> unit

(** {2 Chaos helpers — deterministic damage for the fault harness} *)

(** Tear [n] bytes off the tail (a crash mid-write). *)
val tear : n:int -> string -> string

(** Flip one byte inside the newest checkpoint record's payload —
    framing stays intact, so {!load} reports it [Damaged] and recovery
    must fall back to the previous checkpoint.  [None] when the stream
    holds no checkpoint. *)
val corrupt_last_checkpoint : salt:int -> string -> string option
