(** An Intel Processor Trace simulator.

    Like the real feature (paper §3.2.2, §6), it records only control
    flow — conditional-branch outcomes as TNT bits and return targets
    as TIP packets, delimited by PGE/PGD when tracing is toggled — in
    per-thread streams with {e no order across threads} (the per-core
    partial-order limitation Gist compensates with watchpoints), with
    no data values, and with byte-accounted trace volume feeding the
    cost model.

    Per-thread streams are packed: packets append into a growable
    array (real PT writes into a ring of physical pages) and pending
    TNT bits fill a fixed 8-slot buffer, so recording does no list
    consing; {!packets_of} still returns the oldest-first packet list.

    The decoder reconstructs the executed instruction sequence between
    each PGE/PGD pair by re-walking the program, consuming one TNT bit
    per conditional branch and one TIP per return.  The walk runs on
    the lowered successor table ([Ir.Lowered.l_dsteps], memoised via
    [Analysis.Cache.lowered]) — one array load per reconstructed
    instruction. *)

open Ir.Types

(** A PTWRITE-style data packet: the hardware extension the paper's §6
    proposes to eliminate watchpoints.  The TSC payload gives data
    packets a global order across per-thread streams. *)
type ptw = {
  p_tsc : int;
  p_iid : iid;
  p_addr : int;
  p_write : bool;
  p_value : Exec.Value.t;
}

type packet =
  | PGE of iid  (** trace enabled; payload: the first traced pc *)
  | PGD of iid
      (** trace disabled; payload: the disable pc.  [-1] marks a
          crash-truncated stream (carries the FUP-style last pc noted
          via {!note_pc}), [-2] a clean thread exit. *)
  | TNT of bool list  (** up to 8 branch outcomes, oldest first *)
  | TIP of iid        (** return target; 0 = thread exit *)
  | PTW of ptw        (** extension: a data packet (address + value + TSC) *)

type recorder

(** [create counters] — trace volume and toggles account into
    [counters].  Threads are identified by non-negative tids, dense
    from 0 as the interpreter hands them out; a thread's stream is
    created by the first call that names it. *)
val create : Exec.Cost.t -> recorder

val enabled : recorder -> int -> bool

(** [enable r ~tid ~pc] starts tracing thread [tid]; idempotent. *)
val enable : recorder -> tid:int -> pc:iid -> unit

(** [disable r ~tid ~pc] stops tracing; idempotent. *)
val disable : recorder -> tid:int -> pc:iid -> unit

(** Track the current pc of an enabled stream so a crash-time flush
    emits it (like the FUP accompanying a real PGD). *)
val note_pc : recorder -> tid:int -> pc:iid -> unit

val on_branch : recorder -> tid:int -> taken:bool -> unit

(** Extension: emit a PTWRITE data packet for an instrumented access
    (only while the stream is tracing). *)
val on_data :
  recorder -> tid:int -> iid:iid -> addr:int -> rw:Exec.Interp.rw ->
  value:Exec.Value.t -> unit

(** [on_ret r ~tid ~resume]: [resume = None] is a thread exit and
    closes the stream. *)
val on_ret : recorder -> tid:int -> resume:iid option -> unit

(** Close any stream still tracing (e.g. the run crashed). *)
val finish : recorder -> unit

val packets_of : recorder -> int -> packet list

(** The tids that have a stream, ascending. *)
val all_tids : recorder -> int list

(** Typed decode faults for damaged streams, shared by the byte-level
    ring codec ({!Wire}) and the control-flow walk.  Crash truncation
    is not an error ({!finish} PGD-terminates a crashed stream); a
    missing terminator can only mean the ring itself lost its tail. *)
type error =
  | Empty_stream
      (** the ring arrived with no bytes / no packets at all — a
          {e dropped} ring (or a thread that never enabled tracing),
          distinct from a damaged one so fleet-health counters don't
          book drops as corruption *)
  | Truncated                   (** stream does not end with a PGD *)
  | Bad_target of int           (** transfer target outside the program *)
  | Malformed_packet of string

val error_to_string : error -> string

(** The binary ring representation: what real PT writes into its ring
    of physical pages, and the layer the fleet's tamper models damage.
    Packets are varint-packed and iid-delta-encoded.

    Layout: one magic byte, a varint packet count, then packets.  Tag
    bytes: [0x01] PGE, [0x02] PGD, [0x04] TIP, [0x05] PTW, [0x10|n] an
    n-bit TNT ([n] in 1..8) followed by one outcome-mask byte.  All
    iid payloads share one zigzag delta chain; PTW timestamps
    delta-encode against the previous PTW in the stream. *)
module Wire : sig
  val magic : int

  val encode : packet list -> string

  (** [decode bytes] never raises: a damaged ring yields the clean
      packet prefix plus a typed error.  [""] is [Empty_stream]; a
      ring cut mid-packet or ending short of the promised count is
      [Truncated]; an unknown tag or trailing bytes are
      [Malformed_packet]. *)
  val decode : string -> packet list * error option
end

(** One thread's ring as bytes, encoded straight from the packed
    packet array (no intermediate packet list). *)
val wire_of : recorder -> int -> string

type decoded = {
  d_iids : iid list;              (** executed instructions, in order *)
  d_branches : (iid * bool) list; (** branch outcomes, in order *)
  d_data : ptw list;              (** PTWRITE data packets, in TSC order *)
}

exception Malformed of string

(** [decode_checked program packets] decodes as much of the stream as
    is structurally sound: a damaged stream yields the clean decoded
    prefix plus a typed error — never an out-of-bounds access, never
    an exception.  [[]] decodes to the empty trace with
    [Some Empty_stream]: the decoder cannot tell a never-enabled
    stream from a dropped ring, so it reports the fact and lets the
    caller classify it. *)
val decode_checked : program -> packet list -> decoded * error option

(** Decode one thread's packet stream against the program.
    [Empty_stream] is benign here (an empty trace, not a fault).
    @raise Malformed on a damaged stream. *)
val decode : program -> packet list -> decoded

(** Decode every stream of a recorder, by thread id. *)
val decode_all : recorder -> program -> (int * decoded) list
