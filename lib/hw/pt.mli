(** An Intel Processor Trace simulator.

    Like the real feature (paper §3.2.2, §6), it records only control
    flow — conditional-branch outcomes as TNT bits and return targets
    as TIP packets, delimited by PGE/PGD when tracing is toggled — in
    per-thread streams with {e no order across threads} (the per-core
    partial-order limitation Gist compensates with watchpoints), with
    no data values, and with byte-accounted trace volume feeding the
    cost model.

    A ring has one form, bytes: each per-thread stream appends every
    packet's {!Wire} bytes to its ring as it records (real PT writes
    into a ring of physical pages), so recording allocates nothing per
    packet.  {!wire_of} returns the ring.

    The trace has one reader, {!decode}: the byte codec, then a walk
    that reconstructs the executed instruction sequence between each
    PGE/PGD pair by re-walking the program, consuming one TNT bit per
    conditional branch and one TIP per return.  The walk runs on the
    lowered successor table ([Ir.Lowered.l_dsteps], memoised via
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

(** The tids that have a stream, ascending. *)
val all_tids : recorder -> int list

(** Typed decode faults for damaged streams, shared by the byte-level
    ring codec ({!Wire}) and the control-flow walk.  Crash truncation
    is not an error ({!finish} PGD-terminates a crashed stream); a
    missing terminator can only mean the ring itself lost its tail. *)
type error =
  | Empty_stream
      (** the ring arrived with no bytes at all — a {e dropped} ring,
          distinct from a damaged one so fleet-health counters don't
          book drops as corruption.  A well-formed ring with no
          packets (a thread that never enabled tracing) is clean. *)
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
    delta-encode against the previous PTW in the stream.  The
    recorder and {!encode} share one writer, so the layout is written
    in one place. *)
module Wire : sig
  (** The bytes the recorder would write for [packets]. *)
  val encode : packet list -> string

  (** [decode bytes] never raises: a damaged ring yields the clean
      packet prefix plus a typed error.  [""] is [Empty_stream]; a
      ring cut mid-packet or ending short of the promised count is
      [Truncated]; an unknown tag or trailing bytes are
      [Malformed_packet]. *)
  val decode : string -> packet list * error option
end

(** One thread's ring: the bytes its stream recorded. *)
val wire_of : recorder -> int -> string

(** [Wire.decode (wire_of r tid)]'s packets: a test seam. *)
val packets_of : recorder -> int -> packet list

type decoded = {
  d_iids : iid list;              (** executed instructions, in order *)
  d_branches : (iid * bool) list; (** branch outcomes, in order *)
  d_data : ptw list;              (** PTWRITE data packets, in TSC order *)
}

(** [decode program bytes] decodes one thread's ring against the
    program: {!Wire.decode}, then the control-flow walk.  It never
    raises: a damaged ring yields the clean decoded prefix plus a
    typed error, the byte codec's winning over the walk's.  Zero bytes
    is the only [Empty_stream]; a well-formed ring with no packets
    decodes clean. *)
val decode : program -> string -> decoded * error option
