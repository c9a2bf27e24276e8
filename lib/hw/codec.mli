(** Typed binary codecs over {!Wirebuf}: every wire and persisted
    format in the tree (the report envelope, session snapshots, the
    service checkpoint state, the triage table, journal records) is
    described once as a value of this module, and that one description
    is both its encoder and its decoder.

    Decoding is total: {!decode} maps every failure — truncation, a
    bad tag, an oversized count, a refused value — to a typed
    {!error} and never raises.  Two rules make that hold:

    - {b count bound}: a string length or element count is checked
      against the bytes left ([0 <= n <= remaining]) before anything
      is allocated; every element of a list or array takes at least
      one byte, so an honest count always passes;
    - {b framing}: a frame is a header, an 8-byte little-endian digest
      keyed by the header's words, and a payload — running to the end
      of the input ({!frame}) or length-prefixed with the digest after
      it ({!sized_frame}), for streams of concatenated frames.  The
      digest is the only integrity check; nothing else hashes bytes. *)

type error =
  | Truncated  (** the bytes end, or a varint overflows, mid-value *)
  | Bad_count of int  (** an element count larger than the bytes left *)
  | Bad_tag of int  (** a variant tag no case claims *)
  | Bad_magic of int
  | Bad_version of int
  | Bad_digest
  | Trailing of int  (** bytes left over after the value *)
  | Invalid of string  (** the bytes decoded, the format refused the value *)

val error_to_string : error -> string

(** A codec that writes ['w] values and reads ['r] values.  The two
    differ only for formats whose decoded form still needs context to
    become a value (a session snapshot needs its program): those decode
    to a rebuild function. *)
type ('w, 'r) codec

type 'a t = ('a, 'a) codec

(** {1 Running codecs} *)

val put : ('w, _) codec -> Buffer.t -> 'w -> unit
val encode : ('w, _) codec -> 'w -> string

(** [decode c s] reads one value spanning exactly [s.[pos..pos+len-1]]
    (defaults: all of [s]).  Never raises. *)
val decode :
  (_, 'r) codec -> ?pos:int -> ?len:int -> string -> ('r, error) result

(** Abort the decode in progress with [Invalid what]: for record
    constructors and {!conv} functions that find a decoded value
    unacceptable. *)
val invalid : string -> 'a

(** {1 Scalars} *)

val uint : int t  (** LEB128; decoding refuses varints past 62 bits *)

val int : int t  (** zigzag varint *)

val bool : bool t
val float : float t  (** 8 bytes, exact IEEE bits *)

val string : string t
val value : Exec.Value.t t
val byte : int t  (** one raw byte *)

val fixed32 : int t  (** 4-byte little-endian unsigned word *)

(** A list of ints, each stored as the zigzag difference from its
    predecessor (the first from 0): near-sorted ids stay one byte. *)
val deltas : int list t

(** {1 Structure} *)

val list : ('w, 'r) codec -> ('w list, 'r list) codec
val array : ('w, 'r) codec -> ('w array, 'r array) codec
val option : ('w, 'r) codec -> ('w option, 'r option) codec
val pair : ('w1, 'r1) codec -> ('w2, 'r2) codec -> ('w1 * 'w2, 'r1 * 'r2) codec

val triple :
  ('w1, 'r1) codec -> ('w2, 'r2) codec -> ('w3, 'r3) codec ->
  ('w1 * 'w2 * 'w3, 'r1 * 'r2 * 'r3) codec

(** [conv into out c] stores [into x] and reads [out y]. *)
val conv : ('a -> 'w) -> ('r -> 'b) -> ('w, 'r) codec -> ('a, 'b) codec

(** [magic c k]: the constant [k] in [c]'s encoding; any other value
    decodes to [Bad_magic]. *)
val magic : int t -> int -> unit t

(** [version v]: the constant [v] as a varint; any other value decodes
    to [Bad_version]. *)
val version : int -> unit t

(** [k *> c]: the constant [k], then [c]. *)
val ( *> ) : unit t -> ('w, 'r) codec -> ('w, 'r) codec

(** [versioned v c] is [version v *> c]. *)
val versioned : int -> ('w, 'r) codec -> ('w, 'r) codec

(** {2 Variants} — a varint tag, then the case's payload. *)

type ('w, 'r) case

(** [case tag c project inject]: values [project] maps to [Some p]
    are written as [tag] then [p]; reading [tag] reads [c] and
    [inject]s it.  Cases are tried in order when encoding. *)
val case :
  int -> ('pw, 'pr) codec -> ('w -> 'pw option) -> ('pr -> 'r) -> ('w, 'r) case

(** A payload-less case for the constant [v] (compared with [=]). *)
val const : int -> 'a -> ('a, 'a) case

val variant : ('w, 'r) case list -> ('w, 'r) codec

(** {2 Records} — fields in byte order, each a codec and a projection;
    decoding applies the constructor to the decoded fields in order:

    {[
      record (fun a b -> { a; b })
        (fields |+ (uint, fun r -> r.a) |+ (string, fun r -> r.b))
    ]} *)

type ('w, 'c, 'k) fields

val fields : ('w, 'c, 'c) fields

val ( |+ ) :
  ('w, 'c, 'r -> 'k) fields -> ('a, 'r) codec * ('w -> 'a) -> ('w, 'c, 'k) fields

val record : 'c -> ('w, 'c, 'r) fields -> ('w, 'r) codec

(** {1 Frames} *)

(** The 62-bit digest of [s.[pos .. pos+len-1]] (default: from [pos] to
    the end) keyed by [key]: a splitmix-style avalanche over the key
    words, then one multiply-xor step per 32-bit little-endian word of
    the bytes, then the length.  Allocation-free over the bytes. *)
val digest : key:int list -> ?pos:int -> ?len:int -> string -> int

(** A frame layout: its header codec and the digest key the header
    yields. *)
type 'h frame

(** Header, digest, payload to the end of the input. *)
val frame : key:('h -> int list) -> 'h t -> 'h frame

(** Header, varint payload length, payload, digest: frames that are
    concatenated into a stream. *)
val sized_frame : key:('h -> int list) -> 'h t -> 'h frame

(** Append one frame around already-encoded payload bytes. *)
val seal : 'h frame -> Buffer.t -> 'h -> string -> unit

type 'h sealed = {
  header : 'h;
  pos : int;  (** payload start in the source string *)
  len : int;  (** payload length *)
  intact : bool;  (** the stored 8-byte word is exactly the digest *)
}

(** Read one frame at the reader's cursor and advance past it.
    [Error] when the framing itself is broken (bad header, short
    bytes, a length past the end); a digest mismatch inside intact
    framing is [Ok] with [intact = false]. *)
val unseal : 'h frame -> Wirebuf.reader -> ('h sealed, error) result

(** The digest field of bytes {!seal} produced with a {!frame} (not a
    {!sized_frame}), read back without re-hashing the payload.
    @raise Invalid_argument on bytes that hold no such frame. *)
val sealed_digest : 'h frame -> string -> int
