(** Varint wire primitives shared by the binary encodings ({!Pt.Wire}
    ring bytes, and every format described with {!Codec}).

    Writers append to a [Buffer.t].  Readers walk a string with a
    mutable cursor and allocate nothing per scalar read; a read that
    would run past the end raises {!Short} (callers map it to their own
    typed truncation error) — no primitive ever reads out of bounds. *)

exception Short

(** LEB128 varint; the argument must be non-negative. *)
val put_uint : Buffer.t -> int -> unit

(** Zigzag-folded varint: small magnitudes of either sign stay one
    byte. *)
val put_int : Buffer.t -> int -> unit

val put_bool : Buffer.t -> bool -> unit

(** Fixed 8 bytes, little-endian IEEE bits: round-trips exactly. *)
val put_float : Buffer.t -> float -> unit

val put_string : Buffer.t -> string -> unit
val put_value : Buffer.t -> Exec.Value.t -> unit

type reader = { src : string; mutable pos : int; limit : int }

(** [reader ?pos ?limit s] reads [s.[pos .. limit-1]] (defaults: the
    whole string).
    @raise Invalid_argument unless [0 <= pos <= limit <= length s]. *)
val reader : ?pos:int -> ?limit:int -> string -> reader

val eof : reader -> bool

(** One raw byte. @raise Short at the limit. *)
val byte : reader -> int

(** @raise Short on a varint longer than nine bytes or one with bit 62
    set: {!put_uint} writes neither. *)
val get_uint : reader -> int
val get_int : reader -> int
val get_bool : reader -> bool
val get_float : reader -> float
val get_string : reader -> string
val get_value : reader -> Exec.Value.t
