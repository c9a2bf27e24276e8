(** Damage models for the fleet fault injector: in-ring harm to PT
    packet streams and watchpoint logs, sealed into the report as-is
    and caught by the server's structural validation.  Pure functions
    of (salt, input). *)

(** Damage one packet structurally (out-of-range transfer target,
    misplaced PGE/TIP). *)
val corrupt_packets :
  salt:int -> n_instrs:int -> Hw.Pt.packet list -> Hw.Pt.packet list

(** Point one trap at a statement beyond the program. *)
val corrupt_traps :
  salt:int -> n_instrs:int -> Hw.Watchpoint.trap list ->
  Hw.Watchpoint.trap list

(** Whether a [Wp_corrupt] hit is in-transit (checksum-caught) rather
    than in-ring (semantically caught). *)
val wp_corrupt_in_transit : salt:int -> bool

(** Cut an encoded PT ring ([Hw.Pt.Wire]) to a non-empty strict byte
    prefix.  The ring's count header makes the loss detectable: the
    decoder reports [Truncated], never [Empty_stream]. *)
val truncate_wire : salt:int -> string -> string

(** Damage one packet through the ring encoding: decode, corrupt one
    packet structurally ({!corrupt_packets}), re-encode. *)
val corrupt_wire_packets : salt:int -> n_instrs:int -> string -> string

(** In-transit damage: flip one bit of one byte of a sealed envelope
    (caught by the envelope digest). *)
val flip_wire_byte : salt:int -> string -> string
