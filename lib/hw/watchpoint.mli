(** Hardware watchpoints: x86 exposes four debug registers (DR0-DR3,
    paper §3.2.3).  Traps record a globally sequenced access —
    watchpoints are Gist's only source of {e total} cross-thread order
    and of data values (Intel PT provides neither). *)

open Ir.Types

type trap = {
  w_seq : int;           (** global order among traps *)
  w_tid : int;
  w_iid : iid;           (** the accessing statement (the trap pc) *)
  w_addr : int;
  w_rw : Exec.Interp.rw;
  w_value : Exec.Value.t;
}

type t

(** [create ?capacity counters]: [capacity] defaults to 4 (the x86
    debug-register budget); arms and traps account into [counters]. *)
val create : ?capacity:int -> Exec.Cost.t -> t

val free_slots : t -> int

(** [arm t addr] is false when out of slots or already watching
    [addr]. *)
val arm : t -> int -> bool

(** The interpreter's [mem_access] hook: records a trap when [addr]
    is watched. *)
val on_access :
  t -> tid:int -> iid:iid -> addr:int -> rw:Exec.Interp.rw ->
  value:Exec.Value.t -> unit

(** Traps in global order. *)
val traps : t -> trap list
