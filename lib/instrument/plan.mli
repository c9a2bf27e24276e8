(** An instrumentation plan: the "binary patch" Gist ships to
    production clients (the paper's prototype uses bsdiff patches, §4).
    Actions fire at the pre-point of an instruction, just before it
    executes.  {!Place.compute} builds the action lists, then
    {!compile}s them into the iid-indexed table {!Runtime} reads on
    every step. *)

open Ir.Types

type action =
  | Pt_stop   (** disable Intel PT (applied before a co-located start) *)
  | Pt_start  (** enable Intel PT *)
  | Wp_arm    (** arm a watchpoint on the address this access will touch *)

type t = {
  actions : (iid, action list) Hashtbl.t;
  tracked : iid list;    (** the slice portion being monitored *)
  wp_targets : iid list; (** tracked memory accesses eligible for watchpoints *)
  table : Bytes.t;       (** iid -> action bits, filled by {!compile} *)
}

val empty : unit -> t

(** Idempotent; keeps stops ordered before starts at a shared point. *)
val add_action : t -> iid -> action -> unit

val actions_at : t -> iid -> action list

(** The action bits of the compiled table: [stop], [start] and [arm]
    for the three actions, [ptw] for a [wp_targets] access (the
    PTWRITE extension's data-packet sites). *)
val stop : int
val start : int
val arm : int
val ptw : int

(** [compile t] is [t] with its table built from [actions] and
    [wp_targets]; placement calls it once, after its last
    {!add_action}. *)
val compile : t -> t

(** [bits t iid]: the compiled action bits at [iid], 0 outside the
    table. *)
val bits : t -> iid -> int

(** Total number of patch points (for reporting). *)
val n_actions : t -> int

(** A stable content digest of the plan (patch points, tracked set,
    watchpoint targets).  Clients echo it in their report envelope so
    the server can reject reports produced under a stale plan. *)
val id : t -> int
