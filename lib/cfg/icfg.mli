(** Interprocedural CFG extended with thread-creation and join edges:
    the paper's TICFG (§3.1).  A spawn edge is "a callsite with the
    thread start routine as the target"; join edges return from the
    routine's exits to every join site (a deliberate
    overapproximation). *)

open Ir.Types

type node = string * int  (** function name, block index *)

type edge_kind =
  | Intra
  | Call_edge of iid
  | Return_edge of iid
  | Spawn_edge of iid
  | Join_edge of iid

type t = {
  program : program;
  cfgs : (string, Cfg.t) Hashtbl.t;
  succs : (node, (node * edge_kind) list) Hashtbl.t;
  call_sites : (string, iid list) Hashtbl.t;
  spawn_sites : (string, iid list) Hashtbl.t;
}

val build : program -> t

(** @raise Ir.Types.Invalid_program on unknown functions. *)
val cfg_of : t -> string -> Cfg.t

(** Call instructions targeting a function. *)
val call_sites_of : t -> string -> iid list

(** Spawn instructions starting a routine. *)
val spawn_sites_of : t -> string -> iid list

(** All sites (calls and spawns) that bind a function's parameters:
    what the slicer's interprocedural argument flow walks. *)
val binding_sites_of : t -> string -> iid list

(** The [Ret] instructions of a function. *)
val returns_of : t -> string -> instr list

(** Nodes reachable from main's entry over all edge kinds. *)
val reachable_nodes : t -> (node, unit) Hashtbl.t
