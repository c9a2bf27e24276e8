(** Per-function control-flow graph over basic blocks, with the
    dominance structures Gist's instrumentation placement uses. *)

open Ir.Types

type t = {
  func : func;
  graph : Graph.t;
  dom : Dom.t;
  post : Dom.post;
}

val of_func : func -> t

val n_blocks : t -> int
val succs : t -> int -> int list
val preds : t -> int -> int list
val block : t -> int -> block

(** Blocks with no successors (they end in [Ret]). *)
val exit_blocks : t -> int list

(** Instruction-level helpers; a program point is (block, index). *)

val find_iid : t -> iid -> (int * int) option

(** Within a block this is textual order; across blocks, block
    dominance. *)
val instr_strictly_dominates : t -> int * int -> int * int -> bool

(** Ferrante-Ottenstein-Warren control dependence: [.(b)] lists the
    blocks whose branch decides whether [b] executes. *)
val control_deps : t -> int list array

(** Like {!control_deps} but resolved to the deciding branch
    instructions. *)
val controlling_branches : t -> instr list array
