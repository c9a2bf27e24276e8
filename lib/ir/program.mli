(** Program construction, validation and indexing. *)

open Types

(** [make ?globals ~main funcs] validates the functions (non-empty
    blocks, unique labels, resolvable branch targets / callees /
    globals, a terminator closing every block), assigns fresh iids in
    textual order, and builds the derived indexes.

    @raise Invalid_program on any structural error. *)
val make : ?globals:global list -> main:string -> func list -> program

(** Lookup helpers; all raise {!Types.Invalid_program} on unknown keys. *)

val find_func : program -> string -> func
val instr_at : program -> iid -> instr
val position_of : program -> iid -> position
val loc_of : program -> iid -> loc

(** All instructions of a function / program, in textual order. *)

val instrs_of_func : func -> instr list
val all_instrs : program -> instr list

(** Number of distinct source lines spanned by a set of iids: the
    "source LOC" metric of Table 1. *)
val source_loc_count : program -> iid list -> int

(** Operands an instruction reads (labels excluded). *)
val uses : instr -> operand list

(** The register an instruction defines, if any. *)
val def : instr -> reg option

(** Loads and stores (heap or global); the statements eligible for
    hardware watchpoints. *)
val is_memory_access : instr -> bool
