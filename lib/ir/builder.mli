(** A small construction DSL: bug programs read almost like the C
    excerpts in the paper's figures.  Instructions are created with
    iid 0; {!Program.make} renumbers them. *)

open Types

val instr : file:string -> ?line:int -> ?text:string -> instr_kind -> instr
val block : string -> instr list -> block
val func : string -> ?params:reg list -> block list -> func

(** A global initialised to [Imm 0]. *)
val global : string -> global

(** Operand shorthands. *)

(** [r x] is the register operand [Reg x]. *)
val r : reg -> operand

(** [im n] is the immediate operand [Imm n]. *)
val im : int -> operand

(** Expression shorthands: [a +% b], [a <% b], ... build {!Types.expr}
    values from operands. *)

val ( +% ) : operand -> operand -> expr
val ( -% ) : operand -> operand -> expr
val ( *% ) : operand -> operand -> expr
val ( /% ) : operand -> operand -> expr
val ( =% ) : operand -> operand -> expr
val ( <>% ) : operand -> operand -> expr
val ( <% ) : operand -> operand -> expr
val ( <=% ) : operand -> operand -> expr
val ( >% ) : operand -> operand -> expr
val ( >=% ) : operand -> operand -> expr
val ( &&% ) : operand -> operand -> expr
val ( ||% ) : operand -> operand -> expr

(** [file f] is a per-source-file instruction factory:
    [let i = Builder.file "pbzip2.c" in
     i 45 "f->mut = NULL;" (Store (r "f", 1, Null))]. *)
val file : string -> int -> string -> instr_kind -> instr
