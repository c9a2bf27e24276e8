(** Pretty-printing for IR values, instructions and whole programs. *)

open Types

val binop_name : binop -> string

(** Renders "[iid] kind  ; file:line". *)
val pp_instr : Format.formatter -> instr -> unit

val pp_program : Format.formatter -> program -> unit

(** An instruction kind as its [.gir] text, without iid or location. *)
val kind_to_string : instr_kind -> string
val instr_to_string : instr -> string
