(* A small construction DSL: bug programs in [Bugbase] read almost like
   the C excerpts in the paper's figures. Instructions are created with
   iid 0; [Program.make] renumbers them. *)

open Types

let instr ~file ?(line = 0) ?(text = "") kind =
  { iid = 0; kind; loc = { file; line }; text }

let block label instrs =
  { label; instrs = Array.of_list instrs }

let func name ?(params = []) blocks =
  { fname = name; params; blocks = Array.of_list blocks }

let global gname = { gname; init = Imm 0 }

(* Operand shorthands. *)
let r x = Reg x
let im n = Imm n

(* Expression shorthands. *)
let ( +% ) a b = Bin (Add, a, b)
let ( -% ) a b = Bin (Sub, a, b)
let ( *% ) a b = Bin (Mul, a, b)
let ( /% ) a b = Bin (Div, a, b)
let ( =% ) a b = Bin (Eq, a, b)
let ( <>% ) a b = Bin (Ne, a, b)
let ( <% ) a b = Bin (Lt, a, b)
let ( <=% ) a b = Bin (Le, a, b)
let ( >% ) a b = Bin (Gt, a, b)
let ( >=% ) a b = Bin (Ge, a, b)
let ( &&% ) a b = Bin (And, a, b)
let ( ||% ) a b = Bin (Or, a, b)

(* A per-source-file instruction factory. Typical use:

     let i = Builder.file "pbzip2.c" in
     i 45 "f->mut = NULL;" (Store (r "f", 1, Null))
*)
let file f = fun line text kind -> instr ~file:f ~line ~text kind
