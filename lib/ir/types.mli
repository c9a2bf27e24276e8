(** Core types of the intermediate representation.

    The paper's prototype operates on LLVM IR; this IR exposes the same
    concepts its algorithms need: virtual registers, globals, function
    arguments, calls, explicit memory accesses, branches, and thread
    operations, each carrying source-location metadata so results can
    be reported both in source lines and in IR instructions (Table 1
    reports both). *)

(** A source location. [line = 0] means "no source attribution". *)
type loc = { file : string; line : int }

val no_loc : loc

(** Virtual register name.  Registers are function-local. *)
type reg = string

(** Instruction operands.  There is no operand-level address
    arithmetic: field accesses carry an explicit constant offset. *)
type operand =
  | Reg of reg        (** a virtual register *)
  | Imm of int        (** integer immediate *)
  | Str of string     (** string literal *)
  | Null              (** the null pointer *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

(** Pure computations (the right-hand side of an [Assign]). *)
type expr =
  | Bin of binop * operand * operand
  | Mov of operand
  | Not of operand

(** Unique instruction id, assigned by {!Program.make} in textual
    order.  It doubles as the program counter in the interpreter, in
    failure reports and in Intel PT packets. *)
type iid = int

type instr_kind =
  | Assign of reg * expr
  | Load of reg * operand * int
      (** [Load (dst, base, off)]: [dst <- mem\[base + off\]] *)
  | Store of operand * int * operand
      (** [Store (base, off, v)]: [mem\[base + off\] <- v] *)
  | Load_global of reg * string   (** read a named global cell *)
  | Store_global of string * operand  (** write a named global cell *)
  | Malloc of reg * int           (** allocate a fresh block of n cells *)
  | Free of operand               (** free a heap block (no-op on null) *)
  | Call of reg option * string * operand list
  | Builtin of reg option * string * operand list
      (** intrinsic call; {!Lowered.builtin_op} lists the names *)
  | Jmp of string                 (** unconditional branch to a label *)
  | Branch of operand * string * string
      (** [Branch (cond, then_label, else_label)] *)
  | Ret of operand option
  | Spawn of reg * string * operand list
      (** create a thread running a named routine; yields its handle *)
  | Join of operand               (** block until a thread finishes *)
  | Lock of operand               (** acquire the mutex at an address *)
  | Unlock of operand             (** release the mutex at an address *)
  | Assert of operand * string    (** fail with a message when falsy *)

type instr = {
  iid : iid;      (** unique; 0 until {!Program.make} renumbers *)
  kind : instr_kind;
  loc : loc;
  text : string;  (** source-level text shown in failure sketches *)
}

(** A basic block: straight-line instructions ending in a terminator
    ([Jmp], [Branch] or [Ret]). *)
type block = {
  label : string;
  instrs : instr array;
}

type func = {
  fname : string;
  params : reg list;
  blocks : block array;  (** [blocks.(0)] is the entry block *)
}

(** A named global memory cell with a constant initialiser. *)
type global = { gname : string; init : operand }

(** Where an instruction lives: function, block index, index in block. *)
type position = {
  p_func : string;
  p_block : int;
  p_index : int;
}

type program = {
  globals : global list;
  funcs : func list;
  main : string;
  by_iid : (iid, instr * position) Hashtbl.t;  (** derived index *)
  func_tbl : (string, func) Hashtbl.t;         (** derived index *)
  n_instrs : int;
}

(** Raised by {!Program.make} on malformed programs and by index
    lookups on unknown names/iids. *)
exception Invalid_program of string

(** [invalid fmt ...] raises {!Invalid_program} with a formatted
    message. *)
val invalid : ('a, Format.formatter, unit, 'b) format4 -> 'a
