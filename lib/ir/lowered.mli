(** The lowered execution form: every name in the IR resolved exactly
    once, so the interpreter and the PT decoder run on integers.

    [Program.make] yields a nominal program (string registers, label
    jump targets, named callees/globals/builtins).  {!lower} compiles
    it into an interned form: registers become dense per-function
    slots, labels become block indices, callees and globals become
    table indices, builtins become an opcode variant, and the
    scheduler's per-instruction predicates are precomputed.  Each
    lowered instruction keeps its original {!Types.instr}, so hooks,
    failure reports and sketches are unchanged.

    Lowering is deterministic and pure; [Analysis.Cache.lowered]
    memoises it per program (keyed by physical identity, like the ICFG
    cache), so every run after the first reuses the compiled form. *)

open Types

(** Name resolution failed at load time (unknown label, callee, global
    or builtin).  Unreachable for programs built by [Program.make],
    which validates; hand-assembled [program] values fail here instead
    of crashing mid-run. *)
exception Lower_error of string

type lop =
  | LReg of int   (** register slot *)
  | LImm of int
  | LStr of string
  | LNull

type lexpr =
  | LBin of binop * lop * lop
  | LMov of lop
  | LNot of lop

(** One constructor per builtin name {!Program.make} accepts. *)
type builtin_op =
  | B_print
  | B_print_int
  | B_strlen
  | B_str_char
  | B_str_concat
  | B_atoi
  | B_yield
  | B_sleep
  | B_input_len
  | B_abs
  | B_min
  | B_max

type lkind =
  | LAssign of int * lexpr
  | LLoad of int * lop * int
  | LStore of lop * int * lop
  | LLoad_global of int * int          (** dst slot, global index *)
  | LStore_global of int * lop         (** global index, value *)
  | LMalloc of int * int
  | LFree of lop
  | LCall of int option * int * lop array  (** dst slot, func index, args *)
  | LBuiltin of int option * builtin_op * string * lop array
      (** the name rides along only for crash messages *)
  | LJmp of int                        (** block index *)
  | LBranch of lop * int * int         (** cond, then block, else block *)
  | LRet of lop option
  | LSpawn of int * int * lop array    (** dst slot, func index, args *)
  | LJoin of lop
  | LLock of lop
  | LUnlock of lop
  | LAssert of lop * string

type linstr = {
  li_iid : iid;
  li_kind : lkind;
  li_instr : instr;       (** original form, for hooks and reports *)
  li_interesting : bool;  (** scheduling point (shared access / sync)? *)
  li_yield : bool;        (** yield/sleep builtin? *)
}

type lfunc = {
  lf_index : int;
  lf_name : string;
  lf_params : int array;        (** parameter slots, in declaration order *)
  lf_nslots : int;
  lf_slot_names : string array; (** slot -> register name *)
  lf_blocks : linstr array array;      (** [lf_blocks.(0)] is the entry *)
}

(** Control-flow successor of one instruction: the PT decoder re-walks
    a trace with one array load per instruction instead of a by-iid
    Hashtbl probe plus a label scan. *)
type dstep =
  | D_jump of iid           (** unconditional: first iid of the target *)
  | D_branch of iid * iid   (** first iids of the then/else blocks *)
  | D_call of iid           (** callee entry iid *)
  | D_ret
  | D_fall of iid           (** straight-line: next instruction *)
  | D_stop                  (** straight-line at block end (malformed) *)

type t = {
  l_program : program;
  l_funcs : lfunc array;
  l_func_index : (string, int) Hashtbl.t;
  l_main : int;
  l_globals : global array;  (** in [program.globals] order *)
  l_dsteps : dstep array;    (** indexed by iid; slot 0 unused *)
  l_instrs : instr array;    (** indexed by iid; original instructions *)
}

(** Compile [program].  Raises {!Lower_error} on unresolvable names
    (impossible for validated programs). *)
val lower : program -> t
