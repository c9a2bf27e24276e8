(* The lowered execution form: compile the IR once, run it fast
   everywhere.

   [Program.make] produces a validated but *nominal* program: registers
   are strings, jump targets are labels, callees and globals are names,
   and builtins are identified by string.  The interpreter used to
   re-resolve all of those on every instruction — a Hashtbl probe per
   register read, an O(blocks) scan per goto, a string comparison chain
   per builtin.  Lowering resolves every name exactly once:

   - registers   -> dense integer slots per function (frames become
                    [Value.t array] instead of string Hashtbls);
   - labels      -> block indices ([LJmp]/[LBranch] carry ints);
   - callees     -> indices into the function table ([LCall]/[LSpawn]);
   - globals     -> indices into the global table;
   - builtins    -> an opcode variant dispatched by [match];
   - scheduler predicates (is this a preemption point? a yield?) are
     precomputed per instruction.

   Each lowered instruction keeps a pointer to its original [instr], so
   observation hooks, failure reports and sketches still see the
   source-level form; the engine never consults it on the hot path.

   The module also builds [l_dsteps], an iid-indexed control-flow
   successor table used by the Intel PT decoder: re-walking a trace
   becomes one array load per instruction instead of a by-iid Hashtbl
   probe plus a label scan.

   Name-resolution failures surface here, at load time, as
   {!Lower_error} — not as a runtime crash mid-execution.  For programs
   built through [Program.make] (which validates) lowering cannot fail;
   the error exists for hand-assembled [program] values. *)

open Types

exception Lower_error of string

let lower_error fmt = Format.kasprintf (fun s -> raise (Lower_error s)) fmt

type lop =
  | LReg of int
  | LImm of int
  | LStr of string
  | LNull

type lexpr =
  | LBin of binop * lop * lop
  | LMov of lop
  | LNot of lop

(* One constructor per builtin name [Program.make] accepts. *)
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
  | LLoad_global of int * int          (* dst slot, global index *)
  | LStore_global of int * lop         (* global index, value *)
  | LMalloc of int * int
  | LFree of lop
  | LCall of int option * int * lop array   (* dst slot, func index, args *)
  | LBuiltin of int option * builtin_op * string * lop array
      (* the name rides along only for crash messages *)
  | LJmp of int                        (* block index *)
  | LBranch of lop * int * int         (* cond, then block, else block *)
  | LRet of lop option
  | LSpawn of int * int * lop array    (* dst slot, func index, args *)
  | LJoin of lop
  | LLock of lop
  | LUnlock of lop
  | LAssert of lop * string

type linstr = {
  li_iid : iid;
  li_kind : lkind;
  li_instr : instr;        (* original form, for hooks and reports *)
  li_interesting : bool;   (* scheduling point (shared access / sync)? *)
  li_yield : bool;         (* yield/sleep builtin? *)
}

type lfunc = {
  lf_index : int;
  lf_name : string;
  lf_params : int array;        (* parameter slots, in declaration order *)
  lf_nslots : int;
  lf_slot_names : string array; (* slot -> register name (error messages) *)
  lf_blocks : linstr array array;     (* lf_blocks.(0) is the entry *)
}

(* Control-flow successor of one instruction, for the PT decoder's
   trace re-walk. *)
type dstep =
  | D_jump of iid            (* unconditional: first iid of the target *)
  | D_branch of iid * iid    (* first iids of the then/else blocks *)
  | D_call of iid            (* callee entry iid *)
  | D_ret
  | D_fall of iid            (* straight-line: next instruction *)
  | D_stop                   (* straight-line at block end (malformed) *)

type t = {
  l_program : program;
  l_funcs : lfunc array;
  l_func_index : (string, int) Hashtbl.t;
  l_main : int;
  l_globals : global array;  (* in [program.globals] order *)
  l_dsteps : dstep array;    (* indexed by iid; slot 0 unused *)
  l_instrs : instr array;    (* indexed by iid; original instructions *)
}

(* ------------------------------------------------------------------ *)

let builtin_op_of_name fname = function
  | "print" -> B_print
  | "print_int" -> B_print_int
  | "strlen" -> B_strlen
  | "str_char" -> B_str_char
  | "str_concat" -> B_str_concat
  | "atoi" -> B_atoi
  | "yield" -> B_yield
  | "sleep" -> B_sleep
  | "input_len" -> B_input_len
  | "abs" -> B_abs
  | "min" -> B_min
  | "max" -> B_max
  | name -> lower_error "%s: unknown builtin %s" fname name

(* Same predicates the scheduler used to evaluate per step. *)
let interesting i =
  match i.kind with
  | Load _ | Store _ | Load_global _ | Store_global _ | Lock _ | Unlock _
  | Free _ | Join _ | Spawn _ ->
    true
  | Builtin (_, ("yield" | "sleep"), _) -> true
  | _ -> false

let is_yield i =
  match i.kind with Builtin (_, ("yield" | "sleep"), _) -> true | _ -> false

let lower_func ~func_index ~global_index fidx (f : func) =
  (* Dense slot assignment: parameters first, then every register in
     order of appearance.  A register that is read but never defined
     still gets a slot; it simply stays unbound, and reading it crashes
     exactly as the nominal interpreter did. *)
  let slots = Hashtbl.create 16 in
  let names = ref [] in
  let nslots = ref 0 in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      Hashtbl.add slots r s;
      names := r :: !names;
      s
  in
  let params = Array.of_list (List.map slot f.params) in
  let lop = function
    | Reg r -> LReg (slot r)
    | Imm n -> LImm n
    | Str s -> LStr s
    | Null -> LNull
  in
  let lexpr = function
    | Bin (op, a, b) -> LBin (op, lop a, lop b)
    | Mov a -> LMov (lop a)
    | Not a -> LNot (lop a)
  in
  let labels = Hashtbl.create 8 in
  Array.iteri (fun bi b -> Hashtbl.replace labels b.label bi) f.blocks;
  let block_of l =
    match Hashtbl.find_opt labels l with
    | Some bi -> bi
    | None -> lower_error "%s: jump to unknown label %s" f.fname l
  in
  let func_of callee =
    match Hashtbl.find_opt func_index callee with
    | Some k -> k
    | None -> lower_error "%s: call to undefined function %s" f.fname callee
  in
  let global_of g =
    match Hashtbl.find_opt global_index g with
    | Some k -> k
    | None -> lower_error "%s: unknown global %s" f.fname g
  in
  let lower_instr (i : instr) =
    let k =
      match i.kind with
      | Assign (r, e) -> LAssign (slot r, lexpr e)
      | Load (r, base, off) -> LLoad (slot r, lop base, off)
      | Store (base, off, v) -> LStore (lop base, off, lop v)
      | Load_global (r, g) -> LLoad_global (slot r, global_of g)
      | Store_global (g, v) -> LStore_global (global_of g, lop v)
      | Malloc (r, n) -> LMalloc (slot r, n)
      | Free p -> LFree (lop p)
      | Call (dst, callee, args) ->
        LCall
          ( Option.map slot dst,
            func_of callee,
            Array.of_list (List.map lop args) )
      | Builtin (dst, name, args) ->
        LBuiltin
          ( Option.map slot dst,
            builtin_op_of_name f.fname name,
            name,
            Array.of_list (List.map lop args) )
      | Jmp l -> LJmp (block_of l)
      | Branch (c, lt, le) -> LBranch (lop c, block_of lt, block_of le)
      | Ret v -> LRet (Option.map lop v)
      | Spawn (r, routine, args) ->
        LSpawn
          (slot r, func_of routine, Array.of_list (List.map lop args))
      | Join t -> LJoin (lop t)
      | Lock m -> LLock (lop m)
      | Unlock m -> LUnlock (lop m)
      | Assert (c, msg) -> LAssert (lop c, msg)
    in
    {
      li_iid = i.iid;
      li_kind = k;
      li_instr = i;
      li_interesting = interesting i;
      li_yield = is_yield i;
    }
  in
  let blocks = Array.map (fun b -> Array.map lower_instr b.instrs) f.blocks in
  {
    lf_index = fidx;
    lf_name = f.fname;
    lf_params = params;
    lf_nslots = !nslots;
    lf_slot_names = Array.of_list (List.rev !names);
    lf_blocks = blocks;
  }

(* The decoder's successor table: iids are contiguous from 1 (assigned
   by [Program.make] in textual order), so one array covers the whole
   program. *)
let build_dsteps (p : program) =
  let dsteps = Array.make (p.n_instrs + 1) D_ret in
  let entry_iid (f : func) = f.blocks.(0).instrs.(0).iid in
  List.iter
    (fun (f : func) ->
      let labels = Hashtbl.create 8 in
      Array.iteri (fun bi b -> Hashtbl.replace labels b.label bi) f.blocks;
      let first_of l = f.blocks.(Hashtbl.find labels l).instrs.(0).iid in
      Array.iter
        (fun b ->
          let n = Array.length b.instrs in
          Array.iteri
            (fun k (i : instr) ->
              dsteps.(i.iid) <-
                (match i.kind with
                 | Jmp l -> D_jump (first_of l)
                 | Branch (_, lt, le) -> D_branch (first_of lt, first_of le)
                 | Call (_, callee, _) ->
                   D_call
                     (entry_iid
                        (List.find (fun g -> g.fname = callee) p.funcs))
                 | Ret _ -> D_ret
                 | _ ->
                   if k + 1 < n then D_fall b.instrs.(k + 1).iid else D_stop))
            b.instrs)
        f.blocks)
    p.funcs;
  dsteps

let lower (p : program) : t =
  let funcs = Array.of_list p.funcs in
  let func_index = Hashtbl.create 16 in
  Array.iteri (fun k (f : func) -> Hashtbl.replace func_index f.fname k) funcs;
  let globals = Array.of_list p.globals in
  let global_index = Hashtbl.create 16 in
  Array.iteri
    (fun k (g : global) -> Hashtbl.replace global_index g.gname k)
    globals;
  let lfuncs =
    Array.mapi (fun k f -> lower_func ~func_index ~global_index k f) funcs
  in
  let main =
    match Hashtbl.find_opt func_index p.main with
    | Some k -> k
    | None -> lower_error "main function %s undefined" p.main
  in
  let dummy = { iid = 0; kind = Ret None; loc = no_loc; text = "" } in
  let instrs = Array.make (p.n_instrs + 1) dummy in
  List.iter
    (fun (f : func) ->
      Array.iter
        (fun b -> Array.iter (fun (i : instr) -> instrs.(i.iid) <- i) b.instrs)
        f.blocks)
    p.funcs;
  {
    l_program = p;
    l_funcs = lfuncs;
    l_func_index = func_index;
    l_main = main;
    l_globals = globals;
    l_dsteps = build_dsteps p;
    l_instrs = instrs;
  }
