(* Program construction: iid assignment, indexing, and validation. *)

open Types

let func_exists funcs name = List.exists (fun f -> f.fname = name) funcs

(* Builtins the interpreter understands; calls to anything else must
   target a defined function. *)
let builtins =
  [ "print"; "print_int"; "strlen"; "str_char"; "str_concat"; "atoi";
    "yield"; "sleep"; "input_len"; "abs"; "min"; "max" ]

let is_terminator i =
  match i.kind with
  | Jmp _ | Branch _ | Ret _ -> true
  | _ -> false

let validate_func funcs globals f =
  if Array.length f.blocks = 0 then invalid "function %s has no blocks" f.fname;
  let labels = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      if Hashtbl.mem labels b.label then
        invalid "%s: duplicate label %s" f.fname b.label;
      Hashtbl.add labels b.label ())
    f.blocks;
  let check_label l =
    if not (Hashtbl.mem labels l) then
      invalid "%s: jump to unknown label %s" f.fname l
  in
  let gnames = List.map (fun g -> g.gname) globals in
  Array.iter
    (fun b ->
      let n = Array.length b.instrs in
      if n = 0 then invalid "%s/%s: empty block" f.fname b.label;
      Array.iteri
        (fun k i ->
          if k < n - 1 && is_terminator i then
            invalid "%s/%s: terminator not last in block" f.fname b.label;
          match i.kind with
          | Jmp l -> check_label l
          | Branch (_, t, e) -> check_label t; check_label e
          | Call (_, callee, _) ->
            if not (func_exists funcs callee) then
              invalid "%s: call to undefined function %s" f.fname callee
          | Builtin (_, name, _) ->
            if not (List.mem name builtins) then
              invalid "%s: unknown builtin %s" f.fname name
          | Spawn (_, callee, _) ->
            if not (func_exists funcs callee) then
              invalid "%s: spawn of undefined function %s" f.fname callee
          | Load_global (_, g) | Store_global (g, _) ->
            if not (List.mem g gnames) then
              invalid "%s: unknown global %s" f.fname g
          | _ -> ())
        b.instrs;
      if not (is_terminator b.instrs.(n - 1)) then
        invalid "%s/%s: block does not end in a terminator" f.fname b.label)
    f.blocks

(* Renumber every instruction with a fresh iid (in textual order, so
   that iid order coincides with program order within a function) and
   build the derived indexes. *)
let make ?(globals = []) ~main funcs =
  if not (func_exists funcs main) then invalid "main function %s undefined" main;
  List.iter (validate_func funcs globals) funcs;
  let counter = ref 0 in
  let by_iid = Hashtbl.create 256 in
  let funcs =
    List.map
      (fun f ->
        let blocks =
          Array.map
            (fun b ->
              let instrs =
                Array.map
                  (fun i ->
                    incr counter;
                    { i with iid = !counter })
                  b.instrs
              in
              { b with instrs })
            f.blocks
        in
        { f with blocks })
      funcs
  in
  List.iter
    (fun f ->
      Array.iteri
        (fun bi b ->
          Array.iteri
            (fun k i ->
              let pos = { p_func = f.fname; p_block = bi; p_index = k } in
              Hashtbl.replace by_iid i.iid (i, pos))
            b.instrs)
        f.blocks)
    funcs;
  let func_tbl = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace func_tbl f.fname f) funcs;
  { globals; funcs; main; by_iid; func_tbl; n_instrs = !counter }

let find_func p name =
  match Hashtbl.find_opt p.func_tbl name with
  | Some f -> f
  | None -> invalid "unknown function %s" name

let instr_at p iid =
  match Hashtbl.find_opt p.by_iid iid with
  | Some (i, _) -> i
  | None -> invalid "unknown iid %d" iid

let position_of p iid =
  match Hashtbl.find_opt p.by_iid iid with
  | Some (_, pos) -> pos
  | None -> invalid "unknown iid %d" iid

let loc_of p iid = (instr_at p iid).loc

(* All instructions of a function, in textual order. *)
let instrs_of_func f =
  Array.to_list f.blocks
  |> List.concat_map (fun b -> Array.to_list b.instrs)

let all_instrs p = List.concat_map instrs_of_func p.funcs

(* Number of distinct source lines spanned by a set of iids: the
   "source LOC" metric of Table 1. *)
let source_loc_count p iids =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun iid ->
      let l = loc_of p iid in
      if l.line > 0 then Hashtbl.replace seen (l.file, l.line) ())
    iids;
  Hashtbl.length seen

let expr_operands = function
  | Bin (_, a, b) -> [ a; b ]
  | Mov a | Not a -> [ a ]

(* Operands read by an instruction (excluding labels). *)
let uses i =
  match i.kind with
  | Assign (_, e) -> expr_operands e
  | Load (_, base, _) -> [ base ]
  | Store (base, _, v) -> [ base; v ]
  | Load_global _ -> []
  | Store_global (_, v) -> [ v ]
  | Malloc _ -> []
  | Free p -> [ p ]
  | Call (_, _, args) | Builtin (_, _, args) | Spawn (_, _, args) -> args
  | Jmp _ -> []
  | Branch (c, _, _) -> [ c ]
  | Ret (Some v) -> [ v ]
  | Ret None -> []
  | Join t -> [ t ]
  | Lock m | Unlock m -> [ m ]
  | Assert (c, _) -> [ c ]

(* Register defined by an instruction, if any. *)
let def i =
  match i.kind with
  | Assign (r, _) | Load (r, _, _) | Load_global (r, _) | Malloc (r, _)
  | Spawn (r, _, _) ->
    Some r
  | Call (d, _, _) | Builtin (d, _, _) -> d
  | Store _ | Store_global _ | Free _ | Jmp _ | Branch _ | Ret _ | Join _
  | Lock _ | Unlock _ | Assert _ ->
    None

let is_memory_access i =
  match i.kind with
  | Load _ | Store _ | Load_global _ | Store_global _ -> true
  | _ -> false
