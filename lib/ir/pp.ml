(* Pretty-printing for IR values, instructions and whole programs. *)

open Types

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "%%%s" r
  | Imm n -> Fmt.pf ppf "%d" n
  | Str s -> Fmt.pf ppf "%S" s
  | Null -> Fmt.pf ppf "null"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
  | And -> "and" | Or -> "or"

let pp_expr ppf = function
  | Bin (op, a, b) ->
    Fmt.pf ppf "%s %a, %a" (binop_name op) pp_operand a pp_operand b
  | Mov a -> Fmt.pf ppf "mov %a" pp_operand a
  | Not a -> Fmt.pf ppf "not %a" pp_operand a

let pp_args ppf args = Fmt.(list ~sep:(any ", ") pp_operand) ppf args

let pp_kind ppf = function
  | Assign (r, e) -> Fmt.pf ppf "%%%s = %a" r pp_expr e
  | Load (r, b, o) -> Fmt.pf ppf "%%%s = load %a[%d]" r pp_operand b o
  | Store (b, o, v) ->
    Fmt.pf ppf "store %a[%d] <- %a" pp_operand b o pp_operand v
  | Load_global (r, g) -> Fmt.pf ppf "%%%s = load @%s" r g
  | Store_global (g, v) -> Fmt.pf ppf "store @%s <- %a" g pp_operand v
  | Malloc (r, n) -> Fmt.pf ppf "%%%s = malloc %d" r n
  | Free p -> Fmt.pf ppf "free %a" pp_operand p
  | Call (Some r, f, args) -> Fmt.pf ppf "%%%s = call %s(%a)" r f pp_args args
  | Call (None, f, args) -> Fmt.pf ppf "call %s(%a)" f pp_args args
  | Builtin (Some r, f, args) ->
    Fmt.pf ppf "%%%s = builtin %s(%a)" r f pp_args args
  | Builtin (None, f, args) -> Fmt.pf ppf "builtin %s(%a)" f pp_args args
  | Jmp l -> Fmt.pf ppf "jmp %s" l
  | Branch (c, t, e) -> Fmt.pf ppf "br %a ? %s : %s" pp_operand c t e
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_operand v
  | Ret None -> Fmt.pf ppf "ret"
  | Spawn (r, f, args) -> Fmt.pf ppf "%%%s = spawn %s(%a)" r f pp_args args
  | Join t -> Fmt.pf ppf "join %a" pp_operand t
  | Lock m -> Fmt.pf ppf "lock %a" pp_operand m
  | Unlock m -> Fmt.pf ppf "unlock %a" pp_operand m
  | Assert (c, msg) -> Fmt.pf ppf "assert %a %S" pp_operand c msg

let pp_instr ppf i =
  Fmt.pf ppf "[%4d] %a" i.iid pp_kind i.kind;
  if i.loc.line > 0 then Fmt.pf ppf "  ; %s:%d" i.loc.file i.loc.line

let pp_block ppf b =
  Fmt.pf ppf "@[<v 2>%s:@,%a@]" b.label
    Fmt.(array ~sep:(any "@,") pp_instr)
    b.instrs

let pp_func ppf f =
  Fmt.pf ppf "@[<v 2>func %s(%a):@,%a@]" f.fname
    Fmt.(list ~sep:(any ", ") string)
    f.params
    Fmt.(array ~sep:(any "@,") pp_block)
    f.blocks

let pp_program ppf p =
  List.iter (fun g -> Fmt.pf ppf "global @%s = %a@." g.gname pp_operand g.init)
    p.globals;
  Fmt.(list ~sep:(any "@.@.") pp_func) ppf p.funcs;
  Fmt.pf ppf "@."

let kind_to_string k = Fmt.str "%a" pp_kind k
let instr_to_string i = Fmt.str "%a" pp_instr i
