(* Runtime values.  Registers are thread-local (the paper's Gist does
   not watch stack variables, §6); only heap cells and globals live at
   watchable addresses. *)

type t =
  | VInt of int
  | VPtr of int          (* address of a heap/global cell *)
  | VStr of string
  | VTid of int          (* thread handle *)
  | VNull
  | VUnit

(* Shared [VInt]s for -128..127: immediates, arithmetic and comparison
   results are mostly small, and a shared value costs the interpreter
   no allocation.  The table stays small because it is live for the
   whole process. *)
let small = Array.init 256 (fun k -> VInt (k - 128))

let int n = if n >= -128 && n < 128 then Array.unsafe_get small (n + 128) else VInt n

let zero = int 0
let one = int 1
let of_bool c = if c then one else zero

let truthy = function
  | VInt 0 | VNull -> false
  | VInt _ | VPtr _ | VStr _ | VTid _ | VUnit -> true

let pp ppf = function
  | VInt n -> Fmt.pf ppf "%d" n
  | VPtr a -> Fmt.pf ppf "ptr:%d" a
  | VStr s -> Fmt.pf ppf "%S" s
  | VTid t -> Fmt.pf ppf "tid:%d" t
  | VNull -> Fmt.pf ppf "null"
  | VUnit -> Fmt.pf ppf "()"

let to_string v = Fmt.str "%a" pp v

let equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VPtr x, VPtr y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VTid x, VTid y -> x = y
  | VNull, VNull | VUnit, VUnit -> true
  (* Null compares equal to the integer 0, as in C. *)
  | VNull, VInt 0 | VInt 0, VNull -> true
  | _ -> false
