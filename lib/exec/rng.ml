(* Deterministic splitmix64 generator: the whole run (scheduling
   included) is a pure function of (program, workload, seed), which the
   record/replay baseline and the determinism tests rely on.

   The 64-bit state lives in an 8-byte buffer read and written with
   [Bytes.get/set_int64_le], so a draw keeps its [int64] arithmetic
   unboxed: a mutable [int64] record field would box a fresh state on
   every draw.  [step] is inlined into each draw, and every draw
   returns an immediate [int] or [bool], except [next] and [float]
   themselves, whose boxed result only their callers pay for. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

(* The splitmix64 finalizer, shared by [step] and [mix]. *)
let[@inline] finalize z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 s;
  finalize s

let mix a b =
  let z = Int64.(add (of_int a) (mul (of_int b) 0x9E3779B97F4A7C15L)) in
  Int64.(to_int (logand (finalize z) 0x3FFFFFFFFFFFFFFFL))

let next t = step t

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.logand (step t) Int64.max_int)
                       (Int64.of_int bound))

(* Uniform float in [0, 1): the top 53 bits over 2^53. *)
let[@inline] float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (step t) 11))
  /. 9007199254740992.0

let chance t p = float t < p

let bool t = Int64.logand (step t) 1L = 1L
