(* The shared heap.  Freed blocks keep their identity so use-after-free
   and double-free are detected precisely (these are two of the failure
   classes in Table 1: pbzip2's segfault and Apache's double free).

   Addresses are dense (blocks are carved from [next] upwards), so the
   heap is three address-indexed arrays: the cells, each cell's owning
   block base (-1 for the unmapped cells below the first block and the
   red zones between blocks), and the state of the block starting at
   each address.  An access is two array loads and answers through an
   exception, so a valid access allocates nothing. *)

type fail = Fail_segv | Fail_uaf | Fail_dfree

exception Fault of fail

(* [state] bytes: the block starting at this address, if any. *)
let no_block = '\000'
let live = '\001'
let freed = '\002'

type t = {
  mutable cells : Value.t array;
  mutable owner : int array;  (* cell addr -> block base; -1 unmapped *)
  mutable state : Bytes.t;    (* addr -> [no_block] / [live] / [freed] *)
  mutable next : int;         (* first address past the last red zone *)
}

(* Addresses below [first] are never mapped: small integers used as
   pointers fault, like a null page. *)
let first = 16

let initial_capacity = 256

let create () =
  {
    cells = Array.make initial_capacity Value.zero;
    owner = Array.make initial_capacity (-1);
    state = Bytes.make initial_capacity no_block;
    next = first;
  }

(* Make room for addresses below [limit], keeping every cell. *)
let reserve t limit =
  let cap = Array.length t.cells in
  if limit > cap then begin
    let cap' = max limit (2 * cap) in
    let cells = Array.make cap' Value.zero in
    Array.blit t.cells 0 cells 0 cap;
    let owner = Array.make cap' (-1) in
    Array.blit t.owner 0 owner 0 cap;
    let state = Bytes.make cap' no_block in
    Bytes.blit t.state 0 state 0 cap;
    t.cells <- cells;
    t.owner <- owner;
    t.state <- state
  end

let alloc t size =
  let size = max size 1 in
  let base = t.next in
  t.next <- t.next + size + 1 (* one-cell red zone between blocks *);
  reserve t t.next;
  Bytes.set t.state base live;
  for k = base to base + size - 1 do
    t.cells.(k) <- Value.zero;
    t.owner.(k) <- base
  done;
  base

(* The base of the live block holding [addr]; raises otherwise. *)
let base_of t addr =
  if addr < 0 || addr >= t.next then raise (Fault Fail_segv);
  let base = Array.unsafe_get t.owner addr in
  if base < 0 then raise (Fault Fail_segv);
  if Bytes.unsafe_get t.state base = freed then raise (Fault Fail_uaf);
  base

let check t addr =
  match base_of t addr with
  | _ -> Ok ()
  | exception Fault e -> Error e

let load t addr =
  ignore (base_of t addr);
  Array.unsafe_get t.cells addr

let store t addr v =
  ignore (base_of t addr);
  Array.unsafe_set t.cells addr v

let free t base =
  if base < 0 || base >= t.next then raise (Fault Fail_segv);
  let s = Bytes.unsafe_get t.state base in
  if s = no_block then raise (Fault Fail_segv);
  if s = freed then raise (Fault Fail_dfree);
  Bytes.unsafe_set t.state base freed

(* Is [addr] a currently valid (allocated, unfreed) cell? *)
let valid t addr = match base_of t addr with _ -> true | exception Fault _ -> false
