(* An instrumentation plan: the "binary patch" Gist ships to production
   clients (paper §4 uses bsdiff patches).  Actions fire at the
   pre-point of an instruction, i.e. just before it executes.

   Placement builds the plan as a by-iid table of action lists; [compile]
   then flattens it, once, into an iid-indexed byte table of action
   bits, the form the runtime hooks in [Runtime] read on every step:
   one load, no hashing, no list walk. *)

open Ir.Types

type action =
  | Pt_stop   (* disable Intel PT tracing (applied before Pt_start) *)
  | Pt_start  (* enable Intel PT tracing *)
  | Wp_arm    (* arm a hardware watchpoint on the address this access will touch *)

type t = {
  actions : (iid, action list) Hashtbl.t;
  tracked : iid list;     (* the slice portion being monitored *)
  wp_targets : iid list;  (* tracked memory accesses eligible for watchpoints *)
  table : Bytes.t;        (* iid -> action bits; see [compile] *)
}

let empty () =
  { actions = Hashtbl.create 8; tracked = []; wp_targets = []; table = Bytes.empty }

(* Action bits of the compiled table.  [ptw] marks a [wp_targets]
   access: the PTWRITE extension's data-packet sites. *)
let stop = 1
let start = 2
let arm = 4
let ptw = 8

let bit = function Pt_stop -> stop | Pt_start -> start | Wp_arm -> arm

let compile t =
  let hi = Hashtbl.fold (fun iid _ m -> max m iid) t.actions (-1) in
  let hi = List.fold_left max hi t.wp_targets in
  let table = Bytes.make (hi + 1) '\000' in
  let set iid b =
    Bytes.set table iid (Char.chr (Char.code (Bytes.get table iid) lor b))
  in
  Hashtbl.iter (fun iid acts -> List.iter (fun a -> set iid (bit a)) acts)
    t.actions;
  List.iter (fun iid -> set iid ptw) t.wp_targets;
  { t with table }

let bits t iid =
  if iid >= 0 && iid < Bytes.length t.table then
    Char.code (Bytes.unsafe_get t.table iid)
  else 0

let add_action t iid a =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.actions iid) in
  if not (List.mem a cur) then
    (* Keep stops before starts so a shared point flushes then restarts. *)
    let next = List.sort compare (a :: cur) in
    Hashtbl.replace t.actions iid next

let actions_at t iid = Option.value ~default:[] (Hashtbl.find_opt t.actions iid)

let n_actions t = Hashtbl.fold (fun _ l acc -> acc + List.length l) t.actions 0

(* A stable content digest (splitmix64-style avalanche fold over the
   sorted patch points, tracked set and watchpoint targets).  Clients
   echo it in their report envelope; the server rejects reports built
   under a plan from a previous iteration. *)
let id t =
  let mix h x = Exec.Rng.mix h ((2 * x) + 1) in
  let action_tag = function Pt_stop -> 1 | Pt_start -> 2 | Wp_arm -> 3 in
  let h = List.fold_left mix 17 t.tracked in
  let h = List.fold_left mix (mix h 0x51) t.wp_targets in
  Hashtbl.fold (fun iid acts acc -> (iid, acts) :: acc) t.actions []
  |> List.sort compare
  |> List.fold_left
       (fun h (iid, acts) ->
         List.fold_left (fun h a -> mix h (action_tag a)) (mix h iid) acts)
       (mix h 0x52)
