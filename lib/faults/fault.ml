(* The seeded fleet fault model.

   Gist's premise is a cooperative fleet of production endpoints
   (paper §3.2.3); real fleets crash mid-run, lose reports in transit,
   truncate Intel-PT rings, damage watchpoint logs, straggle past the
   collection deadline, and keep running stale instrumentation plans.
   Each fault kind has an independent probability, and the decision
   for a given (campaign seed, client index, delivery attempt) is a
   pure function of those three values -- so an injected fleet is
   bit-identical at any [--jobs], and a failing configuration replays
   exactly from its seed. *)

type kind =
  | Crash        (* client dies mid-run; nothing is ever sent *)
  | Drop         (* the report is lost in transit *)
  | Pt_truncate  (* the PT packet ring loses its tail *)
  | Pt_corrupt   (* PT packets damaged in the ring *)
  | Wp_corrupt   (* watchpoint log damaged (in ring or in transit) *)
  | Straggler    (* the report arrives after the collection deadline *)
  | Stale_plan   (* the client ran the previous plan version *)

let all_kinds =
  [ Crash; Drop; Pt_truncate; Pt_corrupt; Wp_corrupt; Straggler; Stale_plan ]

let kind_name = function
  | Crash -> "crash"
  | Drop -> "drop"
  | Pt_truncate -> "pt-truncate"
  | Pt_corrupt -> "pt-corrupt"
  | Wp_corrupt -> "wp-corrupt"
  | Straggler -> "straggler"
  | Stale_plan -> "stale-plan"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

type rates = {
  crash : float;
  drop : float;
  pt_truncate : float;
  pt_corrupt : float;
  wp_corrupt : float;
  straggler : float;
  stale_plan : float;
}

let zero =
  {
    crash = 0.0;
    drop = 0.0;
    pt_truncate = 0.0;
    pt_corrupt = 0.0;
    wp_corrupt = 0.0;
    straggler = 0.0;
    stale_plan = 0.0;
  }

let rate_of r = function
  | Crash -> r.crash
  | Drop -> r.drop
  | Pt_truncate -> r.pt_truncate
  | Pt_corrupt -> r.pt_corrupt
  | Wp_corrupt -> r.wp_corrupt
  | Straggler -> r.straggler
  | Stale_plan -> r.stale_plan

let with_rate r kind p =
  match kind with
  | Crash -> { r with crash = p }
  | Drop -> { r with drop = p }
  | Pt_truncate -> { r with pt_truncate = p }
  | Pt_corrupt -> { r with pt_corrupt = p }
  | Wp_corrupt -> { r with wp_corrupt = p }
  | Straggler -> { r with straggler = p }
  | Stale_plan -> { r with stale_plan = p }

let is_zero r = List.for_all (fun k -> rate_of r k <= 0.0) all_kinds

(* Probability that at least one fault hits a delivery attempt. *)
let aggregate r =
  1.0
  -. List.fold_left (fun acc k -> acc *. (1.0 -. rate_of r k)) 1.0 all_kinds

(* The per-kind probability that makes the aggregate equal [total]:
   the canonical way a single [--fault-rate] knob is spread over the
   whole taxonomy. *)
let spread total =
  if total <= 0.0 then zero
  else
    let total = min total 0.999999 in
    let n = float_of_int (List.length all_kinds) in
    let p = 1.0 -. ((1.0 -. total) ** (1.0 /. n)) in
    List.fold_left (fun r k -> with_rate r k p) zero all_kinds

(* ------------------------------------------------------------------ *)
(* Per-attempt injection decisions. *)

type injection = {
  j_crash : bool;
  j_drop : bool;
  j_straggler : bool;
  j_stale_plan : bool;
  j_pt_truncate : int option;  (* tamper salt *)
  j_pt_corrupt : int option;
  j_wp_corrupt : int option;
}

let none =
  {
    j_crash = false;
    j_drop = false;
    j_straggler = false;
    j_stale_plan = false;
    j_pt_truncate = None;
    j_pt_corrupt = None;
    j_wp_corrupt = None;
  }

(* Every draw consumes the same rng stream whatever hits, so one
   kind's probability never perturbs another kind's decisions. *)
let draw rates ~seed ~client ~attempt =
  if is_zero rates then none
  else begin
    let seed = Exec.Rng.mix (Exec.Rng.mix seed client) attempt in
    let rng = Exec.Rng.create seed in
    let hit p = Exec.Rng.float rng < p in
    let crash = hit rates.crash in
    let drop = hit rates.drop in
    let straggler = hit rates.straggler in
    let stale = hit rates.stale_plan in
    let trunc = hit rates.pt_truncate in
    let corrupt = hit rates.pt_corrupt in
    let wp = hit rates.wp_corrupt in
    let salt () = Exec.Rng.int rng 0x3FFFFFFF in
    let s_trunc = salt () and s_corrupt = salt () and s_wp = salt () in
    {
      j_crash = crash;
      j_drop = drop;
      j_straggler = straggler;
      j_stale_plan = stale;
      j_pt_truncate = (if trunc then Some s_trunc else None);
      j_pt_corrupt = (if corrupt then Some s_corrupt else None);
      j_wp_corrupt = (if wp then Some s_wp else None);
    }
  end

(* What an injection amounts to, in taxonomy order -- the ground-truth
   ledger the fleet statistics aggregate. *)
let kinds_of j =
  List.filter
    (fun k ->
      match k with
      | Crash -> j.j_crash
      | Drop -> j.j_drop
      | Pt_truncate -> j.j_pt_truncate <> None
      | Pt_corrupt -> j.j_pt_corrupt <> None
      | Wp_corrupt -> j.j_wp_corrupt <> None
      | Straggler -> j.j_straggler
      | Stale_plan -> j.j_stale_plan)
    all_kinds
