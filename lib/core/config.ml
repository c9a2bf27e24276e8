(* Gist configuration knobs.  The defaults mirror the paper's setup:
   sigma starts at 2 (§3.2.1), doubles per AsT iteration, 4 hardware
   watchpoints per client (§3.2.3). *)

(* How data flow reaches the server: hardware watchpoints (the paper's
   prototype) or PTWRITE-style data packets in the PT stream (the §6
   hardware proposal: no debug-register budget, no cooperative
   rotation, but data only while tracing is on). *)
type data_source = Watchpoints | Ptwrite

type t = {
  sigma0 : int;              (* initial tracked slice size *)
  max_iterations : int;      (* AsT iterations before giving up *)
  fail_quota : int;          (* matching failures to gather per iteration *)
  succ_quota : int;          (* successful runs to gather per iteration *)
  max_clients_per_iter : int;
  wp_capacity : int;         (* hardware watchpoints per client *)
  enable_cf : bool;          (* control-flow tracking (Intel PT) *)
  enable_df : bool;          (* data-flow tracking (watchpoints) *)
  preempt_prob : float;      (* production scheduling nondeterminism *)
  max_steps : int;           (* hang detector budget per run *)
  data_source : data_source; (* extension: Ptwrite replaces watchpoints *)
  range_predicates : bool;   (* extension: mine §6 range/inequality predicates *)
  redact_values : bool;      (* extension: hash string values leaving clients *)
  fault_rates : Faults.Fault.rates; (* injected fleet faults (zero = off) *)
  fault_seed : int;          (* fault-injection stream, independent of run seeds *)
  early_exit : bool;         (* stop gathering once the top predictor separates *)
  separation_delta : float;  (* error rate of the separation confidence bound *)
  checkpoint_every : int;    (* evaluate the bound every N consumed slots *)
}

let default =
  {
    sigma0 = 2;
    max_iterations = 8;
    fail_quota = 1;
    succ_quota = 8;
    max_clients_per_iter = 600;
    wp_capacity = 4;
    enable_cf = true;
    enable_df = true;
    preempt_prob = 0.35;
    max_steps = 400_000;
    data_source = Watchpoints;
    range_predicates = false;
    redact_values = false;
    fault_rates = Faults.Fault.zero;
    fault_seed = 1;
    early_exit = false;
    separation_delta = 0.05;
    checkpoint_every = 8;
  }

(* The adaptive production preset: identical to [default] except the
   sequential stopping rule is armed.  The exhaustive [default] stays
   the reference oracle (the CLI's [--no-early-exit]). *)
let adaptive = { default with early_exit = true }

(* ------------------------------------------------------------------ *)
(* Validation: reject nonsense knobs with a typed error at
   construction time (the same treatment [wp_capacity] got in
   [Server.wp_groups]) instead of hanging or dividing by zero deep in
   the AsT loop. *)

type error =
  | Bad_sigma0 of int               (* must be positive *)
  | Bad_max_clients_per_iter of int (* must be positive *)
  | Bad_separation_delta of float   (* must be in (0, 1) *)
  | Bad_checkpoint_every of int     (* must be positive *)

exception Invalid of error

let error_to_string = function
  | Bad_sigma0 n -> Printf.sprintf "sigma0 must be positive (got %d)" n
  | Bad_max_clients_per_iter n ->
    Printf.sprintf "max_clients_per_iter must be positive (got %d)" n
  | Bad_separation_delta f ->
    Printf.sprintf "separation_delta must be in (0, 1) (got %g)" f
  | Bad_checkpoint_every n ->
    Printf.sprintf "checkpoint_every must be positive (got %d)" n

let validate t =
  if t.sigma0 <= 0 then Error (Bad_sigma0 t.sigma0)
  else if t.max_clients_per_iter <= 0 then
    Error (Bad_max_clients_per_iter t.max_clients_per_iter)
  else if not (t.separation_delta > 0.0 && t.separation_delta < 1.0) then
    Error (Bad_separation_delta t.separation_delta)
  else if t.checkpoint_every <= 0 then
    Error (Bad_checkpoint_every t.checkpoint_every)
  else Ok t

let check t =
  match validate t with Ok t -> t | Error e -> raise (Invalid e)

(* So a contained [Invalid] (a session that fails at admission) names
   the bad field in its failure detail. *)
let () =
  Printexc.register_printer (function
    | Invalid e -> Some ("invalid configuration: " ^ error_to_string e)
    | _ -> None)
