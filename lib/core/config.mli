(** Gist configuration.  Defaults mirror the paper's setup: sigma
    starts at 2 and doubles per AsT iteration (§3.2.1), 4 hardware
    watchpoints per client (§3.2.3). *)

(** How data flow reaches the server: hardware watchpoints (the
    paper's prototype) or PTWRITE-style data packets in the PT stream
    (the §6 hardware proposal: no debug-register budget, no cooperative
    rotation, but data only while tracing is on). *)
type data_source = Watchpoints | Ptwrite

type t = {
  sigma0 : int;               (** initial tracked slice size *)
  max_iterations : int;       (** AsT iterations before giving up *)
  fail_quota : int;           (** matching failures gathered per iteration *)
  succ_quota : int;           (** successful runs gathered per iteration *)
  max_clients_per_iter : int;
  wp_capacity : int;          (** hardware watchpoints per client *)
  enable_cf : bool;           (** control-flow tracking (Intel PT) *)
  enable_df : bool;           (** data-flow tracking (watchpoints) *)
  preempt_prob : float;       (** production scheduling nondeterminism *)
  max_steps : int;            (** hang-detector budget per run *)
  data_source : data_source;  (** extension: Ptwrite replaces watchpoints *)
  range_predicates : bool;    (** extension: §6 range/inequality predicates *)
  redact_values : bool;       (** extension: hash string values leaving clients *)
  fault_rates : Faults.Fault.rates;
      (** injected fleet faults ({!Faults.Fault.zero} = off) *)
  fault_seed : int;
      (** seeds the fault-injection stream, independent of run seeds *)
  early_exit : bool;
      (** adaptive AsT: stop gathering at the first checkpoint where the
          top predictor's F_beta confidence bound separates it from the
          runner-up, and stop the diagnosis when the same predictor wins
          two consecutive iterations with separation *)
  separation_delta : float;
      (** error rate of the separation confidence bound, in (0, 1) *)
  checkpoint_every : int;
      (** evaluate the separation bound every N consumed client slots —
          report-count boundaries, not wall-clock, so decisions are
          bit-identical at any [--jobs] *)
}

(** The paper's exhaustive setup; [early_exit] is off, making this the
    reference oracle for the adaptive path. *)
val default : t

(** [default] with [early_exit = true]: the adaptive production preset. *)
val adaptive : t

(** {2 Validation} *)

type error =
  | Bad_sigma0 of int               (** must be positive *)
  | Bad_max_clients_per_iter of int (** must be positive *)
  | Bad_separation_delta of float   (** must be in (0, 1) *)
  | Bad_checkpoint_every of int     (** must be positive *)

(** [Printexc.to_string] renders it as ["invalid configuration: "]
    followed by {!error_to_string}. *)
exception Invalid of error

val error_to_string : error -> string

(** Typed validation at construction time: [Ok t] or the first failing
    knob. *)
val validate : t -> (t, error) result

(** [check t] is [t] if valid; raises {!Invalid} otherwise.
    {!Server.diagnose} calls this on entry. *)
val check : t -> t
