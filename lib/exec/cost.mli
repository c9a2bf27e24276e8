(** Event counters and the overhead cost model (Figs 11 and 13).

    The interpreter counts base work; tracing layers (Intel PT,
    watchpoints, record/replay, software tracing) count their own extra
    events, and overheads are reported as extra cycles over base
    cycles.  The constants are calibrated so the *shape* of the paper's
    §5.3 numbers holds on the Bugbase workloads (see EXPERIMENTS.md). *)

type t = {
  mutable instrs : int;          (** executed IR instructions (base work) *)
  mutable branches : int;
  mutable mem_accesses : int;    (** shared (heap/global) accesses *)
  mutable sched_switches : int;
  mutable pt_packets : int;
  mutable pt_bytes : int;        (** PT trace volume while enabled *)
  mutable pt_toggles : int;      (** PGE/PGD transitions *)
  mutable wp_traps : int;        (** watchpoint hits *)
  mutable wp_arms : int;         (** debug-register writes *)
  mutable rr_events : int;       (** record/replay nondeterministic events *)
  mutable sw_trace_events : int; (** software control-flow tracing events *)
}

val create : unit -> t

(** Aggregate cycle counts for a run. *)

val base_cycles : t -> float
val pt_extra_cycles : t -> float
val wp_extra_cycles : t -> float
val rr_extra_cycles : t -> float
val sw_trace_extra_cycles : t -> float

(** Per-layer overhead percentages for one run;
    [gist_overhead_percent] is the PT + watchpoint total. *)

val gist_overhead_percent : t -> float
val pt_overhead_percent : t -> float
val rr_overhead_percent : t -> float
val sw_trace_overhead_percent : t -> float
