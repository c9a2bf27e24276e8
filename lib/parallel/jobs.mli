(** The fleet-wide parallelism knob shared by the CLI, the experiment
    harness and the benchmarks. *)

(** [Domain.recommended_domain_count ()]: what the hardware offers. *)
val available : unit -> int

(** Worker-domain count to use: an explicit {!set_default} wins, then
    the [GIST_JOBS] environment variable, then [available () - 1] (the
    submitting domain works too).  [0] means fully sequential.
    Explicit requests are clamped to [available ()] -- worker domains
    beyond the core count add scheduler churn, not parallelism (and
    {!Pool.effective} further collapses single-core hosts to zero
    workers). *)
val default : unit -> int

(** Override the default (the CLI's [--jobs]).  Clamped to
    [0 <= n <= available ()]; retires a previously created {!global}
    pool of a different effective size. *)
val set_default : int -> unit

(** The shared pool, created lazily with [default ()] workers. *)
val global : unit -> Pool.t
