(** A fixed-size domain work pool with deterministic, submission-ordered
    result delivery (OCaml 5 domains, no external dependencies).

    The pool exists to parallelise the embarrassingly parallel loops of
    the Gist pipeline (client fleet simulation, per-bug experiment
    sweeps) without changing any observable result: [map] returns
    results in submission order, so effects folded over the results
    are bit-identical to a sequential run. *)

type t

(** [create ~jobs] spawns [effective ~jobs] worker domains.  The
    caller also executes tasks while waiting, so total parallelism is
    [jobs + 1]; nested [map]s from inside a task cannot
    deadlock (the submitter helps drain the queue). *)
val create : jobs:int -> t

(** The worker count {!create} actually spawns for a requested [jobs]:
    [0] when [jobs <= 1] (a lone worker only contends with the helping
    caller) or on a single-core host (any worker is pure scheduling
    overhead there), otherwise [jobs] clamped to the core count.  Zero
    workers means every operation runs inline on the caller --
    byte-for-byte the sequential code path, so oversubscribed settings
    degrade to sequential speed instead of below it. *)
val effective : jobs:int -> int

(** A shared zero-worker pool: every operation runs inline on the
    caller, byte-for-byte the sequential code path. *)
val sequential : t

(** Number of worker domains. *)
val jobs : t -> int

(** [map_array t f xs] applies [f] to every element on the pool and
    returns the results in input order.  Elements are submitted in
    chunks (about four per executor) so queue overhead amortises; every
    element still runs, and if any application raised, the first
    exception in input order is re-raised after all tasks finished. *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

(** List version of {!map_array}. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [worker_local init] is per-domain mutable scratch (decode arenas,
    reusable buffers): the returned getter gives each domain — pool
    workers and the helping caller alike — its own lazily-created
    instance, so tasks never contend for or observe another worker's
    state.  The instance persists across tasks on the same domain
    (buffers stay grown); use it only for scratch whose contents are
    dead once a task returns. *)
val worker_local : (unit -> 'a) -> unit -> 'a

(** Stop the workers and join their domains.  Queued-but-unstarted
    tasks of in-flight maps are still executed by the submitter (it
    helps drain), so no [map] is left incomplete. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
