(** Deterministic splitmix64 generator: a whole run (scheduling
    included) is a pure function of (program, workload, seed), which
    the record/replay baseline and the determinism tests rely on.
    Only [next] and [float] return a boxed value; every other draw
    allocates nothing. *)

type t

val create : int -> t
val next : t -> int64

(** Uniform int in [\[0, bound)]; 0 when [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

(** [chance t p] is [float t < p], drawn without boxing the float: the
    interpreter's per-step preemption draw. *)
val chance : t -> float -> bool

val bool : t -> bool

(** The splitmix64 finalizer of [a + b * golden], masked to 62 bits:
    every int hash in the library (fault draws, tamper salts, plan ids,
    fingerprints, audit digests) folds through it. *)
val mix : int -> int -> int
