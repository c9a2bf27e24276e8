(** Memoised whole-program analysis: one [Icfg.build] (and therefore
    one CFG + dominator + postdominator construction per function) per
    program, shared by the slicer and the per-AsT-iteration
    instrumentation placer.  Keyed by physical identity -- programs
    are immutable after [Ir.Program.make].  Thread-safe: usable from
    pool workers running concurrent diagnoses. *)

(** The (possibly cached) interprocedural CFG of [program]. *)
val icfg : Ir.Types.program -> Icfg.t

(** The (possibly cached) lowered execution form of [program] (see
    [Ir.Lowered]): compiled once, then shared by every interpreter run
    and PT decode of the same program.  Same keying and thread-safety
    as {!icfg}. *)
val lowered : Ir.Types.program -> Ir.Lowered.t

(** Cumulative ICFG cache hits / misses since start or [clear]. *)
val hits : unit -> int

val misses : unit -> int

(** Drop every entry and reset the counters (benchmarking cold paths). *)
val clear : unit -> unit
