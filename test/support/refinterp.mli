(** The reference interpreter: the original nominal engine, executing
    [Ir.Types.program] directly (string-keyed register tables, label
    scans, string-matched builtins).

    [Interp.run] executes the lowered form; this module preserves the
    pre-lowering semantics verbatim so the differential test can prove
    the two engines bit-identical.  Same contract as {!Interp.run} in
    every parameter and every field of the result. *)

open Exec

val run :
  ?hooks:Interp.hooks ->
  ?counters:Cost.t ->
  ?pick:(eligible:int list -> int option) ->
  ?max_steps:int ->
  ?record_gt:bool ->
  ?preempt_prob:float ->
  Ir.Types.program ->
  Interp.workload ->
  Interp.result
