(** Instrumentation placement (paper §3.2.2-§3.2.3, Fig. 4).

    For each tracked statement: Intel PT starts at every predecessor
    block's terminator (capturing the incoming branch), at the
    statement's block head, and at the statement itself (a guard for
    stops planted inside callees); it stops right after the statement —
    at the next instruction on a different source line, or on entry to
    each successor block — unless the statement strictly dominates the
    next tracked one.  A watchpoint is armed at the pre-point of each
    tracked memory access (after its immediate dominator, before the
    access).

    Two toggle-churn peepholes then drop [Pt_stop]s that a nearby
    [Pt_start] would immediately undo (loop back edges, short gaps):
    dropping a stop only grows the traced region, so it is always
    sound. *)

open Ir.Types

(** [compute ?enable_cf ?enable_df program tracked] builds the plan for
    monitoring [tracked].  [enable_cf]/[enable_df] (default true) gate
    the control-flow (PT) and data-flow (watchpoint) parts — the
    Fig. 10 ablations. *)
val compute :
  ?enable_cf:bool -> ?enable_df:bool -> program -> iid list -> Plan.t
