(** Interpreter hooks that execute an instrumentation plan: toggling
    the PT recorder, arming watchpoints at access pre-points, and
    routing shared accesses through the watchpoint unit. *)

(** [hooks ~plan ~pt ~wp ~wp_allowed] interprets [plan].  [wp_allowed]
    restricts which watchpoint targets this client arms — the
    cooperative rotation of §3.2.3 when the tracked slice touches more
    addresses than the debug-register budget.  With [data_via_pt],
    every tracked memory access additionally emits a PTWRITE data
    packet while traced — the §6 hardware extension that makes
    watchpoints unnecessary (pass an empty [wp_allowed] to disable them
    entirely). *)
val hooks :
  data_via_pt:bool ->
  plan:Plan.t ->
  pt:Hw.Pt.recorder ->
  wp:Hw.Watchpoint.t ->
  wp_allowed:Ir.Types.iid list ->
  Exec.Interp.hooks

(** Full-tracing hooks (no plan): PT enabled for every thread from its
    first instruction — the Fig. 13 "Intel PT full tracing" setup. *)
val full_tracing_hooks : pt:Hw.Pt.recorder -> Exec.Interp.hooks
