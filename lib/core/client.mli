(** The Gist client: one production endpoint executing one run under
    the instrumentation plan the server shipped, then reporting back
    the decoded control-flow trace, watchpoint log and outcome (paper
    Fig. 2, steps 2 and 4). *)

open Ir.Types

type report = {
  r_seed : int;
  r_outcome : Exec.Interp.outcome;
  r_signature : Exec.Failure.signature option;
  r_executed : (int * iid list) list;
      (** per thread, PT-decoded execution order; for a failing run the
          crash instance of the failing statement is appended (PT
          truncation cannot decode past the last packet) *)
  r_branches : (iid * bool) list;  (** PT-decoded branch outcomes *)
  r_traps : Hw.Watchpoint.trap list;
  r_counters : Exec.Cost.t;
  r_overhead_pct : float;
  r_base_cycles : float;   (** un-instrumented work, cost-model cycles *)
  r_extra_cycles : float;  (** PT + watchpoint cycles added by Gist *)
  r_steps : int;
  r_pt_errors : (int * Hw.Pt.error) list;
      (** per-thread decode faults: non-empty when the PT ring was
          damaged; the decoded prefix is still reported *)
}

val failing : report -> bool

(** Privacy extension (§6): hash a string value into a stable opaque
    token; other values pass through. *)
val redact_value : Exec.Value.t -> Exec.Value.t

(** [run_one ~plan ~wp_allowed program workload] runs one monitored
    client.  [wp_allowed] is this client's share of the cooperative
    watchpoint rotation.  [data_source] (default [Watchpoints]) selects
    the §6 PTWRITE extension instead of debug registers; [redact]
    (default false) hashes string values before they leave the client;
    [tamper] (fault injection) damages a thread's encoded ring bytes
    ([Hw.Pt.Wire]) before decoding, as if the PT ring pages themselves
    were harmed — [""] models a dropped ring. *)
val run_one :
  ?wp_capacity:int ->
  ?preempt_prob:float ->
  ?max_steps:int ->
  ?data_source:Config.data_source ->
  ?redact:bool ->
  ?tamper:(tid:int -> string -> string) ->
  plan:Instrument.Plan.t ->
  wp_allowed:iid list ->
  program ->
  Exec.Interp.workload ->
  report
