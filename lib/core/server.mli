(** The Gist server: static slicing, adaptive slice tracking (AsT),
    slice refinement from client reports, statistical predictor
    ranking, and failure-sketch construction (paper Fig. 2, steps 1, 3
    and 5). *)

open Ir.Types

(** Why the adaptive stopping rule ([Config.early_exit]) cut work
    short.  [Separated]: a checkpoint inside the iteration found the
    top predictor's F_beta lower confidence bound above every rival's
    upper bound ({!Predict.Stats.Acc.separated}), so the rest of the
    iteration's client budget was skipped.  [Converged]: the same
    predictor held separation at the end of two consecutive
    non-degraded iterations, so the remaining sigma doublings were
    skipped and the diagnosis stopped. *)
type early_exit = Separated | Converged

(** ["separated"] / ["converged"], for reports and JSON. *)
val early_exit_label : early_exit -> string

(** Per-AsT-iteration progress, for reporting and the Fig. 12 sweep. *)
type iteration_info = {
  it_sigma : int;
  it_tracked : int;
  it_fails : int;
  it_succs : int;
  it_clients : int;
  it_avg_overhead : float;
  it_oracle_pass : bool;
  it_dispatched : int;  (** dispatches, including retries *)
  it_lost : int;        (** crashed / dropped / timed-out dispatches *)
  it_rejected : int;    (** reports refused by {!Protocol.Encode.ingest} *)
  it_retried : int;     (** re-dispatches after a loss or rejection *)
  it_quarantined : int; (** slots abandoned after [max_retries] *)
  it_degraded : bool;   (** valid reports stayed below quorum *)
  it_early_exit : early_exit option;
      (** adaptive stopping-rule verdict; always [None] when
          [Config.early_exit] is off *)
}

(** Fleet-protocol health across the whole diagnosis. *)
type fleet_stats = {
  f_dispatched : int;
  f_delivered : int;  (** reports that arrived (valid + rejected) *)
  f_valid : int;
  f_lost : int;
  f_rejected : int;
  f_retried : int;
  f_quarantined : int;
  f_degraded_iters : int;
  f_by_kind : (string * int) list;
      (** injected fault kind ({!Faults.Fault.kind_name}) -> count *)
  f_by_reason : (string * int) list;
      (** rejection reason ({!Protocol.reject_label}) -> count *)
}

(** How valid reports feed refinement and ranking.

    [Streaming] (the default, and the production path): each accepted
    report is folded into per-predictor sufficient statistics
    ({!Predict.Stats.Acc}) and the confirmed/discovered sets the
    moment it is consumed, then dropped — server state per iteration
    is O(slice), not O(fleet).

    [Retained] is the reference oracle: accepted reports are retained
    and refinement replays the original batch loop.  Both modes share
    the wire protocol, fault regime and slot ordering, and produce
    bit-identical diagnoses. *)
type ingest_mode = Streaming | Retained

type diagnosis = {
  sketch : Fsketch.Sketch.t;
  slice : Slicing.Slicer.t;
  iterations : int;
  recurrences : int;  (** matching failing runs AsT consumed (Table 1) *)
  total_runs : int;   (** monitored production runs *)
  avg_overhead_pct : float;
      (** fleet-wide: aggregate extra cycles over aggregate base cycles *)
  final_sigma : int;
  tracked : iid list; (** statements tracked in the last iteration *)
  trace : iteration_info list;
  fleet : fleet_stats;
}

(** Split watchpoint targets into rotation groups of at most
    [wp_capacity]; client [c] arms group [c mod n] (§3.2.3's
    cooperative approach).  Always returns at least one (possibly
    empty) group.
    @raise Invalid_argument if [wp_capacity <= 0]. *)
val wp_groups : wp_capacity:int -> iid list -> iid list list

(** One bug's AsT diagnosis as an event-driven state machine, for
    drivers that multiplex many concurrent diagnoses over one pool
    (the [Serve] service; {!diagnose} is the one-session case).

    Protocol: ask {!need}; on [Slots n], take up to [n] thunks with
    {!grant} and run them anywhere (they are pure — any order, any
    domain); hand every outcome of a grant back with {!deliver}, in
    grant order; repeat until [Finished], then read {!result}.

    Drivers may speculate: grant more slots than the fold will
    consume, run them concurrently, and deliver the whole batch —
    the in-order fold counts the outcome that decides to stop as
    consumed and discards every later one unconsumed.  Because all accounting happens in [deliver], in slot
    order, every field of the diagnosis is a pure function of the
    session's inputs: bit-identical whatever the batching,
    interleaving with other sessions, or pool size. *)
module Session : sig
  type t

  (** What the session wants next.  [Slots n]: up to [n] more fleet
      slots this gathering pass ([Slots 0] only while speculative
      outcomes are still outstanding — deliver them).  [Finished]:
      {!result} is ready. *)
  type need = Slots of int | Finished

  (** One fleet slot's outcome, opaque: produced by a granted thunk,
      meaningful only to {!deliver} on the same session. *)
  type outcome

  (** [create ~bug_name ~failure_type ~program ~workload_of ~failure ()]
      runs the offline phase (slice, via {!Analysis.Cache}) and arms
      the first iteration.  [id] (default 0) keys this session's wire
      envelopes ({!Protocol.envelope}[.e_session]); a multi-bug driver
      must give each live session a distinct id so mis-routed reports
      are rejected, not silently folded into another bug's statistics.
      The id never influences the diagnosis result.
      @raise Config.Invalid if [config] fails {!Config.validate}. *)
  val create :
    ?config:Config.t ->
    ?ingest:ingest_mode ->
    ?oracle:(Fsketch.Sketch.t -> bool) ->
    ?id:int ->
    bug_name:string ->
    failure_type:string ->
    program:program ->
    workload_of:(int -> Exec.Interp.workload) ->
    failure:Exec.Failure.report ->
    unit ->
    t

  (** Advances through all non-gathering work (pass wrap-up, quorum
      re-runs, refinement, ranking, the next iteration's plan) until
      the session either needs slots or is done. *)
  val need : t -> need

  (** [grant t k] hands out up to [k] slot thunks (fewer near the end
      of a pass's budget; [[||]] when stopped or finished).  Each
      thunk is pure and reentrant w.r.t. the session's mutable state. *)
  val grant : t -> int -> (unit -> outcome) array

  (** Fold a granted batch's outcomes back, in grant order.  Must
      receive every outcome of every grant, exactly once. *)
  val deliver : t -> outcome array -> unit

  (** @raise Invalid_argument before {!need} returns [Finished]. *)
  val result : t -> diagnosis

  (** {2 Introspection} *)

  (** A cheap live view of the state machine, for a service status
      report.  Reading it never perturbs the session. *)
  type progress = {
    p_iteration : int;
    p_sigma : int;
    p_tracked : int;    (** statements tracked this iteration *)
    p_clients : int;    (** fleet slots consumed this iteration *)
    p_valid : int;      (** accepted reports this iteration *)
    p_fails : int;
    p_succs : int;
    p_total_runs : int; (** monitored production runs, whole session *)
    p_finished : bool;
  }

  val progress : t -> progress

  (** Running digest of every report this session accepted, in consume
      order (wire digests folded through {!Exec.Rng.mix}).  Two
      sessions that consumed the same reports in the same order agree;
      the recovery audit compares it against the journaled value. *)
  val audit : t -> int

  (** The outcome the containment layer substitutes for a granted
      thunk that raised: deterministic "client crashed, nothing
      arrived", so a poisoned slot degrades exactly like a fleet-fault
      crash instead of killing the service. *)
  val crashed_outcome : outcome

  (** {2 Crash-only snapshots}

      The session state machine as versioned (version 4),
      digest-checked bytes: a {!Hw.Codec.frame} around one record
      codec that embeds reports with {!Protocol.Encode.report}.  Only
      state that cannot be recomputed is persisted: the AsT sets and
      predictor statistics, the iteration trace, the fault and
      rejection tallies, the iteration in progress and its gathering
      pass.  Restore recomputes the rest: plans and watchpoint groups
      from the serialized tracked lists, and the iteration count,
      client counter, recurrences, run totals and fleet stats as folds
      over the trace, so a total and its parts cannot disagree in the
      bytes.  Snapshots are O(slice + trace), and a restored session is
      a bit-identical continuation: the same grants, deliveries,
      snapshots and final diagnosis as the never-interrupted original,
      and two equal sessions snapshot to equal bytes. *)

  (** Why bytes were refused by {!restore}. *)
  type snapshot_error =
    | Snapshot_truncated
    | Snapshot_bad_magic
    | Snapshot_bad_version of int
    | Snapshot_bad_digest  (** framing intact, checksum wrong *)
    | Snapshot_mismatch of string
        (** valid bytes, wrong spec or impossible state: bug name,
            ingest mode, early-exit flag or program shape disagree with
            the restore arguments, a tracked statement is not in the
            program, the gathering pass's counters contradict each
            other (consumed <= granted <= budget, valid <= consumed),
            or the ledger breaks an identity the session maintains:
            the iteration in progress dispatched exactly its lost,
            rejected and valid reports, at least once per client, with
            no more fails + successes than valid reports; every trace
            entry lost and rejected at most what it dispatched and
            retried exactly dispatches - clients; the rejection
            reasons sum to the rejections.  The string names the
            check. *)

  val snapshot_error_to_string : snapshot_error -> string

  (** Serialize the session.  Only legal at a quiescent point: every
      granted thunk delivered and the session not yet finished.
      @raise Invalid_argument mid-grant or after [Finished]. *)
  val snapshot : t -> string

  (** [restore ~bug_name ~failure_type ~program ~workload_of ~failure
      bytes] rebuilds the session from {!snapshot} output plus the
      same create-time spec.  [config], [ingest] and [oracle] must
      match the original [create] (the codec cross-checks what it
      can: bug name, ingest mode, early-exit flag, program shape, the
      gathering counters against each other, and the ledger
      identities listed under [Snapshot_mismatch]).  Bytes of another
      snapshot version are refused with [Snapshot_bad_version].
      Never raises on any bytes. *)
  val restore :
    ?config:Config.t ->
    ?ingest:ingest_mode ->
    ?oracle:(Fsketch.Sketch.t -> bool) ->
    bug_name:string ->
    failure_type:string ->
    program:program ->
    workload_of:(int -> Exec.Interp.workload) ->
    failure:Exec.Failure.report ->
    string ->
    (t, snapshot_error) result
end

(** [diagnose ~bug_name ~failure_type ~program ~workload_of ~failure ()]
    runs the full pipeline: slice, then AsT iterations (track the sigma
    closest slice statements plus everything watchpoints discovered,
    gather failing/successful monitored runs, refine, rank predictors,
    build the sketch) until [oracle] — the developer of §3.2.1 — is
    satisfied, sigma exceeds the slice, or [config.max_iterations] is
    reached.

    Every report travels in a {!Protocol} envelope and is validated
    before aggregation; when [config.fault_rates] is non-zero, faults
    are injected deterministically from [config.fault_seed].  Lost and
    rejected dispatches are retried up to twice, then the slot is
    quarantined; an iteration whose valid reports stay below half of
    its slots re-runs once with fresh clients and, still
    short of quorum, degrades — sigma is carried forward instead of
    doubled.

    [pool] (default: sequential) dispatches the fleet slots of each
    AsT iteration across domains.  Each slot — its run, any injected
    faults, retries and validation — is a pure function of its index
    and the iteration's instrumentation plan, and results are consumed
    in slot order, so the resulting diagnosis — sketch, recurrences,
    total runs, per-iteration trace, fleet stats — is bit-identical to
    the sequential run whatever the pool size.

    When [config.early_exit] is on, the sequential stopping rule runs
    on top: at fixed consumed-slot checkpoints (every
    [config.checkpoint_every] slots — report counts, never wall-clock,
    so decisions stay bit-identical at any pool size) the iteration
    stops the moment {!Predict.Stats.Acc.separated} holds at error
    rate [config.separation_delta] and the iteration's valid fraction
    still meets quorum; the whole diagnosis stops once the same
    predictor holds separation after two consecutive non-degraded
    iterations.  Degraded iterations suppress both (and reset the
    streak): counts thinned by faults must not steer the rule.

    @raise Config.Invalid if [config] fails {!Config.validate}. *)
val diagnose :
  ?config:Config.t ->
  ?pool:Parallel.Pool.t ->
  ?ingest:ingest_mode ->
  ?oracle:(Fsketch.Sketch.t -> bool) ->
  bug_name:string ->
  failure_type:string ->
  program:program ->
  workload_of:(int -> Exec.Interp.workload) ->
  failure:Exec.Failure.report ->
  unit ->
  diagnosis

(** Did the adaptive rule stop this diagnosis (any iteration recorded
    [Converged])?  Always false when [Config.early_exit] was off. *)
val converged : diagnosis -> bool
