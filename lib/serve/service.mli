(** Diagnosis as a service: a deterministic event scheduler
    multiplexing many concurrent {!Gist.Server.Session} diagnoses over
    one shared {!Parallel.Pool}, with admission control, fair
    round-robin budget sharing, typed backpressure — and a crash-only
    lifecycle: every scheduler decision is journaled ({!Journal}),
    the full service state is checkpointed periodically, and
    {!recover} rebuilds a killed service from journal bytes such that
    the diagnoses it goes on to produce are bit-identical to the ones
    the uninterrupted service would have produced.

    Determinism contract: for a fixed submission sequence, every
    per-bug diagnosis the service completes is bit-identical to the
    same spec diagnosed one-shot through {!Gist.Server.diagnose}, at
    any pool size and under any interleaving with other sessions.
    Completion order, round counts and the whole stats ledger are
    likewise independent of [--jobs].  Recovery preserves all of it:
    kill the process after any round, {!recover} from the journal,
    and the remaining completions are the uninterrupted run's, byte
    for byte.

    Blast-radius contract: a session whose granted thunks raise, or
    whose own state machine raises, never takes the service down — the
    failure is contained to that session's typed [Error] completion
    (strikes then quarantine for poisoned thunks, immediate [Crashed]
    for a broken state machine, [Timed_out] for deadline eviction). *)

(** Everything needed to open one bug's diagnosis session.
    [sp_case], when the bug came from the fuzzer, carries the
    generated case so per-cluster artifacts can shrink a standalone
    reproducer; it never influences scheduling or diagnosis. *)
type spec = {
  sp_name : string;
  sp_failure_type : string;
  sp_config : Gist.Config.t;
  sp_ingest : Gist.Server.ingest_mode;
  sp_oracle : (Fsketch.Sketch.t -> bool) option;
  sp_program : Ir.Types.program;
  sp_workload_of : int -> Exec.Interp.workload;
  sp_failure : Exec.Failure.report;
  sp_case : Fuzz.Gen.case option;
}

(** Scheduler shape.  [max_inflight]: concurrent admitted sessions.
    [max_queue]: submissions waiting for admission before {!submit}
    refuses ([0] = no waiting room: refuse once in-flight plus queued
    sessions reach [max_inflight]).
    [quantum]: fleet slots granted per session per round.
    [round_budget]: total slots run per round (>= [quantum]); when
    active sessions want more than the budget, the ring rotates so no
    session waits more than [max_inflight] rounds for service.
    [checkpoint_every_rounds]: journal a full-state checkpoint every
    that many rounds ([0] = only the initial checkpoint and those
    {!checkpoint} writes); recovery replays at most that many rounds.
    [session_deadline_rounds]: evict a session still undiagnosed that
    many rounds after admission ([0] = no deadline).
    [max_session_strikes]: rounds with raising thunks a session
    survives (each substitutes deterministic crash outcomes) before it
    is quarantined.

    Triage (the duplicate-storm front-end; default off, in which case
    every session is admitted on the fresh lane): [triage] turns
    fingerprint-keyed coalescing, the two admission lanes and
    recurrence shedding on.  [max_clusters] bounds the LRU
    cluster table.  [fresh_weight]/[recur_weight] set the
    deficit-round-robin admission ratio between never-seen
    fingerprints and re-diagnoses of known ones.  [recency_rounds]:
    a diagnosed cluster keeps coalescing duplicates for this many
    rounds, after which a duplicate re-opens it as a recurrence-lane
    session ([0] = coalesce for as long as the cluster stays
    tabled). *)
type sconfig = {
  max_inflight : int;
  max_queue : int;
  quantum : int;
  round_budget : int;
  checkpoint_every_rounds : int;
  session_deadline_rounds : int;
  max_session_strikes : int;
  triage : bool;
  max_clusters : int;
  fresh_weight : int;
  recur_weight : int;
  recency_rounds : int;
}

val default : sconfig

(** Why an [sconfig] was refused. *)
type cerror =
  | Bad_inflight of int
  | Bad_queue of int
  | Bad_quantum of int
  | Bad_budget of { budget : int; quantum : int }
  | Bad_checkpoint_every of int
  | Bad_deadline of int
  | Bad_strikes of int
  | Bad_clusters of int
  | Bad_lane_weight of { fresh : int; recur : int }
  | Bad_recency of int

val cerror_to_string : cerror -> string

(** Typed validation; {!create} is [validate] with the [Error] raised
    as [Invalid_argument]. *)
val validate : sconfig -> (sconfig, cerror) result

(** Typed refusals.  [Busy]: the service is saturated (or draining);
    retry after [retry_after_rounds] calls to {!step} — the backlog's
    depth over the round budget, the deterministic earliest point
    admission can plausibly succeed.  [Shed] (triage only): the queue
    bound was hit and the submission is a recurrence of an
    already-diagnosed fingerprint — the shed class under load; fresh
    bugs are never shed.  {!Chaos.drive} is the caller-side policy:
    [Busy] is retried after a round that made progress, while [Shed]
    and a [Busy] from an idle service (one that is draining) are
    final. *)
type sreject =
  | Busy of { inflight : int; queued : int; retry_after_rounds : int }
  | Shed of { queued : int; retry_after_rounds : int }

val sreject_to_string : sreject -> string

(** What {!submit} accepted: a ticketed session, or — with triage on —
    a duplicate coalesced onto cluster [canonical] (the ticket id of
    the session diagnosing, or that diagnosed, this fingerprint);
    [count] is the cluster's recurrence count including this
    arrival.  A coalesced submission opens no session and books no
    queue capacity. *)
type admission =
  | Ticket of int
  | Coalesced of { canonical : int; count : int }

(** The two admission lanes: never-seen fingerprints (and every
    session of a triage-less service) versus re-diagnoses of known
    ones. *)
type lane = Fresh_lane | Recur_lane

val lane_label : lane -> string

(** Why a session was failed rather than diagnosed. *)
type failure_reason =
  | Crashed      (** the session state machine itself raised *)
  | Quarantined  (** [max_session_strikes] rounds of raising thunks *)
  | Timed_out    (** evicted at [session_deadline_rounds] *)

type session_failure = {
  sf_reason : failure_reason;
  sf_detail : string;  (** the exception text, or the deadline *)
  sf_strikes : int;
}

val failure_reason_label : failure_reason -> string
val session_failure_to_string : session_failure -> string

type completion = {
  c_id : int;               (** the ticket {!submit} returned *)
  c_name : string;
  c_result : (Gist.Server.diagnosis, session_failure) result;
  c_admitted_round : int;
  c_completed_round : int;
  c_slots : int;            (** fleet slots this session consumed *)
}

(** Service ledger.  Always balances: [st_submitted] =
    [st_completed] + [st_rejected] + [st_coalesced] + [st_shed] +
    queued + in-flight (the last two are zero after {!drain}) — and
    keeps balancing across {!recover}, eviction and quarantine, since
    every failed session still books a completion ([st_failed] counts
    the [Error] subset of [st_completed]).  [st_max_wait_rounds] is
    the fairness witness: the worst gap, in scheduler rounds, any
    session waited between two services; [st_fresh_wait_rounds] /
    [st_recur_wait_rounds] split the same witness by lane, folding in
    admission-queue waits — the fresh-lane bound is the
    no-starvation-under-storm gate.  [st_divergences] counts recovery
    audit mismatches (journaled digest vs recomputed) — zero unless
    the journal was damaged. *)
type stats = {
  st_submitted : int;
  st_admitted : int;
  st_rejected : int;
  st_completed : int;
  st_failed : int;
  st_rounds : int;
  st_slots : int;
  st_peak_inflight : int;
  st_max_wait_rounds : int;
  st_checkpoints : int;
  st_divergences : int;
  st_coalesced : int;
  st_shed : int;
  st_fresh_admitted : int;
  st_recur_admitted : int;
  st_fresh_wait_rounds : int;
  st_recur_wait_rounds : int;
  st_clusters : int;          (** live cluster-table size *)
  st_evicted_clusters : int;  (** Done clusters dropped by the LRU bound *)
}

(** The completion audit digest of a diagnosis: every field but the
    slice, floats by their bits.  Journaled with each completion and
    folded into the triage cluster table; recovery audits replayed
    completions against it. *)
val diagnosis_digest : Gist.Server.diagnosis -> int

type t

(** A service with its write-ahead journal, which starts with the
    initial checkpoint.
    @raise Invalid_argument on a malformed [sconfig]. *)
val create : ?sconfig:sconfig -> ?pool:Parallel.Pool.t -> unit -> t

val inflight : t -> int
val queued : t -> int

(** Ticket a session for admission, coalesce a duplicate onto its
    cluster (triage only), or refuse with typed backpressure/shedding.
    Ticket ids are unique and become the session's wire-protocol
    session key.  Always refuses while draining.  Triage off is the
    same admission code with no classifier: every submission is
    fresh, with fingerprint 0.  With triage on, the fingerprint is
    computed here (one slice of an already-memoised program).  Every
    decision, refusals included, is journaled as one
    {!Journal.record.Submitted} record. *)
val submit : t -> spec -> (admission, sreject) result

(** One scheduler round (evict expired, admit, grant, run, deliver —
    with containment — finalize, journal, maybe checkpoint, rotate);
    [false] when there is nothing left to do. *)
val step : t -> bool

(** Run rounds until every queued and admitted session completes. *)
val drain : t -> unit

(** Completed sessions, in completion order (deterministic). *)
val completions : t -> completion list

(** {!completions}, harvesting: the internal list is cleared, so a
    long-running service retains nothing per completed session.
    Harvesting also re-arms checkpointing — a checkpoint is only
    written when no unharvested completion could be lost with it. *)
val take_completions : t -> completion list

(** A queued recurrence ticket dropped to make room for a fresh bug —
    load shedding is typed and harvested, never silent.  (A {!submit}
    refused outright gets its [Shed] synchronously; notices exist for
    tickets shed {e after} acceptance.) *)
type shed_notice = {
  sh_id : int;
  sh_name : string;
  sh_fp : int;
  sh_round : int;
  sh_retry_after_rounds : int;
}

(** Harvest shed notices (oldest first), clearing them; like
    {!take_completions}, harvesting re-arms the blocked cadence
    checkpoint. *)
val take_shed : t -> shed_notice list

val stats : t -> stats

(** [None] when the ledger balances with nothing in flight or queued
    ([st_submitted] = [st_completed] + [st_rejected] + [st_coalesced]
    + [st_shed]), as after {!drain}; otherwise every term of the
    identity, rendered for a failure message. *)
val ledger_error : t -> string option

(** {2 Introspection} *)

(** One live session, for a status report. *)
type session_view = {
  v_id : int;
  v_name : string;
  v_lane : lane;
  v_admitted_round : int;
  v_rounds_waiting : int;  (** rounds since last granted slots *)
  v_slots : int;
  v_strikes : int;
  v_progress : Gist.Server.Session.progress;
}

(** Every admitted session, in ring order.  Cheap; never perturbs the
    scheduler. *)
val status : t -> session_view list

(** Lane occupancy: queue depths, live DRR credits, per-lane
    admissions. *)
type lane_view = {
  lv_fresh_queued : int;
  lv_recur_queued : int;
  lv_fresh_credit : int;
  lv_recur_credit : int;
  lv_fresh_admitted : int;
  lv_recur_admitted : int;
}

val lanes : t -> lane_view

(** The cluster table, most recently touched first; empty when triage
    is off.  Cheap; never perturbs the scheduler. *)
val clusters : t -> Triage.view list

val triage_enabled : t -> bool

(** {2 Crash-only lifecycle} *)

(** The journal's bytes so far.  Persist them wherever you like
    ({!Journal.save_file}); any prefix of any call's result is a valid
    recovery input — that is the crash model. *)
val journal_bytes : t -> string

(** Journal a full-state checkpoint now.  [false] — and no record
    written — when completions are waiting to be harvested (a
    checkpoint must never strand a completion: un-harvested results
    are regenerated by replay, harvested ones must not be).

    The checkpoint is service state version 5: the scheduler shape,
    the ledger counters, both lanes' queues, every active session's
    ticket and {!Gist.Server.Session.snapshot} (version 4) and the
    triage table.  Nothing derivable is stored: [st_admitted] is the
    sum of the two lane counters.  A service checkpoints to the same
    bytes in every run.  A checkpoint of another version does not
    decode: {!recover} skips it like a damaged one. *)
val checkpoint : t -> bool

(** Stop admitting: every later {!submit} is refused with [Busy].
    Already-queued and in-flight sessions still run to completion, so
    the ledger balances at shutdown.  The drain is journaled
    ({!Journal.record.Drained}), so recovery replays it; call it
    between service calls, not from a signal handler ({!Chaos.drive}'s
    per-round hook is such a point). *)
val request_drain : t -> unit

(** Why {!recover} refused. *)
type rerror =
  | No_checkpoint
      (** no intact checkpoint record in the bytes — nothing to
          restart from *)
  | Unresolved_spec of string
      (** the journal names a bug [resolve] cannot supply *)
  | Bad_session of { name : string; detail : string }
      (** a checkpointed session snapshot failed {!Gist.Server.Session.restore} *)

val rerror_to_string : rerror -> string

(** [recover ~resolve bytes] rebuilds a killed service from journal
    bytes: restore the newest intact checkpoint (a corrupted one falls
    back to an older one — the initial checkpoint is written by
    {!create}, so an untorn journal always has one), then replay every
    later journaled decision — re-submitting through [resolve],
    re-running rounds — auditing the replayed digests against the
    journaled ones ([st_divergences]).  Scheduler shape comes from the
    checkpoint, not the caller, so replay matches the original.  A
    journaled drain is re-applied where it happened, so submissions
    refused while draining replay as refusals.

    [resolve] maps a bug name back to its spec (specs hold closures
    and cannot live in the journal); it must supply every name the
    journal mentions — refused submissions included, since replay
    re-runs every submission through {!submit}.  {!Chaos.drive}
    resolves through the specs it was given.

    Completions are delivered at-least-once across a kill: replay
    regenerates those completed after the restored checkpoint, even
    if the dead incarnation's caller already took them.  Deduplicate
    by name, first sighting wins ({!Chaos.drive} does).

    The recovered service owns a fresh journal (seeded with a new
    initial checkpoint), so a second kill recovers the same way. *)
val recover :
  ?pool:Parallel.Pool.t ->
  resolve:(string -> spec option) ->
  string ->
  (t, rerror) result
