(* Diagnosis as a service: a deterministic scheduler multiplexing many
   {!Gist.Server.Session} state machines over one shared pool.

   One scheduler round: evict sessions past their deadline, admit
   queued submissions up to the in-flight cap, walk the active ring
   granting each session up to [quantum] fleet slots (never more than
   [round_budget] across the round), run every granted thunk in ONE
   parallel batch over the shared pool — each thunk wrapped so a raise
   becomes a value, not a service crash — deliver each session its
   outcome segment in ring order (substituting deterministic crash
   outcomes for raising slots, striking the session, quarantining it
   at the strike limit), finalize whatever finished, journal the
   round's audit digest, maybe checkpoint, then move the sessions just
   served to the back of the ring so budget exhaustion cannot starve
   the tail.

   Determinism: admission order is submission order; grant order is
   ring order; the single [Pool.map_array] per round returns outcomes
   in submission order whatever the job count.  Because a session's
   own outcome fold is in its own slot order regardless of what the
   scheduler interleaves between grants, every diagnosis the service
   produces is bit-identical to the same spec run through the
   one-shot [Gist.Server.diagnose].

   Crash-only lifecycle: the journal records exactly the inputs and
   decisions that cannot be re-derived — submissions (accepted and
   refused, so ticket ids replay exactly), drain requests, per-round
   audit digests, completion digests — plus periodic full-state
   checkpoints.  [recover] =
   restore the newest intact checkpoint, then re-run the journaled
   tail through the very same [submit]/[step] code, auditing replayed
   digests against journaled ones.  Everything a round does is a pure
   function of service state, so replay converges on the
   uninterrupted run byte for byte. *)

module Server = Gist.Server
module Session = Gist.Server.Session
module C = Hw.Codec

type spec = {
  sp_name : string;
  sp_failure_type : string;
  sp_config : Gist.Config.t;
  sp_ingest : Server.ingest_mode;
  sp_oracle : (Fsketch.Sketch.t -> bool) option;
  sp_program : Ir.Types.program;
  sp_workload_of : int -> Exec.Interp.workload;
  sp_failure : Exec.Failure.report;
  sp_case : Fuzz.Gen.case option;
}

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

let default =
  {
    max_inflight = 16;
    max_queue = 64;
    quantum = 8;
    round_budget = 64;
    checkpoint_every_rounds = 8;
    session_deadline_rounds = 0;
    max_session_strikes = 3;
    triage = false;
    max_clusters = 256;
    fresh_weight = 4;
    recur_weight = 1;
    recency_rounds = 0;
  }

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

let cerror_to_string = function
  | Bad_inflight n ->
    Printf.sprintf "Service: max_inflight must be > 0 (got %d)" n
  | Bad_queue n -> Printf.sprintf "Service: max_queue must be >= 0 (got %d)" n
  | Bad_quantum n -> Printf.sprintf "Service: quantum must be > 0 (got %d)" n
  | Bad_budget { budget; quantum } ->
    Printf.sprintf "Service: round_budget (%d) must be >= quantum (%d)" budget
      quantum
  | Bad_checkpoint_every n ->
    Printf.sprintf
      "Service: checkpoint_every_rounds must be >= 0 (got %d; 0 disables the \
       cadence)"
      n
  | Bad_deadline n ->
    Printf.sprintf
      "Service: session_deadline_rounds must be >= 0 (got %d; 0 disables \
       eviction)"
      n
  | Bad_strikes n ->
    Printf.sprintf "Service: max_session_strikes must be > 0 (got %d)" n
  | Bad_clusters n ->
    Printf.sprintf "Service: max_clusters must be > 0 (got %d)" n
  | Bad_lane_weight { fresh; recur } ->
    Printf.sprintf
      "Service: lane weights must be > 0 (got fresh %d, recurrence %d)" fresh
      recur
  | Bad_recency n ->
    Printf.sprintf
      "Service: recency_rounds must be >= 0 (got %d; 0 coalesces for as long \
       as the cluster stays tabled)"
      n

let validate c =
  if c.max_inflight <= 0 then Error (Bad_inflight c.max_inflight)
  else if c.max_queue < 0 then Error (Bad_queue c.max_queue)
  else if c.quantum <= 0 then Error (Bad_quantum c.quantum)
  else if c.round_budget < c.quantum then
    Error (Bad_budget { budget = c.round_budget; quantum = c.quantum })
  else if c.checkpoint_every_rounds < 0 then
    Error (Bad_checkpoint_every c.checkpoint_every_rounds)
  else if c.session_deadline_rounds < 0 then
    Error (Bad_deadline c.session_deadline_rounds)
  else if c.max_session_strikes <= 0 then
    Error (Bad_strikes c.max_session_strikes)
  else if c.max_clusters <= 0 then Error (Bad_clusters c.max_clusters)
  else if c.fresh_weight <= 0 || c.recur_weight <= 0 then
    Error (Bad_lane_weight { fresh = c.fresh_weight; recur = c.recur_weight })
  else if c.recency_rounds < 0 then Error (Bad_recency c.recency_rounds)
  else Ok c

type sreject =
  | Busy of { inflight : int; queued : int; retry_after_rounds : int }
  | Shed of { queued : int; retry_after_rounds : int }

let sreject_to_string = function
  | Busy { inflight; queued; retry_after_rounds } ->
    Printf.sprintf
      "service saturated: %d sessions in flight, %d queued for admission; \
       retry after %d rounds"
      inflight queued retry_after_rounds
  | Shed { queued; retry_after_rounds } ->
    Printf.sprintf
      "recurrence shed under load: %d queued for admission; retry after %d \
       rounds"
      queued retry_after_rounds

(* What {!submit} accepted. *)
type admission =
  | Ticket of int
  | Coalesced of { canonical : int; count : int }

(* The two admission lanes: unseen fingerprints (and every session of
   a triage-less service) versus re-diagnoses of already-seen ones. *)
type lane = Fresh_lane | Recur_lane

let lane_label = function Fresh_lane -> "fresh" | Recur_lane -> "recur"

(* Journal disposition codes for [Journal.Submitted]. *)
let disp_fresh = 0
and disp_recur = 1
and disp_coalesced = 2
and disp_shed = 3
and disp_busy = 4

type failure_reason = Crashed | Quarantined | Timed_out

let failure_reason_label = function
  | Crashed -> "crashed"
  | Quarantined -> "quarantined"
  | Timed_out -> "timed-out"

type session_failure = {
  sf_reason : failure_reason;
  sf_detail : string;
  sf_strikes : int;
}

let session_failure_to_string f =
  Printf.sprintf "%s (%d strikes): %s"
    (failure_reason_label f.sf_reason)
    f.sf_strikes f.sf_detail

type completion = {
  c_id : int;
  c_name : string;
  c_result : (Server.diagnosis, session_failure) result;
  c_admitted_round : int;
  c_completed_round : int;
  c_slots : int;
}

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
  st_clusters : int;
  st_evicted_clusters : int;
}

(* One submission waiting for admission. *)
type pending = {
  p_id : int;
  p_spec : spec;
  p_fp : int; (* 0 when triage is off *)
  p_round : int; (* round counter at submission, for lane wait stats *)
  (* when this ticket re-opened a [Done] cluster: the canonical and
     round to restore if the ticket is shed before admission *)
  p_revert : (int * int) option;
}

(* One admitted session and its scheduling ledger. *)
type active = {
  a_id : int;
  a_name : string;
  a_lane : lane;
  a_fp : int;
  a_session : Session.t;
  a_admitted_round : int;
  mutable a_last_served : int;
  mutable a_slots : int;
  mutable a_strikes : int;
}

(* A queued recurrence ticket shed to make room for a fresh bug —
   typed, harvested like completions, never silent. *)
type shed_notice = {
  sh_id : int;
  sh_name : string;
  sh_fp : int;
  sh_round : int;
  sh_retry_after_rounds : int;
}

type t = {
  cfg : sconfig;
  pool : Parallel.Pool.t;
  journal : Journal.t;
  queue : pending Queue.t; (* fresh lane; the only lane w/o triage *)
  rqueue : pending Queue.t; (* recurrence lane (triage only) *)
  triage : Triage.t option;
  mutable active : active list; (* ring order; admission appends *)
  mutable completions : completion list; (* newest first *)
  mutable sheds : shed_notice list; (* newest first *)
  mutable draining : bool;
  (* ticket id -> journaled completion digest, populated by recovery
     replay and consumed (audited) as the replay re-completes them *)
  expected : (int, int) Hashtbl.t;
  mutable submitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
  mutable coalesced : int;
  mutable shed : int;
  mutable fresh_admitted : int;
  mutable recur_admitted : int;
  mutable fresh_wait : int;
  mutable recur_wait : int;
  (* deficit-round-robin lane credits; refilled by weight when both
     lanes contend, zeroed when contention ends *)
  mutable fresh_credit : int;
  mutable recur_credit : int;
  mutable rounds : int;
  mutable slots : int;
  mutable peak_inflight : int;
  mutable max_wait : int;
  mutable checkpoints : int;
  mutable divergences : int;
  mutable last_round_digest : int;
  (* a cadence checkpoint was skipped because completions were waiting
     to be harvested; written at the next harvest instead *)
  mutable ckpt_due : bool;
}

let inflight t = List.length t.active
let queued t = Queue.length t.queue + Queue.length t.rqueue

let jrnl t r = Journal.append t.journal r

(* ------------------------------------------------------------------ *)
(* Audit digests. *)

let mix = Exec.Rng.mix

(* Strings fold by their digest, floats by their bits. *)
let mix_string acc s = mix acc (Hw.Codec.digest ~key:[] s)

let mix_float acc x =
  let b = Int64.bits_of_float x in
  mix
    (mix acc (Int64.to_int (Int64.shift_right_logical b 32)))
    (Int64.to_int (Int64.logand b 0xFFFF_FFFFL))

let mix_bool acc b = mix acc (Bool.to_int b)

(* Every field the diagnosis differential compares, folded one field
   at a time, so no part of a trace entry or of the fleet ledger
   falls outside the audit. *)
let diagnosis_digest (d : Server.diagnosis) =
  let ints = List.fold_left mix in
  let assoc acc l =
    List.fold_left
      (fun acc (k, v) -> mix (mix_string acc k) v)
      (mix acc (List.length l)) l
  in
  let iteration acc (it : Server.iteration_info) =
    let acc =
      ints acc
        [ it.it_sigma; it.it_tracked; it.it_fails; it.it_succs; it.it_clients;
          it.it_dispatched; it.it_lost; it.it_rejected; it.it_retried;
          it.it_quarantined ]
    in
    let acc = mix_float acc it.it_avg_overhead in
    let acc = mix_bool (mix_bool acc it.it_oracle_pass) it.it_degraded in
    mix acc
      (match it.it_early_exit with
       | None -> 0
       | Some Server.Separated -> 1
       | Some Server.Converged -> 2)
  in
  let f = d.fleet in
  let ds = mix_string 0x6A09 (Fsketch.Render.render d.sketch) in
  let ds =
    ints ds [ d.iterations; d.recurrences; d.total_runs; d.final_sigma ]
  in
  let ds = mix_float ds d.avg_overhead_pct in
  let ds = ints (mix ds (List.length d.tracked)) d.tracked in
  let ds = List.fold_left iteration (mix ds (List.length d.trace)) d.trace in
  let ds =
    ints ds
      [ f.f_dispatched; f.f_delivered; f.f_valid; f.f_lost; f.f_rejected;
        f.f_retried; f.f_quarantined; f.f_degraded_iters ]
  in
  assoc (assoc ds f.f_by_kind) f.f_by_reason

let result_digest = function
  | Ok d -> diagnosis_digest d
  | Error f ->
    let tag =
      match f.sf_reason with
      | Crashed -> 101
      | Quarantined -> 102
      | Timed_out -> 103
    in
    mix_string (mix tag f.sf_strikes) f.sf_detail

(* ------------------------------------------------------------------ *)
(* Triage fingerprinting.  The salt folds the spec's config and ingest
   mode: two submissions of the same bug under different configs are
   different artifacts and must not coalesce.  The record patterns
   name every field, so a new config field does not compile until the
   salt folds it.  The literals [2] and [0.5] stand where the retired
   [max_retries] and [quorum_frac] fields were folded (today's
   [Server] constants), so every fingerprint keeps its bytes. *)

let spec_salt sp =
  let { Gist.Config.sigma0; max_iterations; fail_quota; succ_quota;
        max_clients_per_iter; wp_capacity; enable_cf; enable_df;
        preempt_prob; max_steps; data_source; range_predicates;
        redact_values; fault_rates; fault_seed; early_exit; separation_delta;
        checkpoint_every } = sp.sp_config in
  let { Faults.Fault.crash; drop; pt_truncate; pt_corrupt; wp_corrupt;
        straggler; stale_plan } = fault_rates in
  let acc =
    List.fold_left mix
      (match sp.sp_ingest with Server.Streaming -> 1 | Retained -> 2)
      [ sigma0; max_iterations; fail_quota; succ_quota; max_clients_per_iter;
        wp_capacity; max_steps;
        (match data_source with Gist.Config.Watchpoints -> 1 | Ptwrite -> 2);
        fault_seed; 2; checkpoint_every ]
  in
  let acc =
    List.fold_left mix_bool acc
      [ enable_cf; enable_df; range_predicates; redact_values; early_exit ]
  in
  List.fold_left mix_float acc
    [ preempt_prob; 0.5; separation_delta; crash; drop; pt_truncate;
      pt_corrupt; wp_corrupt; straggler; stale_plan ]

let fingerprint_of_spec sp =
  Fsketch.Fingerprint.to_int
    (Fsketch.Fingerprint.compute ~salt:(spec_salt sp) sp.sp_program
       sp.sp_failure)

(* ------------------------------------------------------------------ *)

type rerror =
  | No_checkpoint
  | Unresolved_spec of string
  | Bad_session of { name : string; detail : string }

let rerror_to_string = function
  | No_checkpoint -> "recover: no intact checkpoint in the journal"
  | Unresolved_spec name ->
    Printf.sprintf "recover: no spec resolves bug %S" name
  | Bad_session { name; detail } ->
    Printf.sprintf "recover: session %S refused its snapshot: %s" name detail

(* A service with nothing submitted yet: what [create] starts from and
   what a decoded checkpoint overlays. *)
let fresh ~pool cfg =
  {
    cfg;
    pool;
    journal = Journal.create ();
    queue = Queue.create ();
    rqueue = Queue.create ();
    triage =
      (if cfg.triage then
         Some
           (Triage.create ~max_clusters:cfg.max_clusters
              ~recency_rounds:cfg.recency_rounds)
       else None);
    active = [];
    completions = [];
    sheds = [];
    draining = false;
    expected = Hashtbl.create 16;
    submitted = 0;
    rejected = 0;
    completed = 0;
    failed = 0;
    coalesced = 0;
    shed = 0;
    fresh_admitted = 0;
    recur_admitted = 0;
    fresh_wait = 0;
    recur_wait = 0;
    fresh_credit = 0;
    recur_credit = 0;
    rounds = 0;
    slots = 0;
    peak_inflight = 0;
    max_wait = 0;
    checkpoints = 0;
    divergences = 0;
    last_round_digest = 0;
    ckpt_due = false;
  }

(* Checkpoint codec: the whole service, sessions as
   [Session.snapshot] bytes, queued and active specs by name (specs
   hold closures; recovery re-resolves them).  Version 2 added the
   triage front-end: lane queues, DRR credits, lane counters and the
   cluster table.  Version 3 dropped the admitted counter, which is
   the sum of the two lane counters, and embeds version-2 session
   snapshots.  Version 4 embeds version-3 session snapshots, which
   dropped the simulated fleet delay.  Version 5 embeds version-4
   session snapshots and hashes triage fingerprints over explicit
   fields.

   Decoding yields a rebuild function: resolving names to specs and
   restoring sessions needs the caller's resolver, and its refusals
   ([Recover_failed]) are hard errors no older checkpoint can fix,
   unlike undecodable bytes. *)

let state_version = 5

exception Recover_failed of rerror

let resolve_exn resolve name =
  match resolve name with
  | Some sp -> sp
  | None -> raise (Recover_failed (Unresolved_spec name))

(* A recovered config passes the same validation as a fresh one. *)
let sconfig_codec : sconfig C.t =
  C.(
    conv Fun.id
      (fun c ->
        match validate c with Ok c -> c | Error e -> invalid (cerror_to_string e))
      (record
         (fun max_inflight max_queue quantum round_budget checkpoint_every_rounds
              session_deadline_rounds max_session_strikes triage max_clusters
              fresh_weight recur_weight recency_rounds ->
           {
             max_inflight;
             max_queue;
             quantum;
             round_budget;
             checkpoint_every_rounds;
             session_deadline_rounds;
             max_session_strikes;
             triage;
             max_clusters;
             fresh_weight;
             recur_weight;
             recency_rounds;
           })
         (fields
         |+ (uint, fun c -> c.max_inflight)
         |+ (uint, fun c -> c.max_queue)
         |+ (uint, fun c -> c.quantum)
         |+ (uint, fun c -> c.round_budget)
         |+ (uint, fun c -> c.checkpoint_every_rounds)
         |+ (uint, fun c -> c.session_deadline_rounds)
         |+ (uint, fun c -> c.max_session_strikes)
         |+ (bool, fun c -> c.triage)
         |+ (uint, fun c -> c.max_clusters)
         |+ (uint, fun c -> c.fresh_weight)
         |+ (uint, fun c -> c.recur_weight)
         |+ (uint, fun c -> c.recency_rounds))))

let pending_codec =
  C.(
    record
      (fun p_id name p_fp p_round p_revert resolve ->
        { p_id; p_spec = resolve_exn resolve name; p_fp; p_round; p_revert })
      (fields
      |+ (uint, fun p -> p.p_id)
      |+ (string, fun p -> p.p_spec.sp_name)
      |+ (uint, fun p -> p.p_fp)
      |+ (uint, fun p -> p.p_round)
      |+ (option (pair uint uint), fun p -> p.p_revert)))

let active_codec =
  C.(
    record
      (fun a_id a_name a_lane a_fp a_admitted_round a_last_served a_slots
           a_strikes snap resolve ->
        let sp = resolve_exn resolve a_name in
        match
          Session.restore ~config:sp.sp_config ~ingest:sp.sp_ingest
            ?oracle:sp.sp_oracle ~bug_name:sp.sp_name
            ~failure_type:sp.sp_failure_type ~program:sp.sp_program
            ~workload_of:sp.sp_workload_of ~failure:sp.sp_failure snap
        with
        | Error e ->
          raise
            (Recover_failed
               (Bad_session
                  { name = a_name; detail = Session.snapshot_error_to_string e }))
        | Ok a_session ->
          {
            a_id;
            a_name;
            a_lane;
            a_fp;
            a_session;
            a_admitted_round;
            a_last_served;
            a_slots;
            a_strikes;
          })
      (fields
      |+ (uint, fun a -> a.a_id)
      |+ (string, fun a -> a.a_name)
      |+ (variant [ const 0 Fresh_lane; const 1 Recur_lane ], fun a -> a.a_lane)
      |+ (uint, fun a -> a.a_fp)
      |+ (uint, fun a -> a.a_admitted_round)
      |+ (uint, fun a -> a.a_last_served)
      |+ (uint, fun a -> a.a_slots)
      |+ (uint, fun a -> a.a_strikes)
      |+ (string, fun a -> Session.snapshot a.a_session)))

let queue_list q = List.of_seq (Queue.to_seq q)

let state_codec =
  C.versioned state_version
    C.(
      record
        (fun cfg submitted rejected completed failed coalesced shed
             fresh_admitted recur_admitted fresh_wait recur_wait fresh_credit
             recur_credit rounds slots peak_inflight max_wait divergences
             draining queue rqueue active triage ~pool ~resolve ->
          (* Resolve in byte order: the first unresolvable name wins. *)
          let resolved l = Queue.of_seq (List.to_seq (List.map (fun p -> p resolve) l)) in
          let queue = resolved queue in
          let rqueue = resolved rqueue in
          let active = List.map (fun a -> a resolve) active in
          {
            (fresh ~pool cfg) with
            queue;
            rqueue;
            triage;
            active;
            draining;
            submitted;
            rejected;
            completed;
            failed;
            coalesced;
            shed;
            fresh_admitted;
            recur_admitted;
            fresh_wait;
            recur_wait;
            fresh_credit;
            recur_credit;
            rounds;
            slots;
            peak_inflight;
            max_wait;
            divergences;
          })
        (fields
        |+ (sconfig_codec, fun t -> t.cfg)
        |+ (uint, fun t -> t.submitted)
        |+ (uint, fun t -> t.rejected)
        |+ (uint, fun t -> t.completed)
        |+ (uint, fun t -> t.failed)
        |+ (uint, fun t -> t.coalesced)
        |+ (uint, fun t -> t.shed)
        |+ (uint, fun t -> t.fresh_admitted)
        |+ (uint, fun t -> t.recur_admitted)
        |+ (uint, fun t -> t.fresh_wait)
        |+ (uint, fun t -> t.recur_wait)
        |+ (uint, fun t -> t.fresh_credit)
        |+ (uint, fun t -> t.recur_credit)
        |+ (uint, fun t -> t.rounds)
        |+ (uint, fun t -> t.slots)
        |+ (uint, fun t -> t.peak_inflight)
        |+ (uint, fun t -> t.max_wait)
        |+ (uint, fun t -> t.divergences)
        |+ (bool, fun t -> t.draining)
        |+ (list pending_codec, fun t -> queue_list t.queue)
        |+ (list pending_codec, fun t -> queue_list t.rqueue)
        |+ (list active_codec, fun t -> t.active)
        |+ (option Triage.codec, fun t -> t.triage)))

(* ------------------------------------------------------------------ *)

let do_checkpoint t =
  if t.completions <> [] || t.sheds <> [] then false
  else begin
    t.checkpoints <- t.checkpoints + 1;
    jrnl t
      (Journal.Checkpoint { round = t.rounds; state = C.encode state_codec t });
    (* The journal lives in memory for the service's whole life:
       without compaction the dead prefix grows without bound (the
       serve soak's flat-heap gate is what catches this). *)
    Journal.compact t.journal;
    true
  end

let create ?(sconfig = default) ?(pool = Parallel.Pool.sequential) () =
  let cfg =
    match validate sconfig with
    | Ok c -> c
    | Error e -> invalid_arg (cerror_to_string e)
  in
  let t = fresh ~pool cfg in
  (* The initial checkpoint: an untorn journal always has something to
     restart from. *)
  ignore (do_checkpoint t);
  t

(* Deterministic backpressure hint: rounds to chew through the backlog
   at the configured budget rate — the earliest step count at which a
   retry can plausibly be admitted. *)
let retry_hint cfg ~queued =
  max 1 (((queued * cfg.quantum) + cfg.round_budget - 1) / cfg.round_budget)

(* Drop the most recently queued recurrence ticket (FIFO fairness:
   the oldest waiter keeps its place), booking it shed — with a typed
   notice, never silently — and restoring its cluster.  [None] when
   the recurrence lane is empty. *)
let shed_newest_recurrence t =
  if Queue.is_empty t.rqueue then None
  else begin
    let keep = Queue.length t.rqueue - 1 in
    let rec pop i =
      let p = Queue.take t.rqueue in
      if i < keep then begin
        Queue.add p t.rqueue;
        pop (i + 1)
      end
      else p
    in
    let victim = pop 0 in
    t.shed <- t.shed + 1;
    (match (t.triage, victim.p_revert) with
     | Some tri, Some (canonical, done_round) ->
       Triage.revert_reopen tri ~fp:victim.p_fp ~canonical ~done_round
     | _ -> ());
    t.sheds <-
      {
        sh_id = victim.p_id;
        sh_name = victim.p_spec.sp_name;
        sh_fp = victim.p_fp;
        sh_round = t.rounds;
        sh_retry_after_rounds = retry_hint t.cfg ~queued:(queued t);
      }
      :: t.sheds;
    Some victim
  end

(* Admission control: a submission is ticketed into its lane,
   coalesced onto an existing cluster, or refused with typed
   backpressure ([Busy]) or load shedding ([Shed]) — never buffered
   unboundedly, never dropped silently.  Every submission, whatever
   its fate, is booked and journaled, so the ledger always balances —
   and replays exactly: submitted = completed + rejected + coalesced
   + shed + queued + in-flight.

   Without triage every submission is [New] with fingerprint 0 and
   the recurrence lane stays empty, so [room] reduces to the plain
   queue bound.

   [submit_triaged] additionally returns the journal disposition code
   and the fingerprint so the recovery replay can audit re-derived
   decisions; the public [submit] discards them. *)
let submit_triaged t spec =
  t.submitted <- t.submitted + 1;
  let id = t.submitted in
  let name = spec.sp_name in
  let fp =
    match t.triage with None -> 0 | Some _ -> fingerprint_of_spec spec
  in
  let record disp = jrnl t (Journal.Submitted { id; name; fp; disp }) in
  let with_triage f = Option.iter f t.triage in
  let busy () =
    t.rejected <- t.rejected + 1;
    record disp_busy;
    ( Error
        (Busy
           {
             inflight = inflight t;
             queued = queued t;
             retry_after_rounds = retry_hint t.cfg ~queued:(queued t);
           }),
      disp_busy )
  in
  let shed () =
    t.shed <- t.shed + 1;
    record disp_shed;
    ( Error
        (Shed
           {
             queued = queued t;
             retry_after_rounds = retry_hint t.cfg ~queued:(queued t);
           }),
      disp_shed )
  in
  (* Is there room for one more pending ticket?  [`Evict] when only
     shedding a queued recurrence can make room.  With no waiting room
     ([max_queue = 0]) a ticket queues only until the next round admits
     it, so queued tickets count against in-flight capacity. *)
  let room =
    let used, cap =
      if t.cfg.max_queue = 0 then (inflight t + queued t, t.cfg.max_inflight)
      else (queued t, t.cfg.max_queue)
    in
    if used < cap then `Yes
    else if Queue.is_empty t.rqueue then `No
    else `Evict
  in
  let res, disp =
    if t.draining then busy ()
    else
      match
        match t.triage with
        | None -> Triage.New
        | Some tri -> Triage.classify tri ~round:t.rounds fp
      with
      | Triage.Duplicate { canonical; count } ->
        (* In flight or recently diagnosed: fold into the cluster.
           Costs no capacity, so it succeeds even at the queue bound
           — a storm of duplicates cannot saturate the service. *)
        with_triage (fun tri -> Triage.coalesce tri ~fp);
        t.coalesced <- t.coalesced + 1;
        record disp_coalesced;
        (Ok (Coalesced { canonical; count = count + 1 }), disp_coalesced)
      | Triage.New -> (
        (* A fresh bug sheds a queued recurrence before it accepts
           [Busy]: a recurrence storm must not starve first
           diagnoses. *)
        match room with
        | `No -> busy ()
        | `Evict | `Yes ->
          (if room = `Evict then
             match shed_newest_recurrence t with
             | Some _ -> ()
             | None -> assert false);
          with_triage (fun tri -> Triage.open_fresh tri ~fp ~name ~id);
          Queue.add
            { p_id = id; p_spec = spec; p_fp = fp; p_round = t.rounds;
              p_revert = None }
            t.queue;
          record disp_fresh;
          (Ok (Ticket id), disp_fresh))
      | Triage.Recurrence { canonical; done_round } -> (
        match room with
        | `No | `Evict ->
          (* Recurrences are the shed class: at the bound they are
             refused with [Shed], never queued over fresh work. *)
          shed ()
        | `Yes ->
          with_triage (fun tri -> Triage.reopen tri ~fp ~name ~id);
          Queue.add
            { p_id = id; p_spec = spec; p_fp = fp; p_round = t.rounds;
              p_revert = Some (canonical, done_round) }
            t.rqueue;
          record disp_recur;
          (Ok (Ticket id), disp_recur))
  in
  (res, disp, fp)

let submit t spec =
  let res, _disp, _fp = submit_triaged t spec in
  res

(* Book one session's exit — diagnosis or typed failure — into the
   completion list, the ledger and the journal, auditing against any
   digest the recovery replay expects for this ticket.  A session that
   failed to start books here from its queue entry, with no slots. *)
let complete t round ~id ~name ~fp ~admitted_round ~slots result =
  let digest = result_digest result in
  (match Hashtbl.find_opt t.expected id with
   | Some d ->
     Hashtbl.remove t.expected id;
     if d <> digest then t.divergences <- t.divergences + 1
   | None -> ());
  (match t.triage with
   | Some tri when fp <> 0 ->
     (* Freeze the cluster (so near-future duplicates keep coalescing)
        or drop it on a typed failure (duplicates of a failed
        diagnosis deserve a fresh attempt). *)
     Triage.completed tri ~fp ~id ~round ~digest ~ok:(Result.is_ok result)
   | _ -> ());
  jrnl t (Journal.Completed { id; digest });
  t.completions <-
    {
      c_id = id;
      c_name = name;
      c_result = result;
      c_admitted_round = admitted_round;
      c_completed_round = round;
      c_slots = slots;
    }
    :: t.completions;
  t.completed <- t.completed + 1;
  match result with
  | Error _ -> t.failed <- t.failed + 1
  | Ok _ -> ()

let complete_active t round a result =
  complete t round ~id:a.a_id ~name:a.a_name ~fp:a.a_fp
    ~admitted_round:a.a_admitted_round ~slots:a.a_slots result

let fail t round a reason detail =
  complete_active t round a
    (Error { sf_reason = reason; sf_detail = detail; sf_strikes = a.a_strikes })

let finalize t round a =
  match Session.need a.a_session with
  | Session.Slots _ -> true
  | Session.Finished -> (
    match Session.result a.a_session with
    | d ->
      complete_active t round a (Ok d);
      false
    | exception e ->
      fail t round a Crashed (Printexc.to_string e);
      false)
  | exception e ->
    fail t round a Crashed (Printexc.to_string e);
    false

(* Deficit-round-robin lane pick, deterministic: while both lanes
   contend, each refill grants [fresh_weight] admissions to the fresh
   lane then [recur_weight] to the recurrence lane; when contention
   ends the credits reset, so a storm arriving later cannot draw on
   hoarded credit.  With triage off the recurrence lane is always
   empty and this degenerates to the original single FIFO. *)
let pick_lane t =
  let f = not (Queue.is_empty t.queue) in
  let r = not (Queue.is_empty t.rqueue) in
  match (f, r) with
  | false, false -> None
  | true, false | false, true ->
    t.fresh_credit <- 0;
    t.recur_credit <- 0;
    Some (if f then Fresh_lane else Recur_lane)
  | true, true ->
    if t.fresh_credit <= 0 && t.recur_credit <= 0 then begin
      t.fresh_credit <- t.cfg.fresh_weight;
      t.recur_credit <- t.cfg.recur_weight
    end;
    if t.fresh_credit > 0 then begin
      t.fresh_credit <- t.fresh_credit - 1;
      Some Fresh_lane
    end
    else begin
      t.recur_credit <- t.recur_credit - 1;
      Some Recur_lane
    end

let step t =
  if t.active = [] && Queue.is_empty t.queue && Queue.is_empty t.rqueue then
    false
  else begin
    t.rounds <- t.rounds + 1;
    let round = t.rounds in
    (* 0. Deadline eviction: a session that cannot converge must not
       hold an in-flight slot forever. *)
    if t.cfg.session_deadline_rounds > 0 then begin
      let expired, alive =
        List.partition
          (fun a -> round - a.a_admitted_round >= t.cfg.session_deadline_rounds)
          t.active
      in
      List.iter
        (fun a ->
          fail t round a Timed_out
            (Printf.sprintf "no diagnosis %d rounds after admission"
               t.cfg.session_deadline_rounds))
        expired;
      t.active <- alive
    end;
    (* 1. Admission — submission order within a lane, deficit
       round-robin across the two lanes, so a recurrence storm cannot
       starve a fresh bug of admission.  The session's offline phase
       (slice, instrumentation cache) runs here, once, at admission. *)
    let rec admit () =
      if inflight t < t.cfg.max_inflight then
        match pick_lane t with
        | None -> ()
        | Some lane ->
          let p =
            Queue.take
              (match lane with Fresh_lane -> t.queue | Recur_lane -> t.rqueue)
          in
          let sp = p.p_spec in
          let qwait = max 0 (round - 1 - p.p_round) in
          (match lane with
           | Fresh_lane ->
             t.fresh_admitted <- t.fresh_admitted + 1;
             t.fresh_wait <- max t.fresh_wait qwait
           | Recur_lane ->
             t.recur_admitted <- t.recur_admitted + 1;
             t.recur_wait <- max t.recur_wait qwait);
          (match
             Session.create ~config:sp.sp_config ~ingest:sp.sp_ingest
               ?oracle:sp.sp_oracle ~id:p.p_id ~bug_name:sp.sp_name
               ~failure_type:sp.sp_failure_type ~program:sp.sp_program
               ~workload_of:sp.sp_workload_of ~failure:sp.sp_failure ()
           with
           | session ->
             t.active <-
               t.active
               @ [
                   {
                     a_id = p.p_id;
                     a_name = sp.sp_name;
                     a_lane = lane;
                     a_fp = p.p_fp;
                     a_session = session;
                     a_admitted_round = round;
                     a_last_served = round - 1;
                     a_slots = 0;
                     a_strikes = 0;
                   };
                 ]
           | exception e ->
             (* A session that cannot start (an invalid config, say)
                completes [Crashed] now; raising here would wedge every
                later step, the recovered service's included. *)
             complete t round ~id:p.p_id ~name:sp.sp_name ~fp:p.p_fp
               ~admitted_round:round ~slots:0
               (Error
                  { sf_reason = Crashed; sf_detail = Printexc.to_string e;
                    sf_strikes = 0 }));
          admit ()
    in
    admit ();
    t.peak_inflight <- max t.peak_inflight (inflight t);
    (* 2. Grant: walk the ring, [quantum] slots per session, stopping
       when the round budget is spent.  Each thunk is wrapped so a
       raise comes back as a value — containment happens at delivery,
       deterministically, not wherever the pool happened to run it. *)
    let budget = ref t.cfg.round_budget in
    let grants =
      List.filter_map
        (fun a ->
          if !budget <= 0 then None
          else
            match Session.need a.a_session with
            | Session.Finished -> None
            | Session.Slots n ->
              let k = min (min t.cfg.quantum n) !budget in
              if k <= 0 then None
              else begin
                let thunks = Session.grant a.a_session k in
                budget := !budget - Array.length thunks;
                let w = round - a.a_last_served - 1 in
                t.max_wait <- max t.max_wait w;
                (match a.a_lane with
                 | Fresh_lane -> t.fresh_wait <- max t.fresh_wait w
                 | Recur_lane -> t.recur_wait <- max t.recur_wait w);
                a.a_last_served <- round;
                Some (a, thunks)
              end
            | exception e -> Some (a, [| (fun () -> raise e) |]))
        t.active
    in
    let wrapped =
      Array.concat
        (List.map
           (fun (_, thunks) ->
             Array.map
               (fun th () ->
                 match th () with
                 | o -> Ok o
                 | exception e -> Error (Printexc.to_string e))
               thunks)
           grants)
    in
    (* 3. One parallel batch per round over the shared pool: outcomes
       come back in submission order at any job count. *)
    let outs = Parallel.Pool.map_array t.pool (fun th -> th ()) wrapped in
    (* 4. Deliver each session its segment, in ring (= grant) order.
       A raising slot strikes the session and degrades into a
       deterministic crash outcome; at the strike limit the session is
       quarantined — a typed failure, never a service crash. *)
    let dead = Hashtbl.create 4 in
    let off = ref 0 in
    List.iter
      (fun (a, thunks) ->
        let n = Array.length thunks in
        let seg = Array.sub outs !off n in
        off := !off + n;
        a.a_slots <- a.a_slots + n;
        t.slots <- t.slots + n;
        let first_err =
          Array.fold_left
            (fun acc o ->
              match (acc, o) with
              | None, Error e -> Some e
              | acc, _ -> acc)
            None seg
        in
        let deliver outcomes =
          try Session.deliver a.a_session outcomes
          with e ->
            fail t round a Crashed (Printexc.to_string e);
            Hashtbl.replace dead a.a_id ()
        in
        match first_err with
        | None ->
          deliver
            (Array.map
               (function Ok o -> o | Error _ -> assert false)
               seg)
        | Some err ->
          a.a_strikes <- a.a_strikes + 1;
          if a.a_strikes >= t.cfg.max_session_strikes then begin
            fail t round a Quarantined err;
            Hashtbl.replace dead a.a_id ()
          end
          else
            deliver
              (Array.map
                 (function
                   | Ok o -> o
                   | Error _ -> Session.crashed_outcome)
                 seg))
      grants;
    (* 5. Finalize finished sessions, freeing in-flight capacity. *)
    t.active <-
      List.filter
        (fun a -> (not (Hashtbl.mem dead a.a_id)) && finalize t round a)
        t.active;
    (* 6. Journal the round: the digest folds what was served and every
       surviving session's accepted-report audit — the recovery replay
       recomputes exactly this and compares. *)
    let digest =
      let d =
        List.fold_left
          (fun acc (a, thunks) -> mix (mix acc a.a_id) (Array.length thunks))
          round grants
      in
      List.fold_left (fun acc a -> mix acc (Session.audit a.a_session)) d t.active
    in
    t.last_round_digest <- digest;
    jrnl t (Journal.Round { round; digest });
    (* 7. Re-ring: sessions served this round go to the back, the rest
       keep their order at the front.  (Blindly rotating the head is
       not enough: when the served head finishes and is removed, the
       next — unserved — session would be the one rotated to the back,
       and under completion churn the same session can be bumped
       unserved round after round.)  At least one session is served
       every round (budget >= quantum), so an unserved session loses
       at least one predecessor per round and reaches the head within
       [max_inflight] rounds. *)
    let unserved, served =
      List.partition (fun a -> a.a_last_served < round) t.active
    in
    t.active <- unserved @ served;
    (* 8. Checkpoint on cadence — only when no completion is waiting to
       be harvested, so nothing the caller has not seen can be
       checkpointed away.  This must come AFTER the re-ring: the
       checkpoint is the round-boundary state, and a restored service
       that resumed with the pre-rotation ring would schedule the next
       round differently from the live one — a silent, self-consistent
       one-round skew the recovery audit can never see. *)
    if
      t.cfg.checkpoint_every_rounds > 0
      && round mod t.cfg.checkpoint_every_rounds = 0
    then if not (do_checkpoint t) then t.ckpt_due <- true;
    true
  end

let rec drain t = if step t then drain t

let completions t = List.rev t.completions

(* Harvest and forget: a long-running service must not retain every
   diagnosis it ever produced. *)
let take_completions t =
  let cs = List.rev t.completions in
  t.completions <- [];
  (* The cadence checkpoint that was blocked on these completions
     (still deferred while shed notices wait for their own harvest). *)
  if t.ckpt_due && t.sheds = [] then begin
    t.ckpt_due <- false;
    ignore (do_checkpoint t)
  end;
  cs

let stats t =
  {
    st_submitted = t.submitted;
    st_admitted = t.fresh_admitted + t.recur_admitted;
    st_rejected = t.rejected;
    st_completed = t.completed;
    st_failed = t.failed;
    st_rounds = t.rounds;
    st_slots = t.slots;
    st_peak_inflight = t.peak_inflight;
    st_max_wait_rounds = t.max_wait;
    st_checkpoints = t.checkpoints;
    st_divergences = t.divergences;
    st_coalesced = t.coalesced;
    st_shed = t.shed;
    st_fresh_admitted = t.fresh_admitted;
    st_recur_admitted = t.recur_admitted;
    st_fresh_wait_rounds = t.fresh_wait;
    st_recur_wait_rounds = t.recur_wait;
    st_clusters = (match t.triage with None -> 0 | Some tri -> Triage.size tri);
    st_evicted_clusters =
      (match t.triage with None -> 0 | Some tri -> Triage.evicted tri);
  }

(* The idle ledger identity, checked in one place. *)
let ledger_error t =
  let inflight = inflight t and queued = queued t in
  if
    t.submitted = t.completed + t.rejected + t.coalesced + t.shed
    && inflight = 0 && queued = 0
  then None
  else
    Some
      (Printf.sprintf
         "ledger does not balance: %d submitted, %d completed, %d rejected, \
          %d coalesced, %d shed, %d in flight, %d queued"
         t.submitted t.completed t.rejected t.coalesced t.shed inflight queued)

(* Shed notices mirror completions: harvest-and-forget, and the
   cadence checkpoint blocked on an unharvested notice is written at
   the harvest. *)
let take_shed t =
  let ss = List.rev t.sheds in
  t.sheds <- [];
  if t.ckpt_due && t.completions = [] then begin
    t.ckpt_due <- false;
    ignore (do_checkpoint t)
  end;
  ss

(* ------------------------------------------------------------------ *)
(* Introspection *)

type session_view = {
  v_id : int;
  v_name : string;
  v_lane : lane;
  v_admitted_round : int;
  v_rounds_waiting : int;
  v_slots : int;
  v_strikes : int;
  v_progress : Session.progress;
}

let status t =
  List.map
    (fun a ->
      {
        v_id = a.a_id;
        v_name = a.a_name;
        v_lane = a.a_lane;
        v_admitted_round = a.a_admitted_round;
        v_rounds_waiting = max 0 (t.rounds - a.a_last_served);
        v_slots = a.a_slots;
        v_strikes = a.a_strikes;
        v_progress = Session.progress a.a_session;
      })
    t.active

(* Lane occupancy for status screens: queue depths, live credits, and
   how many sessions each lane has admitted so far. *)
type lane_view = {
  lv_fresh_queued : int;
  lv_recur_queued : int;
  lv_fresh_credit : int;
  lv_recur_credit : int;
  lv_fresh_admitted : int;
  lv_recur_admitted : int;
}

let lanes t =
  {
    lv_fresh_queued = Queue.length t.queue;
    lv_recur_queued = Queue.length t.rqueue;
    lv_fresh_credit = t.fresh_credit;
    lv_recur_credit = t.recur_credit;
    lv_fresh_admitted = t.fresh_admitted;
    lv_recur_admitted = t.recur_admitted;
  }

(* The cluster table, most recently touched first; empty when triage
   is off. *)
let clusters t =
  match t.triage with None -> [] | Some tri -> Triage.views tri

(* The spec a completed cluster's canonical session ran under, for
   artifact emission (reproducer shrinking needs the fuzz case).
   Specs hold closures, so the service cannot retain them per
   cluster; callers keep their own name->spec map instead — this
   helper just names the lane the contract lives on. *)
let triage_enabled t = t.triage <> None

(* ------------------------------------------------------------------ *)
(* Crash-only lifecycle *)

let journal_bytes t = Journal.contents t.journal

let checkpoint t = do_checkpoint t

(* Drain is an input like a submission: journaled, so a replay refuses
   exactly the submissions the live service refused. *)
let request_drain t =
  if not t.draining then begin
    t.draining <- true;
    jrnl t (Journal.Drained { round = t.rounds })
  end

(* Rebuild a service value from one checkpoint's state bytes: [None]
   when the bytes do not decode (the caller falls back to an older
   checkpoint); [Recover_failed] on resolver or snapshot refusals. *)
let decode_state ~pool ~resolve state =
  match C.decode state_codec state with
  | Error (_ : C.error) -> None
  | Ok rebuild ->
    let t = rebuild ~pool ~resolve in
    (* Seed the fresh journal so a second crash recovers the same way. *)
    ignore (do_checkpoint t);
    Some t

let recover ?(pool = Parallel.Pool.sequential) ~resolve bytes =
  let entries = Journal.load bytes in
  (* Newest intact checkpoint wins; a damaged one is skipped by
     construction (it loads as [Damaged], not [Checkpoint]), falling
     back to an older one — ultimately the initial checkpoint
     [create] wrote. *)
  let candidates =
    (* (index, state) of every intact checkpoint, newest first. *)
    List.rev
      (List.mapi (fun i e -> (i, e)) entries
      |> List.filter_map (function
           | i, Journal.Rec (Journal.Checkpoint { state; _ }) -> Some (i, state)
           | _ -> None))
  in
  let rec restart = function
    | [] -> Error No_checkpoint
    | (idx, state) :: older -> (
      match decode_state ~pool ~resolve state with
      | Some t -> Ok (idx, t)
      | None -> restart older
      | exception Recover_failed e -> Error e)
  in
  match restart candidates with
  | Error e -> Error e
  | Ok (idx, t) ->
    (* Replay the journaled tail through the real submit/step code.
       [Completed] records precede their round's [Round] record, so
       expectations are always in the table before the replayed round
       re-completes the ticket. *)
    let tail = List.filteri (fun i _ -> i > idx) entries in
    let replay entry =
        match entry with
        | Journal.Rec (Journal.Submitted { id; name; fp; disp }) ->
          (* Admission decisions are pure functions of service state, so
             replay re-derives them through the real [submit] and
             audits the re-derived disposition (and fingerprint, and
             ticket id) against the journaled one. *)
          let res, disp', fp' = submit_triaged t (resolve_exn resolve name) in
          let id_ok =
            match res with
            | Ok (Ticket id') -> id' = id
            | Ok (Coalesced _) | Error _ -> t.submitted = id
          in
          if disp' <> disp || fp' <> fp || not id_ok then
            t.divergences <- t.divergences + 1
        | Journal.Rec (Journal.Drained { round }) ->
          request_drain t;
          if t.rounds <> round then t.divergences <- t.divergences + 1
        | Journal.Rec (Journal.Completed { id; digest }) ->
          Hashtbl.replace t.expected id digest
        | Journal.Rec (Journal.Round { round; digest }) ->
          ignore (step t : bool);
          if t.rounds <> round || t.last_round_digest <> digest then
            t.divergences <- t.divergences + 1
        | Journal.Rec (Journal.Checkpoint _) ->
          (* The replay writes its own checkpoints on its own cadence. *)
          ()
        | Journal.Damaged _ ->
          (* Framing survived, content did not: whatever decision the
             record held is lost to the replay.  Book the divergence
             rather than guess. *)
          t.divergences <- t.divergences + 1
    in
    (match List.iter replay tail with
     | () -> Ok t
     | exception Recover_failed e -> Error e)
