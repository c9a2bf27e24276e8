(* The Gist server: static slicing, adaptive slice tracking (AsT),
   slice refinement from client reports, statistical predictor ranking,
   and failure-sketch construction (paper Fig. 2, steps 1, 3, 5).

   AsT (§3.2.1): track sigma statements backward from the failure;
   double sigma each iteration until the developer (the [oracle]
   callback) judges the sketch sufficient. *)

open Ir.Types
module IntSet = Set.Make (Int)

(* Why the adaptive stopping rule cut work short (PR 7).  [Separated]:
   a checkpoint inside the iteration found the top predictor's F_beta
   lower confidence bound above every rival's upper bound, so the rest
   of the iteration's budget was skipped.  [Converged]: the same
   predictor won two consecutive non-degraded iterations with
   separation, so the remaining sigma doublings were skipped and the
   diagnosis stopped. *)
type early_exit = Separated | Converged

let early_exit_label = function
  | Separated -> "separated"
  | Converged -> "converged"

type iteration_info = {
  it_sigma : int;
  it_tracked : int;
  it_fails : int;
  it_succs : int;
  it_clients : int;
  it_avg_overhead : float;
  it_oracle_pass : bool;
  it_dispatched : int;   (* dispatches, including retries *)
  it_lost : int;         (* crashed / dropped / timed-out dispatches *)
  it_rejected : int;     (* reports refused by validation *)
  it_retried : int;      (* re-dispatches after a loss or rejection *)
  it_quarantined : int;  (* slots abandoned after [max_retries] *)
  it_degraded : bool;    (* valid reports stayed below quorum *)
  it_early_exit : early_exit option; (* adaptive stopping-rule verdict *)
}

(* Fleet-protocol health across the whole diagnosis. *)
type fleet_stats = {
  f_dispatched : int;
  f_delivered : int;     (* reports that arrived (valid + rejected) *)
  f_valid : int;
  f_lost : int;
  f_rejected : int;
  f_retried : int;
  f_quarantined : int;
  f_degraded_iters : int;
  f_by_kind : (string * int) list;   (* injected fault kind -> count *)
  f_by_reason : (string * int) list; (* rejection reason -> count *)
}

(* How valid reports feed refinement and ranking.

   [Streaming] is the production path: each accepted report is folded
   into per-predictor sufficient statistics ([Predict.Stats.Acc]) and
   the confirmed/discovered sets the moment it is consumed, then
   dropped -- server state per iteration is O(slice), not O(fleet).

   [Retained] is the reference oracle: every accepted report is
   retained and refinement replays the original batch loop.  Both
   paths share the wire protocol, fault regime and slot ordering, so a
   differential test can demand identical diagnoses. *)
type ingest_mode = Streaming | Retained

(* What one valid slot contributes, precomputed on the worker so the
   in-order consume fold stays O(1) per slot.  [sv_report] rides along
   whole: the last matching one becomes the representative failing run
   (everything else about it is dropped at consume). *)
type slot_valid = {
  sv_report : Client.report;
  sv_digest : int;      (* the accepted envelope's wire digest *)
  sv_matches : bool;    (* failed with the target signature *)
  sv_relevant : bool;   (* matching failure or success: feeds refinement *)
  sv_confirmed : IntSet.t;          (* tracked statements it executed *)
  sv_discovered : int list;         (* trapped statements outside tracked *)
  sv_predictors : Predict.Predictor.t list;
}

type diagnosis = {
  sketch : Fsketch.Sketch.t;
  slice : Slicing.Slicer.t;
  iterations : int;
  recurrences : int;     (* matching failing runs consumed by AsT *)
  total_runs : int;      (* monitored production runs *)
  avg_overhead_pct : float; (* fleet-wide: aggregate extra / aggregate base *)
  final_sigma : int;
  tracked : iid list;     (* statements tracked in the last iteration *)
  trace : iteration_info list; (* per-AsT-iteration progress *)
  fleet : fleet_stats;
}

(* Split watchpoint targets into rotation groups of at most
   [wp_capacity]; client [c] arms group [c mod n_groups] (§3.2.3's
   cooperative approach when targets exceed the debug registers). *)
let wp_groups ~wp_capacity targets =
  if wp_capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Server.wp_groups: wp_capacity must be positive (got %d)"
         wp_capacity);
  let rec chunks = function
    | [] -> []
    | l ->
      let rec take k = function
        | x :: tl when k > 0 ->
          let a, b = take (k - 1) tl in
          (x :: a, b)
        | rest -> ([], rest)
      in
      let g, rest = take wp_capacity l in
      g :: chunks rest
  in
  match chunks targets with [] -> [ [] ] | gs -> gs

(* Fleet-protocol constants: re-dispatches per client slot before it is
   quarantined, and the valid-report fraction below which an iteration
   degrades. *)
let max_retries = 2
let quorum_frac = 0.5

(* One encode arena per domain: workers (and the helping caller) reuse
   their buffers across every slot they run. *)
let enc_arena = Parallel.Pool.worker_local (fun () -> Protocol.Encode.arena ())

(* ------------------------------------------------------------------ *)
(* Session: one bug's AsT diagnosis as an event-driven state machine.

   The synchronous [diagnose] loop is inverted so a multi-bug service
   can multiplex many diagnoses over one pool: the session *asks* for
   fleet slots ([need]), hands out pure slot thunks ([grant]), and
   folds the outcomes back in slot order ([deliver]).  Everything
   between slot gathering — plan construction, quorum and degradation,
   refinement, ranking, the sketch, convergence — happens inside
   [need]'s internal advance, so a driver only ever sees "give me N
   slots" or "finished".

   The consume fold is in slot order: a pass's slot [i] is client
   [pass base + i], and the fold consumes outcomes until one says
   stop.  That outcome is counted as consumed; every outcome delivered
   after it is discarded unconsumed, so a driver may speculate by
   granting more slots than the fold will take.  That makes any
   driver — the one-shot wrapper, or a scheduler interleaving dozens
   of sessions — fold the identical outcome sequence, so every field
   of the diagnosis is bit-identical whatever the multiplexing. *)
module Session = struct
  type need = Slots of int | Finished

  (* What one fleet slot produced: the retry loop's net effect,
     precomputed on the worker so the in-order consume stays O(1). *)
  type outcome = {
    o_valid : slot_valid option;
    o_attempts : int;
    o_lost : int;
    o_rejects : Protocol.reject list;
    o_kinds : Faults.Fault.kind list;
    o_quarantined : bool;
  }

  (* The per-iteration snapshot slot thunks close over.  Immutable:
     thunks outlive [grant] and may run while the session's mutable
     state advances, so nothing here aliases session state. *)
  type ictx = {
    x_tracked : iid list;
    x_tracked_set : IntSet.t;
    x_plan : Instrument.Plan.t;
    x_plan_id : int;
    x_groups : iid list array;
    x_prev : (Instrument.Plan.t * int * iid list array) option;
  }

  (* One gathering pass (pass 1, or the quorum re-run pass 2).
     [g_budget] is the slot budget fixed at pass start; [g_granted]
     slots have been handed out, [g_delivered] outcomes have come
     back, [g_consumed] of those were folded (the rest arrived after
     the fold stopped and were discarded), [g_valid] of the folded
     ones carried a valid report. *)
  type gather = {
    g_ctx : ictx;
    g_base : int;
    g_budget : int;
    g_first : (int * int) option; (* pass 1's (valid, slots) in pass 2 *)
    mutable g_granted : int;
    mutable g_delivered : int;
    mutable g_consumed : int;
    mutable g_stopped : bool;
    mutable g_valid : int;
  }

  type phase = Gathering of gather | Done

  type t = {
    s_id : int;
    config : Config.t;
    bug_name : string;
    failure_type : string;
    program : program;
    workload_of : int -> Exec.Interp.workload;
    failure : Exec.Failure.report;
    oracle : (Fsketch.Sketch.t -> bool) option;
    streaming : bool;
    early : bool;
    n_instrs : int;
    slice : Slicing.Slicer.t;
    slice_size : int;
    target_sig : Exec.Failure.signature;
    (* cross-iteration AsT state *)
    mutable sigma : int;
    mutable discovered : IntSet.t;
    mutable confirmed : IntSet.t;
    acc : Predict.Stats.Acc.t;
    mutable observations : Predict.Stats.observation list;
    mutable repr_failing : Client.report option;
    (* Running fold of accepted-report wire digests, in consume order:
       the audit value a crash-only journal records per round so a
       recovery replay can prove it re-accepted the same reports. *)
    mutable audit : int;
    mutable base_cycles : float;
    mutable extra_cycles : float;
    mutable ov_buf : float array;
    mutable ov_len : int; (* valid reports this iteration *)
    mutable best_sketch : Fsketch.Sketch.t option;
    (* Newest first, one entry per finished iteration: the session's
       only ledger.  The iteration count, recurrences, run totals and
       fleet stats are folds over it plus, while gathering, the
       iteration in progress. *)
    mutable trace : iteration_info list;
    by_kind : (string, int) Hashtbl.t;
    by_reason : (string, int) Hashtbl.t;
    mutable prev_winner : Predict.Predictor.t option;
    mutable win_streak : int;
    mutable prev_plan : (Instrument.Plan.t * int * iid list array) option;
    (* per-iteration state, reset by [begin_iteration] *)
    mutable fails : int;
    mutable succs : int;
    mutable clients : int;
    mutable iter_reports : (Client.report * bool) list;
    mutable it_dispatched : int;
    mutable it_lost : int;
    mutable it_rejected : int;
    mutable it_quarantined : int;
    mutable it_exited : bool;
    mutable phase : phase;
  }

  let audit t = t.audit

  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

  let tally tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let gathering t = match t.phase with Gathering _ -> true | Done -> false

  (* Per-iteration overhead samples, in consume order, in a float
     array reused across iterations (capacity only ever grows).  The
     average is summed newest-first — the exact order the old
     newest-first list fold used — so the reported float is
     bit-identical to the retained path. *)
  let ov_push t x =
    if t.ov_len = Array.length t.ov_buf then begin
      let bigger = Array.make (2 * t.ov_len) 0.0 in
      Array.blit t.ov_buf 0 bigger 0 t.ov_len;
      t.ov_buf <- bigger
    end;
    t.ov_buf.(t.ov_len) <- x;
    t.ov_len <- t.ov_len + 1

  let ov_avg t =
    if t.ov_len = 0 then 0.0
    else begin
      let s = ref 0.0 in
      for i = t.ov_len - 1 downto 0 do
        s := !s +. t.ov_buf.(i)
      done;
      !s /. float_of_int t.ov_len
    end

  let quota_open t =
    t.fails < t.config.Config.fail_quota || t.succs < t.config.Config.succ_quota

  let below_quorum v s =
    s > 0 && float_of_int v < quorum_frac *. float_of_int s

  (* The tracked statements report [r] executed: its executed iids are
     marked in a bitmap over the program's iids, then the (ascending)
     tracked list is filtered through it.  Both ingest modes refine
     through this one function. *)
  let confirmed_by t ctx (r : Client.report) =
    let seen = Bytes.make t.n_instrs '\000' in
    List.iter
      (fun (_, iids) ->
        List.iter
          (fun iid ->
            if iid >= 0 && iid < t.n_instrs then Bytes.unsafe_set seen iid '\001')
          iids)
      r.Client.r_executed;
    IntSet.of_list
      (List.filter (fun iid -> Bytes.get seen iid = '\001') ctx.x_tracked)

  (* One fleet slot: dispatch, injected faults, bounded retry,
     quarantine once [max_retries] re-dispatches are spent.  A crashed
     client, a dropped report and a straggler all look the same to the
     server (nothing arrives by the deadline), so each counts as lost
     and the run itself is skipped -- nothing it produced could have
     arrived.

     Pure in the session's mutable state: everything it reads is fixed
     at [create] or lives in the iteration snapshot [ctx], so a
     scheduler may run granted thunks in any order, on any domain. *)
  let run_slot t ctx c =
    let config = t.config in
    let rates = config.Config.fault_rates in
    let n_instrs = t.n_instrs in
    let lost = ref 0 and rejects = ref [] and kinds = ref [] in
    let valid = ref None in
    let attempt = ref 0 in
    let quarantined = ref false in
    let running = ref true in
    while !running do
      let inj =
        Faults.Fault.draw rates ~seed:config.Config.fault_seed ~client:c
          ~attempt:!attempt
      in
      (if
         inj.Faults.Fault.j_crash || inj.Faults.Fault.j_drop
         || inj.Faults.Fault.j_straggler
       then begin
         incr lost;
         kinds :=
           (if inj.Faults.Fault.j_crash then Faults.Fault.Crash
            else if inj.Faults.Fault.j_drop then Faults.Fault.Drop
            else Faults.Fault.Straggler)
           :: !kinds
       end
       else begin
         (* A stale client runs under the previous iteration's plan
            and rotation, and seals with that plan's digest; the
            server's freshness check rejects the report.  On the
            first iteration there is no previous plan to be stale
            against. *)
         let stale = inj.Faults.Fault.j_stale_plan && ctx.x_prev <> None in
         let use_plan, use_plan_id, use_groups =
           if stale then Option.get ctx.x_prev
           else (ctx.x_plan, ctx.x_plan_id, ctx.x_groups)
         in
         if stale then kinds := Faults.Fault.Stale_plan :: !kinds;
         (* Ring damage lands on the encoded bytes ([Hw.Pt.Wire]),
            the form the ring actually takes on a client. *)
         let tamper =
           match
             (inj.Faults.Fault.j_pt_truncate, inj.Faults.Fault.j_pt_corrupt)
           with
           | None, None -> None
           | tr, co ->
             Some
               (fun ~tid bytes ->
                 let bytes =
                   match tr with
                   | Some salt ->
                     Faults.Tamper.truncate_wire
                       ~salt:(Exec.Rng.mix salt tid) bytes
                   | None -> bytes
                 in
                 match co with
                 | Some salt ->
                   Faults.Tamper.corrupt_wire_packets
                     ~salt:(Exec.Rng.mix salt tid) ~n_instrs bytes
                 | None -> bytes)
         in
         if inj.Faults.Fault.j_pt_truncate <> None then
           kinds := Faults.Fault.Pt_truncate :: !kinds;
         if inj.Faults.Fault.j_pt_corrupt <> None then
           kinds := Faults.Fault.Pt_corrupt :: !kinds;
         let n_g = Array.length use_groups in
         let report =
           Client.run_one ~wp_capacity:config.Config.wp_capacity
             ~preempt_prob:config.Config.preempt_prob
             ~max_steps:config.Config.max_steps
             ~data_source:config.Config.data_source
             ~redact:config.Config.redact_values ?tamper ~plan:use_plan
             ~wp_allowed:use_groups.(c mod n_g) t.program (t.workload_of c)
         in
         (* Watchpoint-log corruption: either in-ring (pre-seal, so
            the digest matches the damaged payload and only the
            semantic range check can catch it) or in transit
            (post-seal: a bit flips in the sealed envelope bytes,
            caught by the digest).  Both validation layers stay
            exercised under any fault mix. *)
         let report, flip_salt =
           match inj.Faults.Fault.j_wp_corrupt with
           | None -> (report, None)
           | Some salt ->
             kinds := Faults.Fault.Wp_corrupt :: !kinds;
             if Faults.Tamper.wp_corrupt_in_transit ~salt then
               (report, Some salt)
             else
               ( {
                   report with
                   Client.r_traps =
                     Faults.Tamper.corrupt_traps ~salt ~n_instrs
                       report.Client.r_traps;
                 },
                 None )
         in
         (* The client→server hop is bytes: seal into the wire
            envelope (through this domain's reusable arena), damage
            in transit if drawn, then validate with [ingest] (one
            payload decode, then typed checks).  The envelope carries the
            session key; its field is fixed-width, so the flipped-byte
            position below is independent of which session this is. *)
         let bytes =
           Protocol.Encode.encode (enc_arena ()) ~session:t.s_id ~client:c
             ~plan_id:use_plan_id report
         in
         let bytes =
           match flip_salt with
           | Some salt -> Faults.Tamper.flip_wire_byte ~salt bytes
           | None -> bytes
         in
         match
           Protocol.Encode.ingest ~session:t.s_id ~n_instrs
             ~plan_id:ctx.x_plan_id bytes
         with
         | Ok r ->
           let sv_matches = r.Client.r_signature = Some t.target_sig in
           let sv_relevant = sv_matches || r.Client.r_signature = None in
           (* Refinement inputs, precomputed here so the slot-order
              consume fold is O(1) per slot.  The retained oracle
              recomputes them from the kept reports instead. *)
           let sv_confirmed =
             if t.streaming && sv_matches then confirmed_by t ctx r
             else IntSet.empty
           in
           let sv_discovered =
             if t.streaming && sv_relevant then
               List.filter_map
                 (fun (w : Hw.Watchpoint.trap) ->
                   if IntSet.mem w.Hw.Watchpoint.w_iid ctx.x_tracked_set then
                     None
                   else Some w.Hw.Watchpoint.w_iid)
                 r.Client.r_traps
             else []
           in
           let sv_predictors =
             if (t.streaming || t.early) && sv_relevant then
               Predict.Predictor.of_run ~ranges:config.Config.range_predicates
                 ~tracked:ctx.x_tracked ~branch_outcomes:r.Client.r_branches
                 ~traps:r.Client.r_traps ()
             else []
           in
           valid :=
             Some
               {
                 sv_report = r;
                 (* Re-read, not recomputed: [encode] already paid for
                    the digest; the audit fold must stay off the slot
                    hot path's budget. *)
                 sv_digest = Protocol.Encode.wire_digest bytes;
                 sv_matches;
                 sv_relevant;
                 sv_confirmed;
                 sv_discovered;
                 sv_predictors;
               };
           running := false
         | Error rej -> rejects := rej :: !rejects
       end);
      if !running then
        if !attempt >= max_retries then begin
          quarantined := true;
          running := false
        end
        else incr attempt
    done;
    {
      o_valid = !valid;
      o_attempts = !attempt + 1;
      o_lost = !lost;
      o_rejects = List.rev !rejects;
      o_kinds = List.rev !kinds;
      o_quarantined = !quarantined;
    }

  (* Start a gathering pass over fresh clients: the first client after
     the slots the previous pass consumed (discarded surplus never
     counts).  The old [run_pass] evaluated its initial condition
     before streaming any slot; a pass that fails it is born stopped
     and completes immediately with (0, 0), exactly like the old
     [if ... then 0]. *)
  let start_pass t ctx ~first =
    let budget = t.config.Config.max_clients_per_iter - t.clients in
    let stopped = budget <= 0 || (not (quota_open t)) || t.it_exited in
    let base =
      match t.phase with Gathering g -> g.g_base + g.g_consumed | Done -> 0
    in
    t.phase <-
      Gathering
        {
          g_ctx = ctx;
          g_base = base;
          g_budget = max budget 0;
          g_first = first;
          g_granted = 0;
          g_delivered = 0;
          g_consumed = 0;
          g_stopped = stopped;
          g_valid = 0;
        }

  (* The instrumentation plan for [tracked], its id and its watchpoint
     rotation groups: a pure function of (program, tracked).  Client
     [c] arms group [c mod n], precomputed as an array -- the
     per-client [List.nth] lookup was O(groups) on the fleet hot
     path. *)
  let plan_of t tracked =
    let plan =
      Instrument.Place.compute ~enable_cf:t.config.Config.enable_cf
        ~enable_df:t.config.Config.enable_df t.program tracked
    in
    let groups =
      Array.of_list
        (wp_groups ~wp_capacity:t.config.Config.wp_capacity
           plan.Instrument.Plan.wp_targets)
    in
    (plan, Instrument.Plan.id plan, groups)

  (* --- offline: choose the tracked portion, build the patch --- *)
  let begin_iteration t =
    let tracked =
      List.sort_uniq compare
        (Slicing.Slicer.take t.slice t.sigma @ IntSet.elements t.discovered)
    in
    let plan, plan_id, groups = plan_of t tracked in
    let prev = t.prev_plan in
    t.fails <- 0;
    t.succs <- 0;
    t.clients <- 0;
    t.ov_len <- 0;
    t.iter_reports <- [];
    t.it_dispatched <- 0;
    t.it_lost <- 0;
    t.it_rejected <- 0;
    t.it_quarantined <- 0;
    t.it_exited <- false;
    let ctx =
      {
        x_tracked = tracked;
        x_tracked_set = IntSet.of_list tracked;
        x_plan = plan;
        x_plan_id = plan_id;
        x_groups = groups;
        x_prev = prev;
      }
    in
    start_pass t ctx ~first:None

  (* Everything after an iteration's slot gathering: ledgers,
     refinement, the sketch, the oracle, convergence, the trace entry,
     and the stop/sigma decision.  Verbatim from the synchronous
     loop. *)
  let wrapup t ctx ~degraded =
    t.prev_plan <- Some (ctx.x_plan, ctx.x_plan_id, ctx.x_groups);
    (* --- refinement (§3.2): keep tracked statements that executed in
       failing runs; adopt watchpoint-discovered statements the
       alias-free slice missed.

       Streaming mode already folded every accepted report into
       [confirmed]/[discovered]/[acc] at consume time (set unions and
       counter sums commute, so fold-as-they-arrive equals
       fold-at-the-end); this batch replay is the retained oracle's
       path over the reports it kept. --- *)
    if not t.streaming then
      List.iter
        (fun ((r : Client.report), matches) ->
          if matches then
            t.confirmed <- IntSet.union t.confirmed (confirmed_by t ctx r);
          (* Statements the alias-free slice missed are discovered by any
             monitored run whose watchpoints trap on them -- successful
             runs included (in failing runs the watchpoint may only be
             armed after the racing write already happened). *)
          List.iter
            (fun (w : Hw.Watchpoint.trap) ->
              if not (IntSet.mem w.w_iid ctx.x_tracked_set) then
                t.discovered <- IntSet.add w.w_iid t.discovered)
            r.r_traps;
          t.observations <-
            Predict.Stats.
              {
                predictors =
                  Predict.Predictor.of_run
                    ~ranges:t.config.Config.range_predicates
                    ~tracked:ctx.x_tracked ~branch_outcomes:r.r_branches
                    ~traps:r.r_traps ();
                failing = matches;
              }
            :: t.observations)
        t.iter_reports;
    (* --- build the sketch from the representative failing run --- *)
    let oracle_stop =
      match t.repr_failing with
      | None -> false
      | Some repr ->
        (* Gist reports program counters as *source lines* (§4), so the
           statement set is closed over source lines: every IR
           instruction on a line one pc hit is part of the sketch. *)
        let core_set =
          IntSet.union t.confirmed
            (IntSet.union t.discovered (IntSet.singleton t.failure.pc))
        in
        let lines = Hashtbl.create 16 in
        IntSet.iter
          (fun iid ->
            let l = Ir.Program.loc_of t.program iid in
            if l.line > 0 then Hashtbl.replace lines (l.file, l.line) ())
          core_set;
        let stmt_set =
          List.fold_left
            (fun acc (i : Ir.Types.instr) ->
              if i.loc.line > 0 && Hashtbl.mem lines (i.loc.file, i.loc.line)
              then IntSet.add i.iid acc
              else acc)
            core_set
            (Ir.Program.all_instrs t.program)
        in
        let per_thread =
          List.filter_map
            (fun (tid, iids) ->
              let filtered =
                List.filter (fun iid -> IntSet.mem iid stmt_set) iids
              in
              if filtered = [] then None else Some (tid, filtered))
            repr.r_executed
        in
        (* [Acc.rank] is bit-identical to [Stats.rank] over the same
           observations (integer counts, total-order sort). *)
        let ranked =
          if t.streaming then Predict.Stats.Acc.rank t.acc
          else Predict.Stats.rank t.observations
        in
        let sketch =
          Fsketch.Sketch.build ~bug_name:t.bug_name
            ~failure_type:t.failure_type ~program:t.program ~failure:t.failure
            ~per_thread ~traps:repr.r_traps ~ranked
        in
        t.best_sketch <- Some sketch;
        (* --- developer decision (§3.2.1): stop AsT or double sigma --- *)
        match t.oracle with Some f -> f sketch | None -> false
    in
    (* Convergence across iterations: when the same predictor holds
       separation at the end of two consecutive non-degraded
       iterations, skip the remaining sigma doublings -- the ranking
       has stabilised within the stated confidence.  A degraded
       iteration resets the streak: its counts were thinned by
       faults. *)
    let sep_winner =
      if t.early && not degraded then
        Predict.Stats.Acc.separated ~delta:t.config.Config.separation_delta
          t.acc
      else None
    in
    (match sep_winner with
     | Some p ->
       (match t.prev_winner with
        | Some q when Predict.Predictor.compare p q = 0 ->
          t.win_streak <- t.win_streak + 1
        | _ -> t.win_streak <- 1);
       t.prev_winner <- Some p
     | None ->
       t.win_streak <- 0;
       t.prev_winner <- None);
    let converged_now = t.early && (not oracle_stop) && t.win_streak >= 2 in
    t.trace <-
      {
        it_sigma = t.sigma;
        it_tracked = List.length ctx.x_tracked;
        it_fails = t.fails;
        it_succs = t.succs;
        it_clients = t.clients;
        it_avg_overhead = ov_avg t;
        it_oracle_pass = oracle_stop;
        it_dispatched = t.it_dispatched;
        it_lost = t.it_lost;
        it_rejected = t.it_rejected;
        it_retried = t.it_dispatched - t.clients;
        it_quarantined = t.it_quarantined;
        it_degraded = degraded;
        it_early_exit =
          (if converged_now then Some Converged
           else if t.it_exited then Some Separated
           else None);
      }
      :: t.trace;
    if
      oracle_stop || converged_now
      || List.length t.trace >= t.config.Config.max_iterations
      || ((not degraded) && t.sigma >= t.slice_size)
    then t.phase <- Done
    else begin
      (* Degraded mode: hold sigma for another iteration rather than
         doubling on evidence the faults thinned out. *)
      if not degraded then t.sigma <- t.sigma * 2;
      begin_iteration t
    end

  (* The old consume body, verbatim: all slot accounting happens here,
     in slot order.  Returns whether gathering should continue. *)
  let consume t (g : gather) o =
    t.clients <- t.clients + 1;
    t.it_dispatched <- t.it_dispatched + o.o_attempts;
    t.it_lost <- t.it_lost + o.o_lost;
    t.it_rejected <- t.it_rejected + List.length o.o_rejects;
    if o.o_quarantined then t.it_quarantined <- t.it_quarantined + 1;
    List.iter (fun k -> bump t.by_kind (Faults.Fault.kind_name k)) o.o_kinds;
    List.iter
      (fun rej -> bump t.by_reason (Protocol.reject_label rej))
      o.o_rejects;
    (match o.o_valid with
     | None -> ()
     | Some sv ->
       let report = sv.sv_report in
       g.g_valid <- g.g_valid + 1;
       t.audit <- Exec.Rng.mix t.audit sv.sv_digest;
       ov_push t report.Client.r_overhead_pct;
       t.base_cycles <- t.base_cycles +. report.r_base_cycles;
       t.extra_cycles <- t.extra_cycles +. report.r_extra_cycles;
       if sv.sv_matches then begin
         t.fails <- t.fails + 1;
         t.repr_failing <- Some report
       end
       else if report.Client.r_signature = None then t.succs <- t.succs + 1;
       (* Other failures are different bugs: ignored here. *)
       if sv.sv_relevant then begin
         if t.streaming then begin
           (* Fold the slot's contribution the moment it is accepted,
              in slot order; the report itself is dropped (only
              [repr_failing] retains one). *)
           t.confirmed <- IntSet.union t.confirmed sv.sv_confirmed;
           List.iter
             (fun iid -> t.discovered <- IntSet.add iid t.discovered)
             sv.sv_discovered
         end
         else t.iter_reports <- (report, sv.sv_matches) :: t.iter_reports;
         if t.streaming || t.early then
           Predict.Stats.Acc.add t.acc
             Predict.Stats.
               { predictors = sv.sv_predictors; failing = sv.sv_matches }
       end);
    (* Adaptive checkpoint: at fixed consumed-slot boundaries (report
       counts, never wall-clock, so the decision is bit-identical at
       any [--jobs] and under any multiplexing), and only while the
       iteration's valid fraction holds quorum (lost reports bias the
       counts -- never stop early on a sample the faults thinned out),
       stop gathering the moment the bound separates the leader. *)
    if
      t.early && (not t.it_exited)
      && t.clients mod t.config.Config.checkpoint_every = 0
      && (not (below_quorum t.ov_len t.clients))
      && Predict.Stats.Acc.separated ~delta:t.config.Config.separation_delta
           t.acc
         <> None
    then t.it_exited <- true;
    (not t.it_exited)
    && quota_open t
    && t.clients < t.config.Config.max_clients_per_iter

  (* A pass is complete once every granted slot's outcome came back
     and either the fold said stop or the budget is exhausted.  Then
     decide quorum, with graceful degradation: if
     fewer than [quorum_frac] of pass 1's slots delivered a valid
     report, re-run once with fresh clients (lost and rejected slots
     stay consumed); if the fleet still cannot reach quorum the
     iteration is degraded and sigma is carried forward instead of
     doubled -- never steer AsT from a sample the faults have thinned
     out. *)
  let finish_pass t (g : gather) =
    match g.g_first with
    | None ->
      let v1 = g.g_valid and s1 = g.g_consumed in
      if
        below_quorum v1 s1 && quota_open t
        && t.clients < t.config.Config.max_clients_per_iter
      then start_pass t g.g_ctx ~first:(Some (v1, s1))
      else wrapup t g.g_ctx ~degraded:(below_quorum v1 s1)
    | Some (v1, s1) ->
      wrapup t g.g_ctx
        ~degraded:(below_quorum (v1 + g.g_valid) (s1 + g.g_consumed))

  let rec need t =
    match t.phase with
    | Done -> Finished
    | Gathering g ->
      if g.g_delivered >= g.g_granted && (g.g_stopped || g.g_granted >= g.g_budget)
      then begin
        finish_pass t g;
        need t
      end
      else if g.g_stopped then
        (* Outcomes are still outstanding but the fold already
           stopped: nothing more to grant — deliver what is out. *)
        Slots 0
      else Slots (g.g_budget - g.g_granted)

  let grant t k =
    match t.phase with
    | Done -> [||]
    | Gathering g ->
      let k = if g.g_stopped then 0 else max 0 (min k (g.g_budget - g.g_granted)) in
      let ctx = g.g_ctx in
      let base = g.g_base + g.g_granted in
      g.g_granted <- g.g_granted + k;
      Array.init k (fun j ->
          let c = base + j in
          fun () -> run_slot t ctx c)

  let deliver t outcomes =
    match t.phase with
    | Done -> ()
    | Gathering g ->
      Array.iter
        (fun o ->
          g.g_delivered <- g.g_delivered + 1;
          if not g.g_stopped then begin
            (* The consumed count includes the outcome whose consume
               says stop; later outcomes are discarded. *)
            g.g_consumed <- g.g_consumed + 1;
            if not (consume t g o) then g.g_stopped <- true
          end)
        outcomes

  (* A session at its create-time state, before the first iteration's
     plan: what [create] starts from and what [restore] overlays the
     snapshot onto. *)
  let fresh ~config ~ingest ~oracle ~id ~bug_name ~failure_type ~program
      ~workload_of ~(failure : Exec.Failure.report) =
    let config = Config.check config in
    (* Compile the program once up front (memoised in
       [Analysis.Cache]): every client run and PT decode below then
       hits the cache, so the one-time lowering happens here, in the
       caller, and not inside the first monitored client's slot. *)
    ignore (Analysis.Cache.lowered program);
    (* Exclusive upper bound on valid statement ids for payload
       validation (iids are 1-based, so this is max iid + 1, not the
       instruction count). *)
    let n_instrs =
      1
      + List.fold_left
          (fun m (i : Ir.Types.instr) -> max m i.iid)
          0
          (Ir.Program.all_instrs program)
    in
    let slice = Slicing.Slicer.compute program failure in
    let target_sig = Exec.Failure.signature failure in
    let streaming = ingest = Streaming in
    (* The adaptive stopping rule needs the streaming sufficient
       statistics even in retained mode, so its decisions are
       identical in both ingest modes (the retained ranking itself
       still comes from the replayed observations). *)
    let early = config.Config.early_exit in
    {
      s_id = id;
      config;
      bug_name;
      failure_type;
      program;
      workload_of;
      failure;
      oracle;
      streaming;
      early;
      n_instrs;
      slice;
      slice_size = Slicing.Slicer.instr_count slice;
      target_sig;
      sigma = config.Config.sigma0;
      discovered = IntSet.empty;
      confirmed = IntSet.empty;
      acc = Predict.Stats.Acc.create ();
      observations = [];
      repr_failing = None;
      audit = 0;
      base_cycles = 0.0;
      extra_cycles = 0.0;
      ov_buf = Array.make 256 0.0;
      ov_len = 0;
      best_sketch = None;
      trace = [];
      by_kind = Hashtbl.create 8;
      by_reason = Hashtbl.create 8;
      prev_winner = None;
      win_streak = 0;
      prev_plan = None;
      fails = 0;
      succs = 0;
      clients = 0;
      iter_reports = [];
      it_dispatched = 0;
      it_lost = 0;
      it_rejected = 0;
      it_quarantined = 0;
      it_exited = false;
      phase = Done;
    }

  let create ?(config = Config.default) ?(ingest = Streaming) ?oracle
      ?(id = 0) ~bug_name ~failure_type ~program ~workload_of ~failure () =
    let t =
      fresh ~config ~ingest ~oracle ~id ~bug_name ~failure_type ~program
        ~workload_of ~failure
    in
    begin_iteration t;
    t

  let result t =
    (match t.phase with
     | Gathering _ ->
       invalid_arg "Server.Session.result: diagnosis not finished"
     | Done -> ());
    let sketch =
      match t.best_sketch with
      | Some s -> s
      | None ->
        (* No monitored failure recurred: the sketch degenerates to
           the failing statement alone. *)
        Fsketch.Sketch.build ~bug_name:t.bug_name
          ~failure_type:t.failure_type ~program:t.program ~failure:t.failure
          ~per_thread:[ (t.failure.tid, [ t.failure.pc ]) ]
          ~traps:[] ~ranked:[]
    in
    let trace = List.rev t.trace in
    let total f = sum f trace in
    let dispatched = total (fun it -> it.it_dispatched) in
    let lost = total (fun it -> it.it_lost) in
    let rejected = total (fun it -> it.it_rejected) in
    {
      sketch;
      slice = t.slice;
      iterations = List.length trace;
      (* Recurrences (the Table 1 latency metric) count only the
         failing runs AsT actually needed, not surplus failures that
         happen while waiting for enough successful runs. *)
      recurrences =
        total (fun it -> min it.it_fails t.config.Config.fail_quota);
      (* Runs that executed (everything but lost dispatches) are
         monitored production runs, valid or not. *)
      total_runs = dispatched - lost;
      (* When no valid report carried base cycles, every per-run
         overhead was 0/0 = 0 as well, so 0.0 is the old list-average
         fallback without retaining the list. *)
      avg_overhead_pct =
        (if t.base_cycles > 0.0 then 100.0 *. t.extra_cycles /. t.base_cycles
         else 0.0);
      final_sigma = t.sigma;
      tracked =
        List.sort_uniq compare
          (Slicing.Slicer.take t.slice t.sigma @ IntSet.elements t.discovered);
      trace;
      fleet =
        {
          f_dispatched = dispatched;
          f_delivered = dispatched - lost;
          (* every dispatch ends lost, rejected or valid *)
          f_valid = dispatched - lost - rejected;
          f_lost = lost;
          f_rejected = rejected;
          f_retried = total (fun it -> it.it_retried);
          f_quarantined = total (fun it -> it.it_quarantined);
          f_degraded_iters = total (fun it -> Bool.to_int it.it_degraded);
          f_by_kind = tally t.by_kind;
          f_by_reason = tally t.by_reason;
        };
    }

  (* ---------------------------------------------------------------- *)
  (* Live introspection: the cheap counters a service status view
     reads without perturbing the state machine. *)

  type progress = {
    p_iteration : int;
    p_sigma : int;
    p_tracked : int;      (* statements tracked this iteration *)
    p_clients : int;      (* fleet slots consumed this iteration *)
    p_valid : int;        (* accepted reports this iteration *)
    p_fails : int;
    p_succs : int;
    p_total_runs : int;   (* monitored production runs, whole session *)
    p_finished : bool;
  }

  let progress t =
    {
      p_iteration = List.length t.trace + Bool.to_int (gathering t);
      p_sigma = t.sigma;
      p_tracked =
        (match t.phase with
         | Gathering g -> List.length g.g_ctx.x_tracked
         | Done -> 0);
      p_clients = t.clients;
      p_valid = t.ov_len;
      p_fails = t.fails;
      p_succs = t.succs;
      p_total_runs =
        sum (fun (it : iteration_info) -> it.it_dispatched - it.it_lost) t.trace
        + if gathering t then t.it_dispatched - t.it_lost else 0;
      p_finished = t.phase = Done;
    }

  (* What a thunk that raised looks like after containment: the
     service substitutes this deterministic "client crashed, nothing
     arrived" outcome so a poisoned slot degrades exactly like a
     fleet-fault crash instead of taking the scheduler down. *)
  let crashed_outcome =
    {
      o_valid = None;
      o_attempts = 1;
      o_lost = 1;
      o_rejects = [];
      o_kinds = [ Faults.Fault.Crash ];
      o_quarantined = false;
    }

  (* ---------------------------------------------------------------- *)
  (* Snapshot / restore: the full session state machine as versioned,
     digest-checked bytes (a [Hw.Codec.frame] around the [image]
     payload), so a crash-only service can checkpoint mid-diagnosis and
     restore a bit-identical continuation.

     What is serialized (version 4): only state that cannot be
     recomputed.  Derived state — the slice, the lowered program, the
     instrumentation plan, watchpoint groups, plan ids — is rebuilt
     deterministically from the serialized tracked lists at restore
     ([Instrument.Place.compute] is a pure function of
     (program, tracked)), which keeps snapshots O(slice + trace), not
     O(program).  The iteration count, client counter, recurrences, run
     totals and fleet stats are folds over the trace and the gathering
     pass, so they have no bytes of their own.  [best_sketch] is
     deliberately not serialized: every path from a gathering phase to
     [Done] passes through [wrapup], which rebuilds it from
     [repr_failing] and the restored sets.  Equal sessions snapshot
     to equal bytes.

     Snapshots are only legal at a quiescent point: no granted thunk
     still outstanding (the service checkpoints at round boundaries,
     where delivery is always complete) and the session not yet
     finished (a finished session is a completion, not a checkpoint
     candidate). *)

  module C = Hw.Codec

  let snapshot_magic = 0x675A (* "gZ" *)
  let snapshot_version = 4

  type snapshot_error =
    | Snapshot_truncated
    | Snapshot_bad_magic
    | Snapshot_bad_version of int
    | Snapshot_bad_digest
    | Snapshot_mismatch of string

  let snapshot_error_to_string = function
    | Snapshot_truncated -> "snapshot truncated"
    | Snapshot_bad_magic -> "snapshot bytes carry the wrong magic"
    | Snapshot_bad_version v ->
      Printf.sprintf "snapshot version %d, this build reads %d" v
        snapshot_version
    | Snapshot_bad_digest -> "snapshot digest mismatch (corrupt bytes)"
    | Snapshot_mismatch what ->
      Printf.sprintf "snapshot disagrees with its spec or itself: %s" what

  let of_codec_error : C.error -> snapshot_error = function
    | C.Bad_magic _ -> Snapshot_bad_magic
    | C.Bad_version v -> Snapshot_bad_version v
    | C.Bad_digest -> Snapshot_bad_digest
    | C.Invalid what -> Snapshot_mismatch what
    | C.Truncated | C.Bad_count _ | C.Bad_tag _ | C.Trailing _ ->
      Snapshot_truncated

  (* The frame: magic, version and session id, the id keying the digest
     (the leading 3 and 0 are the key words the v1 byte format fixed). *)
  let snapshot_frame =
    C.frame
      ~key:(fun s_id -> [ 3; 0; s_id; snapshot_version ])
      C.(magic uint snapshot_magic *> versioned snapshot_version uint)

  let predictor : Predict.Predictor.t C.t =
    let open Predict.Predictor in
    C.(
      variant
        [
          case 1 (pair uint bool)
            (function Branch_taken (i, b) -> Some (i, b) | _ -> None)
            (fun (i, b) -> Branch_taken (i, b));
          case 2 (pair uint string)
            (function Data_value (i, v) -> Some (i, v) | _ -> None)
            (fun (i, v) -> Data_value (i, v));
          case 3 (pair uint string)
            (function Value_range (i, v) -> Some (i, v) | _ -> None)
            (fun (i, v) -> Value_range (i, v));
          case 4 (triple string uint uint)
            (function Race (k, a, b) -> Some (k, a, b) | _ -> None)
            (fun (k, a, b) -> Race (k, a, b));
          case 5 (pair string (triple uint uint uint))
            (function Atomicity (k, a, b, c) -> Some (k, (a, b, c)) | _ -> None)
            (fun (k, (a, b, c)) -> Atomicity (k, a, b, c));
        ])

  let iteration_info : iteration_info C.t =
    C.(
      record
        (fun it_sigma it_tracked it_fails it_succs it_clients it_avg_overhead
             it_oracle_pass it_dispatched it_lost it_rejected it_retried
             it_quarantined it_degraded it_early_exit ->
          {
            it_sigma; it_tracked; it_fails; it_succs; it_clients;
            it_avg_overhead; it_oracle_pass; it_dispatched; it_lost;
            it_rejected; it_retried; it_quarantined; it_degraded;
            it_early_exit;
          })
        (fields
        |+ (uint, fun it -> it.it_sigma)
        |+ (uint, fun it -> it.it_tracked)
        |+ (uint, fun it -> it.it_fails)
        |+ (uint, fun it -> it.it_succs)
        |+ (uint, fun it -> it.it_clients)
        |+ (float, fun it -> it.it_avg_overhead)
        |+ (bool, fun it -> it.it_oracle_pass)
        |+ (uint, fun it -> it.it_dispatched)
        |+ (uint, fun it -> it.it_lost)
        |+ (uint, fun it -> it.it_rejected)
        |+ (uint, fun it -> it.it_retried)
        |+ (uint, fun it -> it.it_quarantined)
        |+ (bool, fun it -> it.it_degraded)
        |+ ( variant
               [
                 const 0 None;
                 const 1 (Some Separated);
                 const 2 (Some Converged);
               ],
             fun it -> it.it_early_exit )))

  (* [c_cooc] is a full-width wrapping fingerprint sum: zigzag would
     overflow on magnitudes >= 2^61, so the sign bit travels out of
     band. *)
  let cooc =
    C.(
      conv
        (fun c -> (c < 0, c land max_int))
        (fun (neg, low) -> if neg then low lor min_int else low)
        (pair bool uint))

  let observation : Predict.Stats.observation C.t =
    C.(
      conv
        (fun (o : Predict.Stats.observation) -> (o.predictors, o.failing))
        (fun (predictors, failing) -> Predict.Stats.{ predictors; failing })
        (pair (list predictor) bool))

  let table l =
    let tbl = Hashtbl.create 8 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) l;
    tbl

  let gather t =
    match t.phase with
    | Gathering g -> g
    | Done -> invalid_arg "Session.snapshot: session already finished"

  (* Decoding the snapshot payload yields this rebuild over a fresh
     session (the spec's program, slice and config): it checks the
     guard fields and the ledger identities, then recomputes the
     derived plans from the tracked lists. *)
  let rebuild bug_name streaming early n_instrs sigma discovered confirmed
      (cells, total_failing, n_obs) observations repr_failing audit
      base_cycles extra_cycles ov trace by_kind by_reason prev_winner
      win_streak prev_tracked fails succs clients iter_reports
      it_dispatched it_lost it_rejected it_quarantined it_exited x_tracked
      g_base g_budget g_first g_granted g_consumed g_stopped g_valid
      (base : t) =
    let known =
      IntSet.of_list
        (List.map
           (fun (i : instr) -> i.iid)
           (Ir.Program.all_instrs base.program))
    in
    let in_program = List.for_all (fun i -> IntSet.mem i known) in
    let mismatch what = Error (Snapshot_mismatch what) in
    (* The ledger identities [run_slot], [consume] and [wrapup]
       maintain (every dispatch ends lost, rejected or valid; every
       consumed slot is one client, its extra dispatches retries; every
       rejection has one reason): the first one the snapshot breaks,
       if any.  The session totals are folds over the trace, so these
       per-entry checks keep every one of them non-negative. *)
    let ledger =
      let valid = Array.length ov in
      List.find_map
        (fun (holds, what) -> if holds then None else Some what)
        [
          ( it_dispatched = it_lost + it_rejected + valid,
            "iteration dispatches are not lost + rejected + valid" );
          ( clients <= it_dispatched,
            "iteration has more clients than dispatches" );
          (fails + succs <= valid, "more fails + successes than valid reports");
          ( List.for_all
              (fun (it : iteration_info) ->
                it.it_lost + it.it_rejected <= it.it_dispatched)
              trace,
            "a traced iteration lost or rejected more than it dispatched" );
          ( List.for_all
              (fun (it : iteration_info) ->
                it.it_retried = it.it_dispatched - it.it_clients)
              trace,
            "traced retries are not dispatches - clients" );
          ( sum snd by_reason
            = it_rejected
              + sum (fun (it : iteration_info) -> it.it_rejected) trace,
            "rejection reasons do not sum to the rejections" );
        ]
    in
    if bug_name <> base.bug_name then
      mismatch (Printf.sprintf "bug %S vs %S" bug_name base.bug_name)
    else if streaming <> base.streaming then mismatch "ingest mode"
    else if early <> base.early then mismatch "early-exit flag"
    else if n_instrs <> base.n_instrs then mismatch "program shape"
    else if
      not
        (in_program x_tracked
        && in_program (Option.value ~default:[] prev_tracked))
    then mismatch "tracked statement outside the program"
    (* The gathering pass's counters, as [grant], [deliver] and
       [consume] maintain them: grants never exceed the budget, only
       delivered (here: granted) outcomes are consumed, and valid ones
       are a subset. *)
    else if not (g_consumed <= g_granted && g_granted <= g_budget) then
      mismatch
        (Printf.sprintf "gathering pass consumed %d of %d granted, budget %d"
           g_consumed g_granted g_budget)
    else if g_valid > g_consumed then
      mismatch
        (Printf.sprintf "gathering pass %d valid of %d consumed" g_valid
           g_consumed)
    else if ledger <> None then mismatch (Option.get ledger)
    else
      (* Plans are pure functions of (program, tracked), so the
         restored plans, ids and groups are the originals. *)
      let prev_plan = Option.map (plan_of base) prev_tracked in
      let plan, plan_id, groups = plan_of base x_tracked in
      let ov_len = Array.length ov in
      let ov_buf = Array.make (max 256 ov_len) 0.0 in
      Array.blit ov 0 ov_buf 0 ov_len;
      Ok {
        base with
        sigma;
        discovered = IntSet.of_list discovered;
        confirmed = IntSet.of_list confirmed;
        acc = Predict.Stats.Acc.import ~cells ~total_failing ~n_obs;
        observations;
        repr_failing;
        audit;
        base_cycles;
        extra_cycles;
        ov_buf;
        ov_len;
        trace;
        by_kind = table by_kind;
        by_reason = table by_reason;
        prev_winner;
        win_streak;
        prev_plan;
        fails;
        succs;
        clients;
        iter_reports;
        it_dispatched;
        it_lost;
        it_rejected;
        it_quarantined;
        it_exited;
        phase =
          Gathering
            {
              g_ctx =
                {
                  x_tracked;
                  x_tracked_set = IntSet.of_list x_tracked;
                  x_plan = plan;
                  x_plan_id = plan_id;
                  x_groups = groups;
                  x_prev = prev_plan;
                };
              g_base;
              g_budget;
              g_first;
              g_granted;
              g_delivered = g_granted;
              g_consumed;
              g_stopped;
              g_valid;
            };
      }

  (* The snapshot payload, in byte order: every field that can be
     neither recomputed from the create-time inputs nor folded from the
     others. *)
  let image =
    C.record rebuild
      C.(
        (fields
        (* spec guards, checked against the restoring spec *)
        |+ (string, fun t -> t.bug_name)
        |+ (bool, fun t -> t.streaming)
        |+ (bool, fun t -> t.early)
        |+ (uint, fun t -> t.n_instrs)
        (* cross-iteration AsT state *)
        |+ (uint, fun t -> t.sigma)
        |+ (list uint, fun t -> IntSet.elements t.discovered)
        |+ (list uint, fun t -> IntSet.elements t.confirmed)
        |+ ( triple (list (pair predictor (triple uint uint cooc))) uint uint,
             fun t -> Predict.Stats.Acc.export t.acc )
        |+ (list observation, fun t -> t.observations)
        |+ (option Protocol.Encode.report, fun t -> t.repr_failing)
        |+ (uint, fun t -> t.audit)
        |+ (float, fun t -> t.base_cycles)
        |+ (float, fun t -> t.extra_cycles)
        |+ (array float, fun t -> Array.sub t.ov_buf 0 t.ov_len)
        |+ (list iteration_info, fun t -> t.trace)
        |+ (list (pair string uint), fun t -> tally t.by_kind)
        |+ (list (pair string uint), fun t -> tally t.by_reason)
        |+ (option predictor, fun t -> t.prev_winner)
        |+ (uint, fun t -> t.win_streak)
        (* the previous iteration's plan, as its tracked list *)
        |+ ( option (list uint),
             fun t ->
               Option.map (fun (p, _, _) -> p.Instrument.Plan.tracked) t.prev_plan )
        (* per-iteration state *)
        |+ (uint, fun t -> t.fails)
        |+ (uint, fun t -> t.succs)
        |+ (uint, fun t -> t.clients)
        |+ (list (pair Protocol.Encode.report bool), fun t -> t.iter_reports)
        |+ (uint, fun t -> t.it_dispatched)
        |+ (uint, fun t -> t.it_lost)
        |+ (uint, fun t -> t.it_rejected)
        |+ (uint, fun t -> t.it_quarantined)
        |+ (bool, fun t -> t.it_exited)
        (* the gathering pass *)
        |+ (list uint, fun t -> (gather t).g_ctx.x_tracked)
        |+ (uint, fun t -> (gather t).g_base)
        |+ (uint, fun t -> (gather t).g_budget)
        |+ (option (pair uint uint), fun t -> (gather t).g_first)
        |+ (uint, fun t -> (gather t).g_granted)
        |+ (uint, fun t -> (gather t).g_consumed)
        |+ (bool, fun t -> (gather t).g_stopped)
        |+ (uint, fun t -> (gather t).g_valid)))

  let snapshot t =
    let g = gather t in
    if g.g_delivered < g.g_granted then
      invalid_arg
        "Session.snapshot: granted thunks still outstanding (snapshot only \
         at a round boundary)";
    let b = Buffer.create 1024 in
    C.seal snapshot_frame b t.s_id (C.encode image t);
    Buffer.contents b

  let restore ?(config = Config.default) ?(ingest = Streaming) ?oracle
      ~bug_name ~failure_type ~program ~workload_of
      ~(failure : Exec.Failure.report) bytes =
    match C.unseal snapshot_frame (Hw.Wirebuf.reader bytes) with
    | Error e -> Error (of_codec_error e)
    | Ok { C.intact = false; _ } -> Error Snapshot_bad_digest
    | Ok { C.header = id; pos; _ } -> (
      match C.decode image ~pos bytes with
      | Error e -> Error (of_codec_error e)
      | Ok rebuild ->
        rebuild
          (fresh ~config ~ingest ~oracle ~id ~bug_name ~failure_type ~program
             ~workload_of ~failure))
end

(* The one-shot entry point, now a thin single-session driver over
   {!Session} (and the reference oracle the differential suite holds
   the multiplexed service against).  The grant batch is one slot
   with no worker domains and four per worker otherwise, so a batch
   keeps every domain busy without much speculative surplus. *)
let diagnose ?(config = Config.default) ?(pool = Parallel.Pool.sequential)
    ?(ingest = Streaming) ?oracle ~bug_name ~failure_type ~program ~workload_of
    ~(failure : Exec.Failure.report) () =
  let s =
    Session.create ~config ~ingest ?oracle ~bug_name ~failure_type ~program
      ~workload_of ~failure ()
  in
  let jobs = Parallel.Pool.jobs pool in
  let batch = if jobs = 0 then 1 else jobs * 4 in
  let rec loop () =
    match Session.need s with
    | Session.Finished -> Session.result s
    | Session.Slots n ->
      let thunks = Session.grant s (min batch n) in
      Session.deliver s (Parallel.Pool.map_array pool (fun th -> th ()) thunks);
      loop ()
  in
  loop ()

(* Did the adaptive rule stop the whole diagnosis (as opposed to the
   oracle, the iteration cap, or sigma reaching the slice)? *)
let converged d =
  List.exists (fun it -> it.it_early_exit = Some Converged) d.trace
