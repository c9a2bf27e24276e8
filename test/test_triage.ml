(* Storm-proof triage suite (lib/sketch fingerprints + lib/serve
   triage).

   What it pins down:

     - fingerprint invariance: the triage fingerprint of a failure
       ignores everything that varies across recurrences of one bug —
       reporting client id, free-text message, assert/type payloads —
       and is stable across recomputation and precomputed slices
       (qcheck properties over the Bugbase + fuzz population);
     - the collision audit: across the whole population of distinct
       bugs, fingerprints are pairwise distinct, and the canonical
       predictor pattern of a diagnosis is name-invariant (equal
       fingerprints can only yield equal patterns);
     - coalescing semantics: a duplicate of an in-flight diagnosis
       coalesces (typed [Coalesced], counter bumps, no session); a
       duplicate of a recent diagnosis coalesces; past the recency
       window it re-opens on the recurrence lane; at the queue bound
       recurrences shed typed ([Shed] refusals, eviction notices) and
       fresh bugs never do; the ledger balances with the two new
       columns;
     - the cluster table: LRU-bounded with open clusters pinned,
       failed diagnoses dropped for a fresh attempt, codec roundtrip;
     - the storm differentials: a duplicate-heavy storm through a
       triaging service yields diagnoses bit-identical to one-shot
       [Gist.Server.diagnose] for every distinct fingerprint, with
       cluster table and lane state identical at jobs 1 and jobs 4 —
       and identical again when the service is killed and recovered
       at EVERY round boundary mid-storm;
     - the corpus reproducers: the two shrunk cases added for this
       suite coalesce mid-flight and after completion respectively. *)

module S = Gist.Server
module D = Tsupport.Diagnoses
module Svc = Serve.Service
module T = Serve.Triage
module F = Fsketch.Fingerprint

(* ------------------------------------------------------------------ *)
(* The fingerprint population: every Bugbase bug whose target failure
   manifests, plus 18 generated bugs (two per root-cause pattern).
   Probes are paid once, lazily. *)

let population =
  lazy
    (List.filter_map
       (fun (b : Bugbase.Common.t) ->
         Option.map
           (fun (_, f) -> (b.name, b.program, f))
           (Bugbase.Common.find_target_failure b))
       Bugbase.Registry.all
    @ List.filter_map
        (fun (case : Fuzz.Gen.case) ->
          match (Fuzz.Check.probe case).Fuzz.Check.p_target with
          | Some f -> Some (case.Fuzz.Gen.c_name, case.Fuzz.Gen.c_program, f)
          | None -> None)
        (Fuzz.Runner.cases ~seed:1000 ~count:18 ()))

let nth_pop i =
  let pop = Lazy.force population in
  List.nth pop (i mod List.length pop)

(* What recurrence is allowed to vary: the reporting client, the
   free-text message, and the payload carried inside the kind. *)
let vary ~tid ~message (r : Exec.Failure.report) =
  let kind =
    match r.Exec.Failure.kind with
    | Exec.Failure.Assert_fail _ -> Exec.Failure.Assert_fail message
    | Exec.Failure.Type_error _ -> Exec.Failure.Type_error message
    | k -> k
  in
  { r with Exec.Failure.kind; tid; message }

let qcheck_case name count law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       QCheck.(triple small_nat small_nat printable_string)
       law)

let fingerprint_props =
  [
    qcheck_case "invariant under client id and message" 60
      (fun (i, tid, message) ->
        let _, program, failure = nth_pop i in
        F.compute program failure
        = F.compute program (vary ~tid ~message failure));
    qcheck_case "stable across recomputation and precomputed slices" 40
      (fun (i, salt, _) ->
        let _, program, failure = nth_pop i in
        let slice = Slicing.Slicer.compute program failure in
        F.compute ~salt program failure
        = F.of_slice ~salt program failure slice
        && F.to_int (F.compute ~salt program failure)
           = F.to_int (F.compute ~salt program failure));
    qcheck_case "salt separates differently configured diagnoses" 40
      (fun (i, salt, _) ->
        let _, program, failure = nth_pop i in
        F.compute ~salt program failure
        <> F.compute ~salt:(salt + 1) program failure);
    qcheck_case "to_int is non-negative" 40
      (fun (i, _, _) ->
        let _, program, failure = nth_pop i in
        F.to_int (F.compute program failure) >= 0);
  ]

(* The audit: distinct bugs draw pairwise distinct fingerprints over
   the whole population (so coalescing never folds two different bugs
   together), and the canonical predictor pattern of a diagnosis is a
   pure function of the bug — not of the session name it was
   diagnosed under. *)
let collision_audit () =
  let pop = Lazy.force population in
  Alcotest.(check bool)
    (Printf.sprintf "population is real (%d bugs)" (List.length pop))
    true
    (List.length pop >= 20);
  (* Ground-truth bug identity: the failure pattern plus the
     normalized slice by source shape — what the fingerprint is
     DEFINED over.  The generator does occasionally mint the same
     core bug twice under different random padding (same source
     lines, renumbered iids); fingerprinting those equal is correct
     coalescing, not a collision. *)
  let identity program (failure : Exec.Failure.report) =
    let slice = Slicing.Slicer.compute program failure in
    let describe iid =
      let l = Ir.Program.loc_of program iid in
      Printf.sprintf "%s:%d:%s" l.Ir.Types.file l.Ir.Types.line
        (Ir.Program.instr_at program iid).Ir.Types.text
    in
    let entries =
      List.map
        (fun (e : Slicing.Slicer.entry) ->
          Printf.sprintf "%d@%s" e.Slicing.Slicer.e_dist
            (describe e.Slicing.Slicer.e_iid))
        slice.Slicing.Slicer.entries
    in
    String.concat "|"
      (Exec.Failure.kind_tag failure.Exec.Failure.kind
      :: describe failure.Exec.Failure.pc
      :: (failure.Exec.Failure.stack @ entries))
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (name, program, failure) ->
      let fp = F.to_int (F.compute program failure) in
      let id = identity program failure in
      (match Hashtbl.find_opt seen fp with
       | Some (other, other_id) when other_id <> id ->
         Alcotest.failf "fingerprint collision: %s vs %s (%012x)" name other fp
       | _ -> ());
      Hashtbl.add seen fp (name, id))
    pop

let pattern_name_invariance () =
  let b = List.hd Bugbase.Registry.all in
  let _, failure = Option.get (Bugbase.Common.find_target_failure b) in
  let diagnose name =
    S.diagnose ~bug_name:name ~failure_type:b.failure_type
      ~program:b.program ~workload_of:b.workload_of ~failure ()
  in
  let pat (d : S.diagnosis) =
    F.pattern_of_ranked b.program d.S.sketch.Fsketch.Sketch.predictors
  in
  let p1 = pat (diagnose b.name) in
  let p2 = pat (diagnose (b.name ^ "@recurrence-7")) in
  Alcotest.(check bool) "pattern is non-empty" true (p1 <> "");
  Alcotest.(check string) "pattern ignores the session name" p1 p2

(* ------------------------------------------------------------------ *)
(* Spec builders (as in test_serve / test_recover). *)

let bugbase_spec (b : Bugbase.Common.t) =
  let _, failure = Option.get (Bugbase.Common.find_target_failure b) in
  {
    Svc.sp_name = b.name;
    sp_failure_type = b.failure_type;
    sp_config = { Gist.Config.default with preempt_prob = b.preempt_prob };
    sp_ingest = S.Streaming;
    sp_oracle = Some (Experiments.Oracle.for_bug b);
    sp_program = b.program;
    sp_workload_of = b.workload_of;
    sp_failure = failure;
    sp_case = None;
  }

(* The same underlying bug under different session names: the raw
   material of a duplicate storm. *)
let dup_spec base name = { base with Svc.sp_name = name }

let spec_a = lazy (bugbase_spec (List.hd Bugbase.Registry.all))
let spec_b = lazy (bugbase_spec (List.nth Bugbase.Registry.all 1))

let triage_cfg =
  {
    Svc.default with
    Svc.triage = true;
    max_inflight = 4;
    max_queue = 8;
    quantum = 8;
    round_budget = 32;
    recency_rounds = 0;
  }

let expect_ticket what = function
  | Ok (Svc.Ticket id) -> id
  | Ok (Svc.Coalesced _) -> Alcotest.failf "%s: coalesced, wanted a ticket" what
  | Error r -> Alcotest.failf "%s: %s" what (Svc.sreject_to_string r)

let expect_coalesced what = function
  | Ok (Svc.Coalesced { canonical; count }) -> (canonical, count)
  | Ok (Svc.Ticket id) -> Alcotest.failf "%s: ticket %d, wanted coalesced" what id
  | Error r -> Alcotest.failf "%s: %s" what (Svc.sreject_to_string r)

let coalesce_mid_flight () =
  let a = Lazy.force spec_a in
  let svc = Svc.create ~sconfig:triage_cfg () in
  let id = expect_ticket "first" (Svc.submit svc a) in
  Alcotest.(check int) "first ticket" 1 id;
  let canonical, count =
    expect_coalesced "duplicate of an in-flight diagnosis"
      (Svc.submit svc (dup_spec a "a@1"))
  in
  Alcotest.(check int) "canonical is the first ticket" 1 canonical;
  Alcotest.(check int) "recurrence count" 2 count;
  (match Svc.clusters svc with
   | [ v ] ->
     Alcotest.(check int) "cluster count" 2 v.T.v_count;
     Alcotest.(check int) "open (in flight)" (-1) v.T.v_done_round
   | l -> Alcotest.failf "expected one cluster, got %d" (List.length l));
  Svc.drain svc;
  let st = Svc.stats svc in
  Alcotest.(check int) "one session diagnosed" 1 st.Svc.st_completed;
  Alcotest.(check int) "one coalesced" 1 st.Svc.st_coalesced;
  Alcotest.(check (option string)) "ledger balances" None
    (Svc.ledger_error svc)

let coalesce_after_completion () =
  let a = Lazy.force spec_a in
  let svc = Svc.create ~sconfig:triage_cfg () in
  ignore (expect_ticket "first" (Svc.submit svc a));
  Svc.drain svc;
  (* recency_rounds = 0: a diagnosed cluster coalesces for as long as
     it stays tabled. *)
  let canonical, count =
    expect_coalesced "duplicate after completion"
      (Svc.submit svc (dup_spec a "a@later"))
  in
  Alcotest.(check int) "canonical survives completion" 1 canonical;
  Alcotest.(check int) "count" 2 count;
  (match Svc.clusters svc with
   | [ v ] ->
     Alcotest.(check bool) "diagnosed (done round recorded)" true
       (v.T.v_done_round >= 0)
   | l -> Alcotest.failf "expected one cluster, got %d" (List.length l));
  let st = Svc.stats svc in
  Alcotest.(check int) "still one diagnosis" 1 st.Svc.st_completed;
  Alcotest.(check int) "coalesced" 1 st.Svc.st_coalesced

(* The triage salt folds every field of the spec's config, its fault
   rates and its ingest mode: the same bug submitted with any one of
   them changed is a different artifact, so it gets a ticket of its
   own instead of coalescing into the default's cluster. *)
let salt_separates_every_field () =
  let a = Lazy.force spec_a in
  let c = a.Svc.sp_config in
  let r = c.Gist.Config.fault_rates in
  let rates f = { c with Gist.Config.fault_rates = f } in
  let configs =
    [
      ("sigma0", { c with Gist.Config.sigma0 = c.sigma0 + 1 });
      ("max_iterations", { c with max_iterations = c.max_iterations + 1 });
      ("fail_quota", { c with fail_quota = c.fail_quota + 1 });
      ("succ_quota", { c with succ_quota = c.succ_quota + 1 });
      ( "max_clients_per_iter",
        { c with max_clients_per_iter = c.max_clients_per_iter + 1 } );
      ("wp_capacity", { c with wp_capacity = c.wp_capacity + 1 });
      ("enable_cf", { c with enable_cf = not c.enable_cf });
      ("enable_df", { c with enable_df = not c.enable_df });
      ("preempt_prob", { c with preempt_prob = c.preempt_prob +. 0.05 });
      ("max_steps", { c with max_steps = c.max_steps + 1 });
      ("data_source", { c with data_source = Gist.Config.Ptwrite });
      ("range_predicates", { c with range_predicates = not c.range_predicates });
      ("redact_values", { c with redact_values = not c.redact_values });
      ("fault_seed", { c with fault_seed = c.fault_seed + 1 });
      ("early_exit", { c with early_exit = not c.early_exit });
      ( "separation_delta",
        { c with separation_delta = c.separation_delta /. 2.0 } );
      ("checkpoint_every", { c with checkpoint_every = c.checkpoint_every + 1 });
      ("crash", rates { r with Faults.Fault.crash = 0.1 });
      ("drop", rates { r with drop = 0.1 });
      ("pt_truncate", rates { r with pt_truncate = 0.1 });
      ("pt_corrupt", rates { r with pt_corrupt = 0.1 });
      ("wp_corrupt", rates { r with wp_corrupt = 0.1 });
      ("straggler", rates { r with straggler = 0.1 });
      ("stale_plan", rates { r with stale_plan = 0.1 });
    ]
  in
  let variants =
    ("sp_ingest", { a with Svc.sp_name = "a@sp_ingest"; sp_ingest = S.Retained })
    :: List.map
         (fun (field, sp_config) ->
           (field, { a with Svc.sp_name = "a@" ^ field; sp_config }))
         configs
  in
  let sconfig = { triage_cfg with Svc.max_queue = 64 } in
  let svc = Svc.create ~sconfig () in
  ignore (expect_ticket "default spec" (Svc.submit svc a));
  List.iter
    (fun (field, sp) ->
      Gist.Config.check sp.Svc.sp_config |> ignore;
      ignore (expect_ticket field (Svc.submit svc sp)))
    variants;
  Alcotest.(check int) "one cluster per spec"
    (1 + List.length variants)
    (List.length (Svc.clusters svc))

(* Advance the service's round counter by diagnosing an unrelated
   bug: rounds only tick while there is work. *)
let burn_rounds svc spec =
  ignore (expect_ticket "filler" (Svc.submit svc spec));
  Svc.drain svc

let recurrence_lane () =
  let a = Lazy.force spec_a and b = Lazy.force spec_b in
  let sconfig = { triage_cfg with Svc.recency_rounds = 1 } in
  let svc = Svc.create ~sconfig () in
  ignore (expect_ticket "first" (Svc.submit svc a));
  Svc.drain svc;
  burn_rounds svc b;
  (* The cluster's recency window has long expired: the duplicate
     re-opens it as a recurrence-lane session. *)
  let id = expect_ticket "recurrence" (Svc.submit svc (dup_spec a "a@42")) in
  ignore (Svc.step svc : bool);
  (match
     List.find_opt (fun (v : Svc.session_view) -> v.Svc.v_id = id)
       (Svc.status svc)
   with
   | Some v ->
     Alcotest.(check string) "admitted on the recurrence lane" "recur"
       (Svc.lane_label v.Svc.v_lane)
   | None -> Alcotest.fail "recurrence session not in the ring");
  Svc.drain svc;
  let st = Svc.stats svc in
  Alcotest.(check int) "recurrence admissions" 1 st.Svc.st_recur_admitted;
  Alcotest.(check int) "fresh admissions" 2 st.Svc.st_fresh_admitted;
  Alcotest.(check int) "three diagnoses" 3 st.Svc.st_completed;
  let lv = Svc.lanes svc in
  Alcotest.(check int) "lane view: fresh admitted" 2 lv.Svc.lv_fresh_admitted;
  Alcotest.(check int) "lane view: recur admitted" 1 lv.Svc.lv_recur_admitted

let shed_at_the_bound () =
  let a = Lazy.force spec_a and b = Lazy.force spec_b in
  let sconfig =
    { triage_cfg with Svc.max_inflight = 1; max_queue = 1; recency_rounds = 1 }
  in
  let svc = Svc.create ~sconfig () in
  ignore (expect_ticket "first" (Svc.submit svc a));
  Svc.drain svc;
  burn_rounds svc b;
  (* Fill the one-slot waiting room with a fresh bug, then offer a
     recurrence: recurrences are the shed class at the bound. *)
  let c = bugbase_spec (List.nth Bugbase.Registry.all 2) in
  ignore (expect_ticket "fresh fills the queue" (Svc.submit svc c));
  (match Svc.submit svc (dup_spec a "a@storm") with
   | Error (Svc.Shed { retry_after_rounds; _ }) ->
     Alcotest.(check bool) "retry hint positive" true (retry_after_rounds >= 1)
   | Error (Svc.Busy _) -> Alcotest.fail "recurrence drew Busy, wanted Shed"
   | Ok _ -> Alcotest.fail "recurrence accepted past the bound");
  Svc.drain svc;
  let st = Svc.stats svc in
  Alcotest.(check int) "one shed" 1 st.Svc.st_shed;
  Alcotest.(check (option string)) "ledger balances with shed" None
    (Svc.ledger_error svc)

let fresh_evicts_queued_recurrence () =
  let a = Lazy.force spec_a and b = Lazy.force spec_b in
  let sconfig =
    { triage_cfg with Svc.max_inflight = 1; max_queue = 1; recency_rounds = 1 }
  in
  let svc = Svc.create ~sconfig () in
  ignore (expect_ticket "first" (Svc.submit svc a));
  Svc.drain svc;
  burn_rounds svc b;
  (* A queued recurrence holds the only slot; a fresh bug must not
     draw Busy — it evicts the recurrence, which is shed with a typed
     notice. *)
  let rid =
    expect_ticket "recurrence queues" (Svc.submit svc (dup_spec a "a@1"))
  in
  let c = bugbase_spec (List.nth Bugbase.Registry.all 2) in
  ignore (expect_ticket "fresh evicts the recurrence" (Svc.submit svc c));
  (match Svc.take_shed svc with
   | [ n ] ->
     Alcotest.(check int) "notice names the evicted ticket" rid n.Svc.sh_id;
     Alcotest.(check string) "notice names the session" "a@1" n.Svc.sh_name;
     Alcotest.(check bool) "notice retry hint positive" true
       (n.Svc.sh_retry_after_rounds >= 1)
   | l -> Alcotest.failf "expected one shed notice, got %d" (List.length l));
  Svc.drain svc;
  let st = Svc.stats svc in
  Alcotest.(check int) "shed booked" 1 st.Svc.st_shed;
  Alcotest.(check (option string)) "ledger balances" None
    (Svc.ledger_error svc)

(* ------------------------------------------------------------------ *)
(* The cluster table in isolation. *)

let lru_pins_open_clusters () =
  let t = T.create ~max_clusters:2 ~recency_rounds:0 in
  T.open_fresh t ~fp:11 ~name:"a" ~id:1;
  T.completed t ~fp:11 ~id:1 ~round:1 ~digest:101 ~ok:true;
  T.open_fresh t ~fp:22 ~name:"b" ~id:2;
  T.completed t ~fp:22 ~id:2 ~round:2 ~digest:102 ~ok:true;
  Alcotest.(check int) "at the bound" 2 (T.size t);
  (* A third cluster evicts the least recently touched Done one. *)
  T.open_fresh t ~fp:33 ~name:"c" ~id:3;
  Alcotest.(check int) "still at the bound" 2 (T.size t);
  Alcotest.(check int) "one eviction" 1 (T.evicted t);
  (match T.classify t ~round:3 11 with
   | T.New -> ()
   | _ -> Alcotest.fail "evicted fingerprint should classify New");
  (* Open clusters are pinned: with the table full of Open work, the
     bound stretches rather than dropping an in-flight cluster. *)
  T.open_fresh t ~fp:44 ~name:"d" ~id:4;
  Alcotest.(check bool) "open clusters never evicted" true (T.size t >= 2);
  (match T.classify t ~round:3 33 with
   | T.Duplicate _ -> ()
   | _ -> Alcotest.fail "open cluster must coalesce")

let failed_diagnosis_drops_cluster () =
  let t = T.create ~max_clusters:8 ~recency_rounds:0 in
  T.open_fresh t ~fp:7 ~name:"x" ~id:1;
  T.completed t ~fp:7 ~id:1 ~round:2 ~digest:0 ~ok:false;
  Alcotest.(check int) "dropped" 0 (T.size t);
  match T.classify t ~round:3 7 with
  | T.New -> ()
  | _ -> Alcotest.fail "a failed diagnosis deserves a fresh attempt"

let revert_reopen_restores_done () =
  let t = T.create ~max_clusters:8 ~recency_rounds:0 in
  T.open_fresh t ~fp:5 ~name:"y" ~id:1;
  T.completed t ~fp:5 ~id:1 ~round:4 ~digest:9 ~ok:true;
  T.reopen t ~fp:5 ~name:"y@1" ~id:2;
  T.revert_reopen t ~fp:5 ~canonical:1 ~done_round:4;
  match T.classify t ~round:4 5 with
  | T.Duplicate { canonical = 1; _ } -> ()
  | T.Duplicate _ -> Alcotest.fail "revert must restore the original canonical"
  | _ -> Alcotest.fail "reverted cluster must be Done again"

let codec_roundtrip () =
  let t = T.create ~max_clusters:4 ~recency_rounds:2 in
  T.open_fresh t ~fp:11 ~name:"a" ~id:1;
  T.completed t ~fp:11 ~id:1 ~round:1 ~digest:77 ~ok:true;
  T.open_fresh t ~fp:22 ~name:"b" ~id:2;
  T.coalesce t ~fp:22;
  let t' =
    match Hw.Codec.decode T.codec (Hw.Codec.encode T.codec t) with
    | Ok t' -> t'
    | Error e -> Alcotest.failf "decode: %s" (Hw.Codec.error_to_string e)
  in
  let bytes t = Hw.Codec.encode T.codec t in
  Alcotest.(check string) "roundtrip equal" (bytes t) (bytes t');
  Alcotest.(check bool) "views equal" true (T.views t = T.views t');
  T.coalesce t ~fp:22;
  Alcotest.(check bool) "encoding detects divergence" false
    (bytes t = bytes t')

(* ------------------------------------------------------------------ *)
(* Storm differentials.  A duplicate-heavy stream, bounded configs so
   diagnoses span a handful of rounds, submissions in two phases so
   the second phase lands on Done clusters and exercises the
   recurrence lane mid-storm. *)

let storm_tweak (c : Gist.Config.t) =
  {
    c with
    Gist.Config.max_iterations = 2;
    max_clients_per_iter = 40;
    fail_quota = 2;
    succ_quota = 4;
  }

let storm_specs =
  lazy (Serve.Stream.storm ~tweak:storm_tweak ~seed:11 ~sessions:36
          ~dup_ratio:0.7 ())

let storm_sconfig =
  {
    Svc.default with
    Svc.max_inflight = 8;
    max_queue = 64;
    quantum = 7;
    round_budget = 23;
    checkpoint_every_rounds = 3;
    triage = true;
    recency_rounds = 1;
    fresh_weight = 2;
    recur_weight = 1;
  }

let resolver specs =
  let by_name = Hashtbl.create (List.length specs) in
  List.iter
    (fun (sp : Svc.spec) -> Hashtbl.replace by_name sp.Svc.sp_name sp)
    specs;
  fun name -> Hashtbl.find_opt by_name name

(* Drive [specs] through one triaging service; [kill] recovers a
   fresh incarnation from the journal after EVERY round.  Returns the
   first-sighting completions, the cluster table view, the lane view
   and the stats — everything the differentials compare. *)
let run_storm ~jobs ~kill specs =
  let resolve = resolver specs in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let svc = ref (Svc.create ~sconfig:storm_sconfig ~pool ()) in
      let done_ = Hashtbl.create 64 in
      let harvest () =
        List.iter
          (fun (c : Svc.completion) ->
            if not (Hashtbl.mem done_ c.Svc.c_name) then
              Hashtbl.replace done_ c.Svc.c_name c)
          (Svc.take_completions !svc);
        ignore (Svc.take_shed !svc : Svc.shed_notice list)
      in
      let tick () =
        let more = Svc.step !svc in
        harvest ();
        if kill then
          (match Svc.recover ~pool ~resolve (Svc.journal_bytes !svc) with
           | Ok s -> svc := s
           | Error e -> Alcotest.failf "recover: %s" (Svc.rerror_to_string e));
        more
      in
      let submit l =
        List.iter
          (fun sp ->
            match Svc.submit !svc sp with
            | Ok _ | Error (Svc.Shed _) -> ()
            | Error (Svc.Busy _ as r) ->
              Alcotest.failf "storm submit %s: %s" sp.Svc.sp_name
                (Svc.sreject_to_string r))
          l
      in
      let n = List.length specs in
      let first = List.filteri (fun i _ -> i < n / 2) specs in
      let second = List.filteri (fun i _ -> i >= n / 2) specs in
      submit first;
      for _ = 1 to 12 do
        ignore (tick () : bool)
      done;
      submit second;
      while tick () do () done;
      harvest ();
      let st = Svc.stats !svc in
      Alcotest.(check (option string)) "storm ledger balances" None
        (Svc.ledger_error !svc);
      Alcotest.(check int) "no replay divergences" 0 st.Svc.st_divergences;
      ( Hashtbl.fold (fun name c acc -> (name, c) :: acc) done_ [],
        Svc.clusters !svc,
        Svc.lanes !svc,
        st ))

let check_against_one_shot label specs served =
  let resolve = resolver specs in
  let reference = Hashtbl.create 32 in
  List.iter
    (fun (name, (c : Svc.completion)) ->
      match c.Svc.c_result with
      | Ok d ->
        let sp =
          match resolve name with
          | Some sp -> sp
          | None -> Alcotest.failf "%s: unknown session %s" label name
        in
        let oracle =
          match Hashtbl.find_opt reference name with
          | Some d -> d
          | None ->
            let d = D.one_shot sp in
            Hashtbl.add reference name d;
            d
        in
        D.compare (Printf.sprintf "%s: %s" label name) oracle d
      | Error f ->
        Alcotest.failf "%s: session %s failed: %s" label name
          (Svc.session_failure_to_string f))
    served

let storm_differential ~jobs () =
  let specs = Lazy.force storm_specs in
  Alcotest.(check bool)
    (Printf.sprintf "storm stream is real (%d sessions)" (List.length specs))
    true
    (List.length specs >= 30);
  let served, clusters, lanes, st = run_storm ~jobs ~kill:false specs in
  Alcotest.(check bool) "duplicates coalesced" true (st.Svc.st_coalesced > 0);
  Alcotest.(check bool) "recurrence lane exercised" true
    (st.Svc.st_recur_admitted > 0);
  Alcotest.(check bool) "cluster table populated" true (clusters <> []);
  check_against_one_shot
    (Printf.sprintf "storm jobs %d" jobs)
    specs served;
  (served, clusters, lanes, st)

let storm_jobs_equivalence () =
  let _, cl1, lv1, st1 = storm_differential ~jobs:1 () in
  let _, cl4, lv4, st4 = storm_differential ~jobs:4 () in
  Alcotest.(check bool) "cluster tables identical at jobs 1 and 4" true
    (cl1 = cl4);
  Alcotest.(check bool) "lane state identical at jobs 1 and 4" true
    (lv1 = lv4);
  Alcotest.(check bool) "stats ledger identical at jobs 1 and 4" true
    (st1 = st4)

let render_clusters views =
  String.concat "\n"
    (List.map
       (fun (v : T.view) ->
         Printf.sprintf "%016x %s canon=%d count=%d done=%d" v.T.v_fp
           v.T.v_name v.T.v_canonical v.T.v_count v.T.v_done_round)
       views)

let render_lanes (lv : Svc.lane_view) =
  Printf.sprintf "fresh{q=%d c=%d adm=%d} recur{q=%d c=%d adm=%d}"
    lv.Svc.lv_fresh_queued lv.Svc.lv_fresh_credit lv.Svc.lv_fresh_admitted
    lv.Svc.lv_recur_queued lv.Svc.lv_recur_credit lv.Svc.lv_recur_admitted

let storm_kill_differential () =
  let specs = Lazy.force storm_specs in
  let served_live, cl_live, lv_live, st_live =
    run_storm ~jobs:1 ~kill:false specs
  in
  let served_kill, cl_kill, lv_kill, st_kill =
    run_storm ~jobs:1 ~kill:true specs
  in
  Alcotest.(check int) "same sessions diagnosed across the kills"
    (List.length served_live) (List.length served_kill);
  check_against_one_shot "storm with kills" specs served_kill;
  Alcotest.(check string) "cluster table bit-identical across recovery"
    (render_clusters cl_live) (render_clusters cl_kill);
  Alcotest.(check bool) "cluster views structurally equal" true
    (cl_live = cl_kill);
  Alcotest.(check string) "lane state bit-identical across recovery"
    (render_lanes lv_live) (render_lanes lv_kill);
  Alcotest.(check int) "same coalesced count" st_live.Svc.st_coalesced
    st_kill.Svc.st_coalesced;
  Alcotest.(check int) "same shed count" st_live.Svc.st_shed
    st_kill.Svc.st_shed;
  Alcotest.(check int) "same recurrence admissions"
    st_live.Svc.st_recur_admitted st_kill.Svc.st_recur_admitted

(* ------------------------------------------------------------------ *)
(* The corpus reproducers added for this suite: 20-* coalesces against
   its own in-flight diagnosis, 21-* against its completed one. *)

let corpus_case prefix =
  let dir =
    if Sys.file_exists "corpus" then "corpus"
    else if Sys.file_exists "test/corpus" then "test/corpus"
    else Filename.concat (Filename.dirname Sys.executable_name) "corpus"
  in
  match Fuzz.Corpus.load_dir dir with
  | Error e -> Alcotest.failf "corpus load: %s" e
  | Ok cases ->
    (match
       List.find_opt
         (fun (c : Fuzz.Gen.case) ->
           String.length c.Fuzz.Gen.c_name >= String.length prefix
           && String.sub c.Fuzz.Gen.c_name 0 (String.length prefix) = prefix)
         cases
     with
     | Some c -> c
     | None -> Alcotest.failf "no corpus case with prefix %s" prefix)

let corpus_spec (case : Fuzz.Gen.case) =
  match Serve.Stream.fuzz_spec ~early_exit:false ~name:case.Fuzz.Gen.c_name case with
  | Some sp -> sp
  | None -> Alcotest.failf "corpus case %s not diagnosable" case.Fuzz.Gen.c_name

let corpus_coalesces_mid_flight () =
  let sp = corpus_spec (corpus_case "20-") in
  let svc = Svc.create ~sconfig:triage_cfg () in
  let id = expect_ticket "reproducer" (Svc.submit svc sp) in
  let canonical, count =
    expect_coalesced "duplicate while the reproducer is in flight"
      (Svc.submit svc (dup_spec sp (sp.Svc.sp_name ^ "@dup")))
  in
  Alcotest.(check int) "canonical" id canonical;
  Alcotest.(check int) "count" 2 count;
  Svc.drain svc;
  let st = Svc.stats svc in
  Alcotest.(check int) "one diagnosis" 1 st.Svc.st_completed;
  Alcotest.(check int) "one coalesced" 1 st.Svc.st_coalesced

let corpus_coalesces_after_completion () =
  let sp = corpus_spec (corpus_case "21-") in
  let svc = Svc.create ~sconfig:triage_cfg () in
  ignore (expect_ticket "reproducer" (Svc.submit svc sp));
  Svc.drain svc;
  let canonical, _ =
    expect_coalesced "duplicate after the reproducer completed"
      (Svc.submit svc (dup_spec sp (sp.Svc.sp_name ^ "@dup")))
  in
  Alcotest.(check int) "canonical survives completion" 1 canonical;
  let st = Svc.stats svc in
  Alcotest.(check int) "one diagnosis" 1 st.Svc.st_completed;
  Alcotest.(check int) "one coalesced" 1 st.Svc.st_coalesced

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "triage"
    [
      ("fingerprint", fingerprint_props);
      ( "audit",
        [
          Alcotest.test_case "no collisions across Bugbase + fuzz" `Slow
            collision_audit;
          Alcotest.test_case "predictor pattern ignores the session name"
            `Quick pattern_name_invariance;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "duplicate of an in-flight diagnosis" `Quick
            coalesce_mid_flight;
          Alcotest.test_case "duplicate after completion" `Quick
            coalesce_after_completion;
          Alcotest.test_case "recurrence lane past the recency window" `Quick
            recurrence_lane;
          Alcotest.test_case "one changed spec field never coalesces" `Quick
            salt_separates_every_field;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "recurrence shed at the queue bound" `Quick
            shed_at_the_bound;
          Alcotest.test_case "fresh evicts a queued recurrence, typed" `Quick
            fresh_evicts_queued_recurrence;
        ] );
      ( "table",
        [
          Alcotest.test_case "LRU evicts Done only, Open pinned" `Quick
            lru_pins_open_clusters;
          Alcotest.test_case "failed diagnosis drops the cluster" `Quick
            failed_diagnosis_drops_cluster;
          Alcotest.test_case "revert_reopen restores Done" `Quick
            revert_reopen_restores_done;
          Alcotest.test_case "codec roundtrip" `Quick codec_roundtrip;
        ] );
      ( "storm",
        [
          Alcotest.test_case "jobs 1 = jobs 4: clusters, lanes, ledger" `Slow
            storm_jobs_equivalence;
          Alcotest.test_case "kill at every round: state bit-identical" `Slow
            storm_kill_differential;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "reproducer coalesces mid-flight" `Quick
            corpus_coalesces_mid_flight;
          Alcotest.test_case "reproducer coalesces after completion" `Quick
            corpus_coalesces_after_completion;
        ] );
    ]
