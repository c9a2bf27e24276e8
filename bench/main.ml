(* The benchmark harness.

   1. Regenerates every table and figure of the paper's evaluation
      (Table 1, Figs 9-13, the §5.3 summary numbers and the §6
      extensions), printing the same rows/series the paper reports.
   2. Registers one Bechamel micro-benchmark per pipeline stage /
      experiment so the cost of each component is measurable.
   3. Holds the gates of `dune build @check` that are not unit tests:
      the adaptive early-exit gate and the service soak.

   Repeated, layer-by-layer performance measurement lives in
   perfbench/ (see perfbench/METRICS.md).

   Usage:
     bench/main.exe                 -- everything
     bench/main.exe table1 fig9 ... -- selected experiments
     bench/main.exe micro           -- only the Bechamel micro-benchmarks
     bench/main.exe soak            -- the service soak gate *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: one per experiment's dominant pipeline stage. *)

let bug = Bugbase.Pbzip2.bug

let failure =
  lazy (snd (Option.get (Bugbase.Common.find_target_failure bug)))

let slice = lazy (Slicing.Slicer.compute bug.program (Lazy.force failure))

let micro_tests () =
  let failure = Lazy.force failure in
  let slice = Lazy.force slice in
  let tracked = Slicing.Slicer.take slice 8 in
  let plan = Instrument.Place.compute bug.program tracked in
  let workload = bug.workload_of 0 in
  (* A pre-recorded PT stream for the decode benchmark. *)
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let wp = Hw.Watchpoint.create counters in
  let hooks = Instrument.Runtime.hooks ~data_via_pt:false ~plan ~pt ~wp ~wp_allowed:[] in
  let _ = Exec.Interp.run ~hooks ~counters bug.program workload in
  Hw.Pt.finish pt;
  let packets = Hw.Pt.packets_of pt 1 in
  (* A set of client observations for the ranking benchmark. *)
  let observations =
    List.init 20 (fun c ->
        let report =
          Gist.Client.run_one ~plan ~wp_allowed:plan.Instrument.Plan.wp_targets
            ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of c)
        in
        Predict.Stats.
          {
            predictors =
              Predict.Predictor.of_run ~tracked
                ~branch_outcomes:report.r_branches ~traps:report.r_traps ();
            failing = Gist.Client.failing report;
          })
  in
  [
    Test.make ~name:"table1/interpreter-run (one production run)"
      (Staged.stage (fun () -> Exec.Interp.run bug.program workload));
    Test.make ~name:"table1/static-slice (Algorithm 1)"
      (Staged.stage (fun () -> Slicing.Slicer.compute bug.program failure));
    Test.make ~name:"table1/instrumentation-plan (Fig 4 placement)"
      (Staged.stage (fun () -> Instrument.Place.compute bug.program tracked));
    Test.make ~name:"fig13/pt-decode (trace reconstruction)"
      (Staged.stage (fun () -> Hw.Pt.decode bug.program packets));
    Test.make ~name:"fig9/predictor-ranking (F-measure)"
      (Staged.stage (fun () -> Predict.Stats.rank observations));
    Test.make ~name:"fig11/monitored-client (one Gist-tracked run)"
      (Staged.stage (fun () ->
           Gist.Client.run_one ~plan
             ~wp_allowed:plan.Instrument.Plan.wp_targets
             ~preempt_prob:bug.preempt_prob bug.program workload));
    Test.make ~name:"fig13/rr-record (record/replay baseline)"
      (Staged.stage (fun () ->
           Baseline.Rr.record ~preempt_prob:bug.preempt_prob bug.program
             workload));
  ]

(* Per-stage ns/run estimates, one per micro-benchmark. *)
let micro_results () =
  let tests = Test.make_grouped ~name:"gist" (micro_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.map (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> x
        | _ -> nan
      in
      (name, ns))

let run_micro () =
  print_endline "Micro-benchmarks (Bechamel, monotonic clock):";
  List.iter
    (fun (name, ns) -> Printf.printf "  %-55s %12.0f ns/run\n" name ns)
    (micro_results ());
  print_newline ()

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Fuzzer throughput: labelled-bug generation alone, then a small
   campaign (generate, probe, diagnose, score) sequential vs
   parallel. *)

let run_fuzz () =
  let n_gen = 500 in
  let patterns = Array.of_list Fuzz.Gen.all_patterns in
  let (), gen_s =
    time_wall (fun () ->
        for i = 0 to n_gen - 1 do
          ignore
            (Fuzz.Gen.generate patterns.(i mod Array.length patterns) i)
        done)
  in
  let count = 54 in
  let r, seq_s =
    time_wall (fun () ->
        Fuzz.Runner.run ~jobs:0 ~shrink:false ~seed:7 ~count ())
  in
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let _, par_s =
    time_wall (fun () ->
        Fuzz.Runner.run ~jobs ~shrink:false ~seed:7 ~count ())
  in
  Printf.printf "fuzz: generation %.0f cases/s\n"
    (float_of_int n_gen /. gen_s);
  Printf.printf
    "fuzz: campaign of %d (accuracy %.3f): sequential %.3fs, parallel \
     (%d jobs) %.3fs, speedup %.2fx\n"
    count
    (Fuzz.Runner.overall_accuracy r)
    seq_s jobs par_s
    (if par_s > 0.0 then seq_s /. par_s else 0.0)

(* ------------------------------------------------------------------ *)
(* The soak gate.  Every service regime runs through one wave driver
   ([wave]) and one set of shared checks:

     - serve: 3 waves of 200 interleaved sessions through ONE
       long-running service; every session completes, the fairness
       bound holds, and a reports/s floor holds;
     - chaos: 3 waves of 200 sessions, a fresh service each, driven
       to completion under seeded kills, torn journal tails and
       corrupted checkpoints; refusals never exceed the damaged kills
       and at least one kill lands;
     - storm: 200 sessions at 80% duplicates into a triaging service;
       fresh bugs are diagnosed no later than without triage and
       within an in-flight window of the storm-free baseline, at
       least half the sessions coalesce, shedding under a tight queue
       is typed and counted, and a 3-wave soak exercises the
       recurrence lane without starving the fresh one.

   Shared checks: the ledger balances (submitted = completed +
   rejected + coalesced + shed), nothing is left in flight or queued,
   and live words grow by at most 1% from wave 2 to wave 3.  Two small
   phases follow for the gates no test suite holds: streaming ingest
   (a reports/s floor and flat live words) and fuzz accuracy with the
   early-exit rule on. *)

(* Soak configs are bounded so the gate stays fast: two AsT iterations
   of a 40-client fleet are plenty to exercise scheduling, admission
   and delivery; the differential suites (test_serve, test_recover)
   cover full diagnoses. *)
let soak_tweak (c : Gist.Config.t) =
  {
    c with
    Gist.Config.max_iterations = 2;
    max_clients_per_iter = 40;
    fail_quota = 2;
    succ_quota = 4;
  }

let resolver specs =
  let by_name = Hashtbl.create (List.length specs) in
  List.iter
    (fun (sp : Serve.Service.spec) ->
      Hashtbl.replace by_name sp.Serve.Service.sp_name sp)
    specs;
  fun name -> Hashtbl.find_opt by_name name

(* One wave: submit [specs] riding [Busy] backpressure -- a [Shed] is
   final for that submission, the client backs off -- then [drive] the
   service to idle and harvest.  Returns (completions, shed notices,
   wall seconds). *)
let wave ?(drive = Serve.Service.drain) svc specs =
  let t0 = Unix.gettimeofday () in
  let completions = ref [] and sheds = ref [] in
  let harvest () =
    completions := !completions @ Serve.Service.take_completions svc;
    sheds := !sheds @ Serve.Service.take_shed svc
  in
  List.iter
    (fun sp ->
      let rec push () =
        match Serve.Service.submit svc sp with
        | Ok _ | Error (Serve.Service.Shed _) -> ()
        | Error (Serve.Service.Busy _) ->
          ignore (Serve.Service.step svc);
          harvest ();
          push ()
      in
      push ())
    specs;
  drive svc;
  harvest ();
  (!completions, !sheds, Unix.gettimeofday () -. t0)

(* The ledger check.  [svc] is omitted only for a chaos wave, whose
   final incarnation stays inside [Serve.Chaos.drive]: there the
   balanced ledger is the whole witness. *)
let check_ledger label ?svc (st : Serve.Service.stats) =
  let inflight, queued =
    match svc with
    | Some svc -> (Serve.Service.inflight svc, Serve.Service.queued svc)
    | None -> (0, 0)
  in
  if
    st.st_submitted
    <> st.st_completed + st.st_rejected + st.st_coalesced + st.st_shed
    || inflight <> 0 || queued <> 0
  then
    failwith
      (Printf.sprintf
         "soak (%s): ledger does not balance: %d submitted, %d completed, %d \
          rejected, %d coalesced, %d shed, %d in flight, %d queued"
         label st.st_submitted st.st_completed st.st_rejected st.st_coalesced
         st.st_shed inflight queued)

(* Three waves, live words measured after each.  A leak -- a session
   retained past completion, an arena or table growing per session --
   shows up as growth from wave 2 to wave 3, once the offline caches
   have reached steady state.  The journal's compacted tail and the
   heap shape of fresh services jitter by a few hundred words; a real
   per-session leak is kilobytes times 200 sessions, so 1% slack loses
   no detection. *)
let three_waves label wave =
  let waves =
    List.map
      (fun i ->
        let r = wave i in
        Gc.compact ();
        (r, (Gc.stat ()).Gc.live_words))
      [ 1; 2; 3 ]
  in
  (match List.map snd waves with
   | [ _; w2; w3 ] when w3 > w2 + (w2 / 100) ->
     failwith
       (Printf.sprintf "soak (%s): live words grew across waves (%d -> %d)"
          label w2 w3)
   | _ -> ());
  waves

let ints l = String.concat " " (List.map string_of_int l)

(* The scheduler shape every regime starts from. *)
let soak_sconfig ~sessions =
  {
    Serve.Service.default with
    Serve.Service.max_inflight = 32;
    max_queue = sessions;
    round_budget = 128;
  }

let soak_serve pool =
  let sessions = 200 in
  let sconfig = soak_sconfig ~sessions in
  let svc = Serve.Service.create ~sconfig ~pool () in
  (* The same physical spec list every wave: the offline caches key
     programs by identity, so they reach steady state after wave 1. *)
  let specs = Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions () in
  let waves =
    three_waves "serve" (fun _ ->
        let completions, _, wall = wave svc specs in
        (List.length completions, wall))
  in
  let st = Serve.Service.stats svc in
  check_ledger "serve" ~svc st;
  if st.st_completed < 3 * sessions then
    failwith
      (Printf.sprintf "soak (serve): %d of %d sessions completed"
         st.st_completed (3 * sessions));
  (* Conservative floor: the soak dispatches tens of thousands of
     client runs; even a sequential host clears hundreds/s. *)
  let floor = 200.0 in
  let wall = List.fold_left (fun a ((_, w), _) -> a +. w) 0.0 waves in
  let reports_s = float_of_int st.st_slots /. wall in
  Printf.printf
    "soak serve: 3 waves of %d: completed %s; live words %s; %.0f reports/s \
     (floor %.0f), peak %d in flight, max wait %d round(s)\n%!"
    sessions
    (ints (List.map (fun ((d, _), _) -> d) waves))
    (ints (List.map snd waves))
    reports_s floor st.st_peak_inflight st.st_max_wait_rounds;
  if reports_s < floor then
    failwith
      (Printf.sprintf "soak (serve): %.0f reports/s below the %.0f floor"
         reports_s floor);
  if st.st_max_wait_rounds > sconfig.Serve.Service.max_inflight then
    failwith
      (Printf.sprintf "soak (serve): a session waited %d rounds (fairness \
                       bound %d)"
         st.st_max_wait_rounds sconfig.Serve.Service.max_inflight);
  (* Concurrency: one wave of 300 sessions through a fresh service
     with a 128-session window sustains at least 100 in flight. *)
  let sessions = 300 in
  let sconfig =
    {
      sconfig with
      Serve.Service.max_inflight = 128;
      max_queue = sessions;
      round_budget = 512;
    }
  in
  let svc = Serve.Service.create ~sconfig ~pool () in
  let _, _, wall =
    wave svc (Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions ())
  in
  let st = Serve.Service.stats svc in
  check_ledger "serve, 128 in flight" ~svc st;
  Printf.printf
    "soak serve: %d sessions, window 128: peak %d in flight, %.1fs\n%!"
    sessions st.st_peak_inflight wall;
  if st.st_peak_inflight < 100 then
    failwith
      (Printf.sprintf
         "soak (serve): peak in-flight %d, wanted >= 100 concurrent sessions"
         st.st_peak_inflight)

let chaos_rates =
  {
    Faults.Chaos.kill = 0.15;
    ckpt_corrupt = 0.25;
    torn_write = 0.25;
    poison = 0.0;
  }

let soak_chaos pool =
  let sessions = 200 in
  let sconfig =
    { (soak_sconfig ~sessions) with Serve.Service.checkpoint_every_rounds = 8 }
  in
  let specs = Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions () in
  let resolve = resolver specs in
  let waves =
    three_waves "chaos" (fun i ->
        let outcome = ref None in
        let drive svc =
          outcome :=
            Some
              (Serve.Chaos.drive ~pool ~rates:chaos_rates ~seed:(42 + i)
                 ~resolve ~specs svc)
        in
        ignore (wave ~drive (Serve.Service.create ~sconfig ~pool ()) specs);
        let oc = Option.get !outcome in
        if List.length oc.Serve.Chaos.o_done <> sessions then
          failwith
            (Printf.sprintf "soak (chaos): wave %d: %d of %d sessions completed"
               i
               (List.length oc.Serve.Chaos.o_done)
               sessions);
        (* A recovery refusal is legal only when the kill's damage ate
           every checkpoint; the campaign then continued on the live
           object and the completion count above already proves
           nothing was lost. *)
        let damaged = oc.Serve.Chaos.o_torn + oc.Serve.Chaos.o_corrupted in
        if oc.Serve.Chaos.o_failed_recoveries > damaged then
          failwith
            (Printf.sprintf
               "soak (chaos): wave %d: %d refusals exceed the %d damaged kills"
               i oc.Serve.Chaos.o_failed_recoveries damaged);
        check_ledger (Printf.sprintf "chaos wave %d" i) oc.Serve.Chaos.o_stats;
        (* Keep only counts: a wave's completions must be garbage by
           the time the next wave's live words are measured. *)
        Serve.Chaos.(oc.o_kills, oc.o_torn, oc.o_corrupted, oc.o_resubmitted))
  in
  List.iteri
    (fun i ((kills, torn, corrupted, resubmitted), words) ->
      Printf.printf
        "soak chaos: wave %d: %d sessions, %d kill(s) (%d torn, %d \
         corrupted), %d resubmitted, live words %d\n%!"
        (i + 1) sessions kills torn corrupted resubmitted words)
    waves;
  if List.for_all (fun ((kills, _, _, _), _) -> kills = 0) waves then
    failwith "soak (chaos): the campaign never killed the service"

(* Storm streams name duplicate re-reports "<bug>@<k>"; fresh traffic
   keeps its own name.  (Hot bugs' own first arrival is also "@"-named
   -- their fingerprint is new, but the bug is the storm's, not fresh
   traffic's, so it stays out of the fresh-latency metrics.) *)
let is_fresh_name name = not (String.contains name '@')

let storm_sconfig ~sessions ~triage =
  {
    (soak_sconfig ~sessions) with
    Serve.Service.triage;
    (* One round of grace after a diagnosis, then duplicates re-open
       the cluster as recurrences -- so multi-wave soaks exercise the
       recurrence lane, not just coalescing. *)
    recency_rounds = 1;
  }

(* Completion rounds of the fresh-named sessions: (first, last).
   Rounds, not wall seconds -- deterministic at any [jobs]. *)
let fresh_rounds completions =
  List.fold_left
    (fun (first, last) (c : Serve.Service.completion) ->
      if is_fresh_name c.Serve.Service.c_name then
        ( (if first = 0 then c.c_completed_round
           else min first c.c_completed_round),
          max last c.c_completed_round )
      else (first, last))
    (0, 0) completions

let soak_storm pool =
  let sessions = 200 and dup_ratio = 0.8 in
  let specs =
    Serve.Stream.storm ~tweak:soak_tweak ~seed:42 ~sessions ~dup_ratio ()
  in
  let fresh_specs =
    List.filter
      (fun (sp : Serve.Service.spec) -> is_fresh_name sp.sp_name)
      specs
  in
  let run label sconfig specs =
    let svc = Serve.Service.create ~sconfig ~pool () in
    let completions, sheds, _ = wave svc specs in
    let st = Serve.Service.stats svc in
    check_ledger label ~svc st;
    (completions, sheds, st)
  in
  let triaged = storm_sconfig ~sessions ~triage:true in
  (* The same storm, with and without the triage front-end, plus the
     storm-free baseline: just the fresh traffic. *)
  let c_on, _, st_on = run "triage" triaged specs in
  let c_off, _, st_off =
    run "no-triage" (storm_sconfig ~sessions ~triage:false) specs
  in
  let c_free, _, st_free = run "storm-free" triaged fresh_specs in
  let first_on, last_on = fresh_rounds c_on in
  let first_off, last_off = fresh_rounds c_off in
  let first_free, last_free = fresh_rounds c_free in
  let dedup =
    float_of_int st_on.st_coalesced /. float_of_int st_on.st_submitted
  in
  Printf.printf
    "soak storm: %d sessions at %.0f%% duplicates: triage %d diagnosed \
     (dedup %.2f), no-triage %d diagnosed; fresh rounds first/last: triage \
     %d/%d, no-triage %d/%d, storm-free %d/%d\n%!"
    sessions (100. *. dup_ratio) st_on.st_completed dedup st_off.st_completed
    first_on last_on first_off last_off first_free last_free;
  (* Triage never delays the fresh traffic relative to the same storm
     without it. *)
  if last_on > last_off || first_on > first_off then
    failwith
      (Printf.sprintf
         "soak (storm): triage delayed fresh diagnoses (first %d vs %d, last \
          %d vs %d)"
         first_on first_off last_on last_off);
  (* No regression against the storm-free baseline beyond one in-flight
     window of slack. *)
  let slack = triaged.Serve.Service.max_inflight in
  if last_on > last_free + slack then
    failwith
      (Printf.sprintf
         "soak (storm): storm pushed the last fresh diagnosis to round %d \
          (storm-free %d + slack %d)"
         last_on last_free slack);
  (* At 80% duplicates, at least half the offered sessions must
     coalesce (the rest are first arrivals and recurrences). *)
  if dedup < 0.5 then
    failwith (Printf.sprintf "soak (storm): dedup ratio %.2f below 0.5" dedup);
  let fresh_bound what waited =
    if waited > st_free.st_max_wait_rounds + slack then
      failwith
        (Printf.sprintf
           "soak (storm): %s fresh lane waited %d rounds (storm-free bound %d \
            + %d)"
           what waited st_free.st_max_wait_rounds slack)
  in
  fresh_bound "triage" st_on.st_fresh_wait_rounds;
  (* Shed regime: a tight waiting room under the same storm.
     Recurrences are refused or evicted typed and counted, fresh bugs
     never shed, and the ledger still balances. *)
  let shed_sc =
    {
      triaged with
      Serve.Service.max_inflight = 4;
      max_queue = 4;
      round_budget = 32;
    }
  in
  let _, shed_notices, st_shed = run "shed" shed_sc specs in
  Printf.printf
    "soak storm: tight queue (4/4): %d shed (%d evicted-queued notices), %d \
     coalesced, %d completed\n%!"
    st_shed.st_shed
    (List.length shed_notices)
    st_shed.st_coalesced st_shed.st_completed;
  (* Soak: 3 storm waves through ONE service.  Waves 2..3 re-offer
     every bug, so diagnosed clusters re-open as recurrences and the
     cluster table, lanes and journal must stay bounded. *)
  let svc = Serve.Service.create ~sconfig:triaged ~pool () in
  let waves =
    three_waves "storm" (fun _ ->
        let completions, _, _ = wave svc specs in
        List.length completions)
  in
  let st = Serve.Service.stats svc in
  check_ledger "storm soak" ~svc st;
  Printf.printf
    "soak storm: 3 waves of %d: diagnosed %s; live words %s; %d coalesced, \
     %d recurrence-admitted, fresh wait %d\n%!"
    sessions
    (ints (List.map fst waves))
    (ints (List.map snd waves))
    st.st_coalesced st.st_recur_admitted st.st_fresh_wait_rounds;
  if st.st_recur_admitted = 0 then
    failwith "soak (storm): the soak never exercised the recurrence lane";
  fresh_bound "soak" st.st_fresh_wait_rounds

(* Streaming ingest: 1k pre-encoded Pbzip2 envelopes per iteration (32
   distinct client runs cycled over the slots, so server-side work is
   what gets measured), each validated, decoded, folded into an [Acc]
   and dropped.  Gates an order-of-magnitude reports/s floor, not a
   tuning target, and that repeated iterations keep live words flat:
   the arenas and tables reach steady state after the first pass. *)
let soak_ingest () =
  let tracked = Slicing.Slicer.take (Lazy.force slice) 8 in
  let plan = Instrument.Place.compute bug.program tracked in
  let plan_id = Instrument.Plan.id plan in
  let n_instrs =
    1
    + List.fold_left
        (fun m (i : Ir.Types.instr) -> max m i.iid)
        0
        (Ir.Program.all_instrs bug.program)
  in
  let n_templates = 32 in
  let arena = Gist.Protocol.Encode.arena () in
  let blobs =
    Array.init n_templates (fun c ->
        Gist.Protocol.Encode.encode arena ~client:c ~plan_id
          (Gist.Client.run_one ~plan
             ~wp_allowed:plan.Instrument.Plan.wp_targets
             ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of c)))
  in
  let streaming_pass n =
    let acc = Predict.Stats.Acc.create () in
    for i = 0 to n - 1 do
      match
        Gist.Protocol.Encode.ingest ~n_instrs ~plan_id
          blobs.(i mod n_templates)
      with
      | Ok r ->
        Predict.Stats.Acc.add acc
          Predict.Stats.
            {
              predictors =
                Predict.Predictor.of_run ~tracked
                  ~branch_outcomes:r.r_branches ~traps:r.r_traps ();
              failing = Gist.Client.failing r;
            }
      | Error rej ->
        failwith
          ("soak (ingest): a template blob was rejected: "
           ^ Gist.Protocol.reject_to_string rej)
    done;
    acc
  in
  let n = 1_000 in
  let _, stream_s = time_wall (fun () -> streaming_pass n) in
  let stream_rps = float_of_int n /. stream_s in
  let steady () =
    ignore (Sys.opaque_identity (Predict.Stats.Acc.rank (streaming_pass n)));
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let w1 = steady () in
  let w2 = steady () in
  let w3 = steady () in
  Printf.printf
    "soak ingest: %.0f reports/s streaming; live words across 3 repeated \
     iterations: %d %d %d\n%!"
    stream_rps w1 w2 w3;
  let floor = 2_000.0 in
  if stream_rps < floor then
    failwith
      (Printf.sprintf
         "soak (ingest): streaming throughput %.0f reports/s is below the \
          %.0f floor"
         stream_rps floor);
  if w3 > w2 then
    failwith
      (Printf.sprintf
         "soak (ingest): live words grew across iterations (%d -> %d)" w2 w3)

(* Fuzz accuracy with the early-exit rule on: the rule must not trade
   accuracy for the budget it saves.  9 seed-42 cases: worst pattern
   1.000 on a reliable fleet, >= 0.95 at 10% aggregate faults. *)
let soak_early_exit_fuzz ~jobs =
  let count = 9 in
  let check label ?faults bar =
    let r =
      Fuzz.Runner.run ~jobs ~shrink:false ~early_exit:true ?faults ~seed:42
        ~count ()
    in
    let worst = Fuzz.Runner.min_pattern_accuracy r in
    Printf.printf
      "soak fuzz: %d cases with early exit%s: accuracy %.3f (worst pattern \
       %.3f, bar %.2f)\n%!"
      count label (Fuzz.Runner.overall_accuracy r) worst bar;
    if worst < bar then
      failwith
        (Printf.sprintf
           "soak (fuzz): early exit%s dropped worst-pattern accuracy to %.3f \
            (bar %.2f)"
           label worst bar)
  in
  check "" 1.0;
  check " at 10% faults" ~faults:(Faults.Fault.spread 0.10, 42) 0.95

let run_soak () =
  let jobs = max 2 (Parallel.Jobs.default ()) in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      soak_serve pool;
      soak_chaos pool;
      soak_storm pool);
  soak_ingest ();
  soak_early_exit_fuzz ~jobs

(* The @check gate (fast variant of the full report): Bugbase plus the
   25-case seed-42 fuzz campaign, early exit on, asserting the top-1
   predictor matches the exhaustive oracle everywhere and that the
   total dispatched-client count strictly decreased. *)
let run_adaptive_gate () =
  let t = Experiments.Adaptive.run () in
  (match
     List.filter
       (fun (r : Experiments.Adaptive.row) -> not r.r_top_identical)
       t.rows
   with
   | [] -> ()
   | l ->
     failwith
       (Printf.sprintf "adaptive gate: Bugbase top predictor diverged on %s"
          (String.concat ", "
             (List.map (fun (r : Experiments.Adaptive.row) -> r.r_bug) l))));
  if t.mean_ratio < 3.0 then
    failwith
      (Printf.sprintf
         "adaptive gate: mean per-bug dispatch ratio %.2f is below the 3x \
          target"
         t.mean_ratio);
  let fuzz_exh = ref 0 and fuzz_ad = ref 0 in
  let cases = Fuzz.Runner.cases ~seed:42 ~count:25 () in
  List.iteri
    (fun i case ->
      let oe = Fuzz.Check.check ~use_oracle:false case in
      let oa = Fuzz.Check.check ~early_exit:true ~use_oracle:false case in
      let disp (o : Fuzz.Check.outcome) =
        match o.fleet with
        | Some f -> f.Gist.Server.f_dispatched
        | None -> 0
      in
      fuzz_exh := !fuzz_exh + disp oe;
      fuzz_ad := !fuzz_ad + disp oa;
      if oe.Fuzz.Check.top <> oa.Fuzz.Check.top then
        failwith
          (Printf.sprintf
             "adaptive gate: fuzz case %d (%s): top diverged \
              (exhaustive %s, adaptive %s)"
             i case.Fuzz.Gen.c_name
             (Option.value ~default:"-" oe.Fuzz.Check.top)
             (Option.value ~default:"-" oa.Fuzz.Check.top)))
    cases;
  let total_exh = t.total_exh + !fuzz_exh in
  let total_ad = t.total_ad + !fuzz_ad in
  if total_ad >= total_exh then
    failwith
      (Printf.sprintf
         "adaptive gate: total dispatched did not decrease (%d -> %d)"
         total_exh total_ad);
  Printf.printf
    "PR7 adaptive gate: top-1 identical on %d bugs + %d fuzz cases; \
     dispatched %d -> %d (Bugbase %d -> %d, mean per-bug ratio %.2fx; fuzz \
     %d -> %d)\n%!"
    (List.length t.rows) (List.length cases) total_exh total_ad t.total_exh
    t.total_ad t.mean_ratio !fuzz_exh !fuzz_ad

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", Experiments.Table1.print);
    ("fig9", Experiments.Fig9.print);
    ("fig10", Experiments.Fig10.print);
    ("fig11", Experiments.Fig11.print);
    ("fig12", Experiments.Fig12.print);
    ("fig13", Experiments.Fig13.print);
    ("summary", Experiments.Summary.print);
    ("extensions", Experiments.Extensions.print);
    ("micro", run_micro);
    ("fuzz", run_fuzz);
    ("adaptive_gate", run_adaptive_gate);
    ("soak", run_soak);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] then List.map fst experiments else args in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        Printf.printf "=== %s ===\n%!" name;
        f ()
      | None ->
        Printf.eprintf "unknown experiment %s (known: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    selected
