(* The Gist command-line interface.

     gist list                      -- the Bugbase inventory (Table 1 bugs)
     gist diagnose <bug> [options]  -- run the full pipeline, print the sketch
     gist slice <bug>               -- print the static backward slice
     gist baseline <bug>            -- rr vs Intel PT full-tracing comparison
     gist experiments [names...]    -- regenerate paper tables/figures *)

open Cmdliner

let find_bug name =
  match Bugbase.Registry.find name with
  | Some b -> Ok b
  | None ->
    Error
      (Printf.sprintf "unknown bug %S (known: %s)" name
         (String.concat ", " Bugbase.Registry.names))

let bug_arg =
  let doc = "Bugbase entry to operate on (see $(b,gist list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BUG" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel client execution; 0 is fully sequential. \
     Results are bit-identical at any value. Clamped to the machine's \
     available core count. Defaults to $(b,GIST_JOBS) when set, else to \
     the machine's recommended domain count minus one."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs = function
  | Some n -> min (max 0 n) (Parallel.Jobs.available ())
  | None -> Parallel.Jobs.default ()

(* Exit codes: 1 = usage/other error, 2 = program under test failed,
   3 = no failing run found (nothing to diagnose). *)
let exit_no_failure = 3

(* ------------------------------------------------------------------ *)
(* Fault-injection knobs, shared by diagnose and fuzz.  [--faults]
   alone spreads a 10% aggregate rate uniformly over the taxonomy;
   [--fault-rate] picks the aggregate; per-kind flags override the
   spread for their kind. *)

let faults_flag =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:
          "Enable seeded fault injection against the simulated fleet \
           (default aggregate rate 0.10, spread uniformly over the seven \
           fault kinds).")

let fault_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Aggregate per-dispatch fault probability, spread uniformly over \
           the seven fault kinds; implies $(b,--faults).")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed of the fault-injection stream, independent of run seeds; \
           every injection decision is a pure function of (seed, client, \
           attempt), so campaigns replay bit-identically.")

let per_kind_term =
  List.fold_left
    (fun acc kind ->
      let name = "fault-" ^ Faults.Fault.kind_name kind in
      let arg =
        Arg.(
          value
          & opt (some float) None
          & info [ name ] ~docv:"P"
              ~doc:
                (Printf.sprintf
                   "Per-dispatch probability of a %s fault; implies \
                    $(b,--faults)."
                   (Faults.Fault.kind_name kind)))
      in
      Term.(const (fun l v -> (kind, v) :: l) $ acc $ arg))
    (Term.const []) Faults.Fault.all_kinds

let faults_term =
  Term.(
    const (fun enabled rate fseed per_kind ->
        let clamp r = min 1.0 (max 0.0 r) in
        let per_kind =
          List.filter_map
            (fun (k, v) -> Option.map (fun r -> (k, clamp r)) v)
            per_kind
        in
        if (not enabled) && rate = None && per_kind = [] then None
        else
          let base =
            match rate with
            | Some r -> Faults.Fault.spread (clamp r)
            | None ->
              if per_kind = [] then Faults.Fault.spread 0.10
              else Faults.Fault.zero
          in
          let rates =
            List.fold_left
              (fun acc (k, r) -> Faults.Fault.with_rate acc k r)
              base per_kind
          in
          Some (rates, fseed))
    $ faults_flag $ fault_rate_arg $ fault_seed_arg $ per_kind_term)

let print_fleet (f : Gist.Server.fleet_stats) =
  Printf.printf
    "fleet: %d dispatched, %d delivered, %d valid; %d lost, %d rejected, %d \
     retried, %d quarantined, %d degraded iteration(s)\n"
    f.f_dispatched f.f_delivered f.f_valid f.f_lost f.f_rejected f.f_retried
    f.f_quarantined f.f_degraded_iters;
  let line label l =
    if l <> [] then
      Printf.printf "  %s: %s\n" label
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l))
  in
  line "injected" f.f_by_kind;
  line "rejections" f.f_by_reason

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-13s %-14s %-8s %-9s %s\n" "Name" "Software" "Version"
      "Bug id" "Failure";
    List.iter
      (fun (b : Bugbase.Common.t) ->
        Printf.printf "%-13s %-14s %-8s %-9s %s\n" b.name b.software b.version
          b.bug_id b.failure_type)
      Bugbase.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the Bugbase entries (the Table 1 bugs)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let sigma0_arg =
  let doc = "Initial tracked slice size sigma_0 (paper default: 2)." in
  Arg.(value & opt int 2 & info [ "sigma0" ] ~doc)

let no_cf_arg =
  let doc = "Disable control-flow tracking (Intel PT) -- Fig. 10 ablation." in
  Arg.(value & flag & info [ "no-control-flow" ] ~doc)

let no_df_arg =
  let doc = "Disable data-flow tracking (watchpoints) -- Fig. 10 ablation." in
  Arg.(value & flag & info [ "no-data-flow" ] ~doc)

let verbose_arg =
  let doc = "Also print the static slice and per-iteration progress." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let retained_arg =
  let doc =
    "Ingest reports through the retained-trace reference path instead of the \
     streaming accumulator (differential oracle; identical output)."
  in
  Arg.(value & flag & info [ "retained-ingest" ] ~doc)

let json_arg =
  let doc = "Emit the sketch as JSON instead of the ASCII rendering." in
  Arg.(value & flag & info [ "json" ] ~doc)

let no_early_exit_arg =
  let doc =
    "Disable the adaptive stopping rule and run the exhaustive AsT loop \
     (the reference oracle; same top-ranked predictors, more clients)."
  in
  Arg.(value & flag & info [ "no-early-exit" ] ~doc)

let separation_delta_arg =
  let doc =
    "Error rate of the separation confidence bound, in (0,1) (default 0.05)."
  in
  Arg.(
    value
    & opt float Gist.Config.default.Gist.Config.separation_delta
    & info [ "separation-delta" ] ~doc)

let checkpoint_every_arg =
  let doc =
    "Evaluate the separation bound every N consumed client slots (default 8)."
  in
  Arg.(
    value
    & opt int Gist.Config.default.Gist.Config.checkpoint_every
    & info [ "checkpoint-every" ] ~doc)

let diagnose_run name sigma0 no_cf no_df verbose json jobs faults retained
    no_early_exit separation_delta checkpoint_every =
  match find_bug name with
  | Error e -> prerr_endline e; 1
  | Ok bug -> (
    match Bugbase.Common.find_target_failure bug with
    | None ->
      prerr_endline
        "no failing run found: the target failure did not manifest in any \
         probed production run; nothing to diagnose";
      exit_no_failure
    | Some (_, failure) ->
      Printf.printf "failure report: %s\n\n"
        (Exec.Failure.report_to_string failure);
      let config =
        {
          Gist.Config.default with
          Gist.Config.sigma0;
          enable_cf = not no_cf;
          enable_df = not no_df;
          preempt_prob = bug.preempt_prob;
          (* The CLI defaults to the adaptive stopping rule; the
             exhaustive reference stays behind [--no-early-exit]. *)
          early_exit = not no_early_exit;
          separation_delta;
          checkpoint_every;
        }
      in
      (match Gist.Config.validate config with
       | Ok _ -> ()
       | Error e ->
         prerr_endline ("invalid configuration: " ^ Gist.Config.error_to_string e);
         exit 2);
      let config =
        match faults with
        | None -> config
        | Some (rates, fault_seed) ->
          { config with Gist.Config.fault_rates = rates; fault_seed }
      in
      let d =
        Parallel.Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
            Gist.Server.diagnose ~config ~pool
              ~ingest:
                (if retained then Gist.Server.Retained else Gist.Server.Streaming)
              ~oracle:(Experiments.Oracle.for_bug bug)
              ~bug_name:(Printf.sprintf "%s bug #%s" bug.name bug.bug_id)
              ~failure_type:bug.failure_type ~program:bug.program
              ~workload_of:bug.workload_of ~failure ())
      in
      if verbose then begin
        Fmt.pr "%a@." Slicing.Slicer.pp d.slice;
        List.iter
          (fun (it : Gist.Server.iteration_info) ->
            (* The fleet-health suffix is empty on a healthy fleet, so
               zero-fault output is unchanged. *)
            let health =
              if
                it.it_lost + it.it_rejected + it.it_quarantined = 0
                && not it.it_degraded
              then ""
              else
                Printf.sprintf " lost=%d rejected=%d quarantined=%d%s"
                  it.it_lost it.it_rejected it.it_quarantined
                  (if it.it_degraded then " DEGRADED" else "")
            in
            let early =
              match it.it_early_exit with
              | None -> ""
              | Some e -> " early-exit=" ^ Gist.Server.early_exit_label e
            in
            Printf.printf
              "iteration: sigma=%d tracked=%d fails=%d succs=%d \
               overhead=%.2f%%%s%s\n"
              it.it_sigma it.it_tracked it.it_fails it.it_succs
              it.it_avg_overhead health early)
          d.trace;
        print_newline ()
      end;
      if json then print_endline (Fsketch.Export.to_json d.sketch)
      else begin
        Printf.printf
          "diagnosis: %d iterations, %d failure recurrences, %d monitored \
           runs, %.2f%% fleet overhead\n\n"
          d.iterations d.recurrences d.total_runs d.avg_overhead_pct;
        (let f = d.fleet in
         if
           faults <> None
           || f.Gist.Server.f_lost + f.Gist.Server.f_rejected
              + f.Gist.Server.f_quarantined + f.Gist.Server.f_degraded_iters
              > 0
         then begin
           print_fleet f;
           print_newline ()
         end);
        Fsketch.Render.print d.sketch;
        let acc =
          Fsketch.Accuracy.of_sketch d.sketch ~ideal:(Bugbase.Common.ideal bug)
        in
        Printf.printf
          "\naccuracy vs hand-built ideal sketch: relevance %.1f%%, ordering \
           %.1f%%, overall %.1f%%\n"
          acc.relevance acc.ordering acc.overall
      end;
      0)

let diagnose_cmd =
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Diagnose a Bugbase failure end-to-end and print its sketch")
    Term.(
      const diagnose_run $ bug_arg $ sigma0_arg $ no_cf_arg $ no_df_arg
      $ verbose_arg $ json_arg $ jobs_arg $ faults_term $ retained_arg
      $ no_early_exit_arg $ separation_delta_arg $ checkpoint_every_arg)

(* ------------------------------------------------------------------ *)

let slice_run name =
  match find_bug name with
  | Error e -> prerr_endline e; 1
  | Ok bug -> (
    match Bugbase.Common.find_target_failure bug with
    | None ->
      prerr_endline
        "no failing run found: the target failure did not manifest in any \
         probed production run; nothing to slice from";
      exit_no_failure
    | Some (_, failure) ->
      let slice = Slicing.Slicer.compute bug.program failure in
      Printf.printf "static backward slice: %d IR instructions / %d lines\n"
        (Slicing.Slicer.instr_count slice)
        (Slicing.Slicer.source_loc_count slice);
      Fmt.pr "%a@." Slicing.Slicer.pp slice;
      0)

let slice_cmd =
  Cmd.v
    (Cmd.info "slice" ~doc:"Print the static backward slice for a bug")
    Term.(const slice_run $ bug_arg)

(* ------------------------------------------------------------------ *)

let baseline_run name =
  match find_bug name with
  | Error e -> prerr_endline e; 1
  | Ok bug ->
    let row = Experiments.Fig13.row_for bug in
    Printf.printf "%s full-tracing overhead:\n" bug.name;
    Printf.printf "  record/replay (rr-style): %8.1f%%\n" row.rr_pct;
    Printf.printf "  Intel PT (hardware):      %8.2f%%\n" row.pt_pct;
    Printf.printf "  ratio:                    %8s\n"
      (if row.ratio = infinity then "inf"
       else Printf.sprintf "%.0fx" row.ratio);
    0

let baseline_cmd =
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Compare record/replay vs Intel PT full tracing on one bug")
    Term.(const baseline_run $ bug_arg)

(* ------------------------------------------------------------------ *)

(* Programs from .gir files: the textual IR format of [Ir.Text]. *)

let gir_arg =
  let doc = "Path to a .gir program (see Ir.Text for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let run_run path args seed =
  match Ir.Text.load path with
  | Error e -> prerr_endline e; 1
  | Ok program ->
    let values =
      List.map
        (fun a ->
          match int_of_string_opt a with
          | Some n -> Exec.Value.VInt n
          | None -> Exec.Value.VStr a)
        args
    in
    let res =
      Exec.Interp.run program (Exec.Interp.workload ~args:values seed)
    in
    List.iter print_endline res.output;
    (match res.outcome with
     | Exec.Interp.Success ->
       Printf.printf "success after %d steps
" res.steps;
       0
     | Exec.Interp.Failed rep ->
       Printf.printf "FAILURE after %d steps: %s
" res.steps
         (Exec.Failure.report_to_string rep);
       (match (Ir.Program.loc_of program rep.pc).line with
        | 0 -> ()
        | line -> Printf.printf "  at source line %d
" line);
       2)

let run_cmd =
  let args =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ARG"
           ~doc:"Arguments bound to main's parameters (ints or strings).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scheduling seed.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a .gir program under the interpreter")
    Term.(const run_run $ gir_arg $ args $ seed)

let show_run path =
  match Ir.Text.load path with
  | Error e -> prerr_endline e; 1
  | Ok program ->
    Fmt.pr "%a@." Ir.Pp.pp_program program;
    0

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Parse a .gir program and print its IR")
    Term.(const show_run $ gir_arg)

(* ------------------------------------------------------------------ *)

let experiments_run jobs names =
  Option.iter (fun n -> Parallel.Jobs.set_default (max 0 n)) jobs;
  let known =
    [
      ("table1", Experiments.Table1.print);
      ("fig9", Experiments.Fig9.print);
      ("fig10", Experiments.Fig10.print);
      ("fig11", Experiments.Fig11.print);
      ("fig12", Experiments.Fig12.print);
      ("fig13", Experiments.Fig13.print);
      ("summary", Experiments.Summary.print);
    ("extensions", Experiments.Extensions.print);
    ("adaptive", Experiments.Adaptive.print);
    ]
  in
  let selected = if names = [] then List.map fst known else names in
  List.fold_left
    (fun rc name ->
      match List.assoc_opt name known with
      | Some f -> f (); rc
      | None ->
        Printf.eprintf "unknown experiment %s\n" name;
        1)
    0 selected

let experiments_cmd =
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (all by default)")
    Term.(const experiments_run $ jobs_arg $ names)

(* ------------------------------------------------------------------ *)

(* gist fuzz: the self-checking bug-injection fuzzer (lib/fuzz).
   Generates programs with labelled root causes, diagnoses each
   end-to-end, scores the sketch against the label, shrinks failures. *)

let corpus_case_name i (case : Fuzz.Gen.case) =
  Printf.sprintf "%02d-%s" i case.Fuzz.Gen.c_name

let save_cases dir cases =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i case ->
      let file = Filename.concat dir (corpus_case_name i case ^ ".gir") in
      Fuzz.Corpus.save file case;
      Printf.printf "wrote %s (%d instrs)\n" file
        (Fuzz.Shrink.instr_count case))
    cases

let fuzz_replay path =
  let cases =
    if Sys.is_directory path then Fuzz.Corpus.load_dir path
    else Result.map (fun c -> [ c ]) (Fuzz.Corpus.load path)
  in
  match cases with
  | Error e -> prerr_endline e; 1
  | Ok cases ->
    let bad = ref 0 in
    List.iter
      (fun (case : Fuzz.Gen.case) ->
        let o = Fuzz.Check.check case in
        let v = o.Fuzz.Check.verdict in
        if v <> Fuzz.Check.Correct then incr bad;
        Printf.printf "%-28s %-8s %s\n" case.c_name
          (Fuzz.Gen.pattern_name case.c_pattern)
          (Fuzz.Check.verdict_to_string v))
      cases;
    Printf.printf "replayed %d corpus cases, %d failed\n" (List.length cases)
      !bad;
    if !bad = 0 then 0 else 1

(* Corpus generation: fuzz until [count] correctly diagnosed cases are
   in hand, shrink each while it *stays* correctly diagnosed, and save
   the minimal programs with their ground truth. *)
let fuzz_gen_corpus dir seed count jobs faults =
  let report = Fuzz.Runner.run ~jobs ~shrink:false ?faults ~seed ~count () in
  let correct =
    List.filter
      (fun (cr : Fuzz.Runner.case_report) ->
        cr.cr_verdict = Fuzz.Check.Correct)
      report.r_cases
  in
  let shrunk =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Parallel.Pool.map pool
          (fun (cr : Fuzz.Runner.case_report) ->
            let case = Fuzz.Gen.generate cr.cr_pattern cr.cr_seed in
            let case =
              match faults with
              | None -> case
              | Some _ -> { case with Fuzz.Gen.c_faults = faults }
            in
            (Fuzz.Shrink.run case Fuzz.Check.Correct).Fuzz.Shrink.shrunk)
          correct)
  in
  save_cases dir shrunk;
  Printf.printf "corpus: %d/%d cases diagnosed correctly and shrunk\n"
    (List.length shrunk) count;
  if List.length shrunk = count then 0 else 1

let print_service_stats (st : Serve.Service.stats) =
  Printf.printf
    "service: %d submitted, %d admitted, %d rejected, %d completed (%d \
     failed); %d rounds, %d fleet slots, peak %d in flight, max wait %d \
     round(s); %d checkpoint(s), %d divergence(s)\n"
    st.st_submitted st.st_admitted st.st_rejected st.st_completed st.st_failed
    st.st_rounds st.st_slots st.st_peak_inflight st.st_max_wait_rounds
    st.st_checkpoints st.st_divergences;
  if
    st.st_coalesced > 0 || st.st_shed > 0 || st.st_clusters > 0
    || st.st_evicted_clusters > 0 || st.st_recur_admitted > 0
  then
    Printf.printf
      "triage: %d coalesced, %d shed; %d fresh / %d recurrence admitted \
       (max lane wait %d/%d round(s)); %d cluster(s) live, %d evicted\n"
      st.st_coalesced st.st_shed st.st_fresh_admitted st.st_recur_admitted
      st.st_fresh_wait_rounds st.st_recur_wait_rounds st.st_clusters
      st.st_evicted_clusters

(* The fuzz accuracy gate through the multiplexed path: same cases,
   same scoring, every diagnosable case one session of a shared
   service (shrinking skipped).  With [--chaos] the service runs under
   seeded faults: kills between scheduler rounds, torn journal tails
   and corrupted checkpoints ahead of every recovery, poisoned
   sessions.  Two bars: worst-pattern accuracy over the unpoisoned
   cases (recovery must be byte-identical), and full containment of
   the poisoned ones (a poisoned session must come back as a typed
   failure, never crash the service or vanish). *)
let fuzz_serve seed count jobs json min_accuracy chaos faults =
  let rates =
    match chaos with
    | Some rate -> Faults.Chaos.spread rate
    | None -> Faults.Chaos.zero
  in
  let report, oc, cs =
    Serve.Gate.run_chaos ~jobs ?faults ~rates ~seed ~count ()
  in
  if json then print_string (Fuzz.Runner.to_json report)
  else begin
    Fmt.pr "%a" Fuzz.Runner.pp report;
    let st = Serve.Service.stats oc.o_service in
    print_service_stats st;
    if chaos <> None then
      Printf.printf
        "chaos: %d kill(s) (%d torn, %d corrupted), %d failed recoveries, %d \
         resubmitted; %d/%d poisoned session(s) contained; %d divergence(s)\n"
        oc.o_kills oc.o_torn oc.o_corrupted oc.o_failed_recoveries
        oc.o_resubmitted cs.cs_contained cs.cs_poisoned st.st_divergences
  end;
  if cs.cs_contained <> cs.cs_poisoned then begin
    prerr_endline "chaos: a poisoned session escaped containment";
    1
  end
  else if Fuzz.Runner.min_pattern_accuracy report >= min_accuracy then 0
  else 1

let fuzz_run seed count jobs json no_shrink min_accuracy save_failures
    gen_corpus replay serve chaos faults =
  let jobs = resolve_jobs jobs in
  match (replay, gen_corpus) with
  | Some path, _ -> fuzz_replay path
  | None, Some dir -> fuzz_gen_corpus dir seed count jobs faults
  | None, None when serve ->
    fuzz_serve seed count jobs json min_accuracy chaos faults
  | None, None ->
    let report =
      Fuzz.Runner.run ~jobs ~shrink:(not no_shrink) ?faults ~seed ~count ()
    in
    if json then print_string (Fuzz.Runner.to_json report)
    else Fmt.pr "%a" Fuzz.Runner.pp report;
    (match save_failures with
     | Some dir ->
       let shrunk =
         List.filter_map
           (fun (cr : Fuzz.Runner.case_report) ->
             Option.map
               (fun s -> s.Fuzz.Shrink.shrunk)
               cr.Fuzz.Runner.cr_shrink)
           (Fuzz.Runner.failures report)
       in
       if shrunk <> [] then save_cases dir shrunk
     | None -> ());
    if Fuzz.Runner.min_pattern_accuracy report >= min_accuracy then 0 else 1

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~doc:"Campaign seed; the whole report is a pure \
                                 function of (seed, count).")
  in
  let count =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"N"
             ~doc:"Cases to generate, round-robin over the 9 root-cause \
                   patterns.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the campaign report as JSON.")
  in
  let no_shrink =
    Arg.(value & flag
         & info [ "no-shrink" ] ~doc:"Skip minimizing failing cases.")
  in
  let min_accuracy =
    Arg.(value & opt float 0.9
         & info [ "min-accuracy" ] ~docv:"A"
             ~doc:"Exit non-zero when any pattern's root-cause accuracy \
                   falls below this bar.")
  in
  let save_failures =
    Arg.(value & opt (some string) None
         & info [ "save-failures" ] ~docv:"DIR"
             ~doc:"Save shrunk failing cases as corpus .gir files.")
  in
  let gen_corpus =
    Arg.(value & opt (some string) None
         & info [ "gen-corpus" ] ~docv:"DIR"
             ~doc:"Generate a seed corpus instead: fuzz $(b,--count) cases, \
                   shrink the correctly diagnosed ones while they stay \
                   correct, save them with their ground truth.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"PATH"
             ~doc:"Replay a corpus file or directory through the pipeline \
                   and re-check every verdict.")
  in
  let serve =
    Arg.(value & flag
         & info [ "serve" ]
             ~doc:"Run the campaign through the multiplexed diagnosis \
                   service instead of one-shot: every diagnosable case \
                   becomes one session of a shared service (shrinking \
                   skipped). Verdicts are bit-identical to the one-shot \
                   path.")
  in
  let chaos =
    Arg.(value & opt (some float) None
         & info [ "chaos" ] ~docv:"P"
             ~doc:"With $(b,--serve): inject seeded service faults — kill \
                   the service between rounds with per-round probability \
                   $(docv) (recovering it from its journal each time, \
                   sometimes through a torn tail or a corrupted \
                   checkpoint) and poison a fraction of sessions so their \
                   thunks raise. Checks recovery keeps verdicts \
                   byte-identical and poison stays contained.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate programs with injected, labelled root causes; diagnose \
          each end-to-end; score the sketches against the ground truth")
    Term.(
      const fuzz_run $ seed $ count $ jobs_arg $ json $ no_shrink
      $ min_accuracy $ save_failures $ gen_corpus $ replay $ serve $ chaos
      $ faults_term)

(* ------------------------------------------------------------------ *)

(* gist serve: replay a synthetic report stream — Bugbase bugs
   recycled under distinct session names plus fuzz-generated bugs —
   through the multiplexed diagnosis service, and print the scheduling
   ledger.  Exit 0 when every session completed and the ledger
   balances; 2 when the scheduler shape is refused or a service
   invariant broke (leaked or incomplete sessions); 3 when the stream
   is empty.

   The stream runs through [Serve.Chaos.drive].  Crash-only wiring:
   --journal persists the write-ahead journal, --kill-at-round K
   hands the driver one undamaged kill after round K (it recovers
   from the journal and carries on), --status prints a per-session
   snapshot after the first round, and SIGINT requests a graceful
   drain (stop admitting, finish what was accepted, flush the
   journal) instead of dying mid-round. *)

let print_status views =
  Printf.printf "%-6s %-28s %-5s %5s %5s %6s %6s %6s %7s %7s\n" "id" "session"
    "lane" "adm" "wait" "slots" "strk" "iter" "sigma" "valid";
  List.iter
    (fun (v : Serve.Service.session_view) ->
      let p = v.v_progress in
      Printf.printf "%-6d %-28s %-5s %5d %5d %6d %6d %6d %7d %7d\n" v.v_id
        v.v_name
        (Serve.Service.lane_label v.v_lane)
        v.v_admitted_round v.v_rounds_waiting v.v_slots v.v_strikes
        p.Gist.Server.Session.p_iteration p.p_sigma p.p_valid)
    views

let print_lanes (lv : Serve.Service.lane_view) =
  Printf.printf
    "lanes: fresh %d queued (credit %d, %d admitted) / recurrence %d queued \
     (credit %d, %d admitted)\n"
    lv.lv_fresh_queued lv.lv_fresh_credit lv.lv_fresh_admitted
    lv.lv_recur_queued lv.lv_recur_credit lv.lv_recur_admitted

let print_clusters views =
  if views <> [] then begin
    Printf.printf "%-18s %-28s %6s %6s %6s\n" "fingerprint" "cluster" "canon"
      "count" "done";
    List.iter
      (fun (v : Serve.Triage.view) ->
        Printf.printf "%-18s %-28s %6d %6d %6s\n"
          (Printf.sprintf "%016x" v.v_fp)
          v.v_name v.v_canonical v.v_count
          (if v.v_done_round < 0 then "-" else string_of_int v.v_done_round))
      views
  end

(* Per-cluster artifacts: the canonical diagnosis's sketch, and — when
   the bug came from the fuzzer — a shrunk standalone reproducer (.gir
   with its ground truth) that re-triggers the same cluster. *)
let emit_reproducers dir ~specs ~completions views =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (c : Serve.Service.completion) -> Hashtbl.replace by_id c.c_id c)
    completions;
  let emitted = ref 0 in
  List.iter
    (fun (v : Serve.Triage.view) ->
      let stem = Filename.concat dir (Printf.sprintf "%016x" v.v_fp) in
      (match Hashtbl.find_opt by_id v.v_canonical with
       | Some { Serve.Service.c_result = Ok d; _ } ->
         let oc = open_out (stem ^ ".sketch.txt") in
         output_string oc (Fsketch.Render.render d.Gist.Server.sketch);
         close_out oc;
         incr emitted
       | Some { Serve.Service.c_result = Error _; _ } | None -> ());
      match
        List.find_opt
          (fun (sp : Serve.Service.spec) -> sp.sp_name = v.Serve.Triage.v_name)
          specs
      with
      | Some { Serve.Service.sp_case = Some case; _ } ->
        let verdict =
          match Hashtbl.find_opt by_id v.v_canonical with
          | Some { Serve.Service.c_result = Ok d; _ } ->
            Fuzz.Check.verdict_of_sketch case d.Gist.Server.sketch
          | _ -> Fuzz.Check.Correct
        in
        let shrunk = (Fuzz.Shrink.run case verdict).Fuzz.Shrink.shrunk in
        Fuzz.Corpus.save (stem ^ ".gir") shrunk
      | Some _ | None -> ())
    views;
  Printf.printf "reproducers: %d sketch(es) and corpus case(s) under %s\n"
    !emitted dir

let serve_run sessions fuzz_count seed jobs inflight queue quantum budget
    checkpoint_every deadline strikes summary status journal_file kill_at
    triage max_clusters fresh_weight recur_weight recency storm dup_ratio
    reproducer_dir faults =
  let jobs = resolve_jobs jobs in
  let sconfig =
    {
      Serve.Service.max_inflight = inflight;
      max_queue = queue;
      quantum;
      round_budget = budget;
      checkpoint_every_rounds = checkpoint_every;
      session_deadline_rounds = deadline;
      max_session_strikes = strikes;
      triage;
      max_clusters;
      fresh_weight;
      recur_weight;
      recency_rounds = recency;
    }
  in
  match Serve.Service.validate sconfig with
  | Error e ->
    prerr_endline (Serve.Service.cerror_to_string e);
    2
  | Ok sconfig -> (
    let specs =
      if storm then
        Serve.Stream.storm ?faults ~fuzz_count ~seed ~sessions ~dup_ratio ()
      else Serve.Stream.mixed ?faults ~fuzz_count ~seed ~sessions ()
    in
    match specs with
    | [] -> exit_no_failure
    | specs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          (* SIGINT = graceful drain: already-accepted work finishes,
             the journal keeps every record, nothing is half-done.  The
             drain is a journaled input, so the handler only raises a
             flag and the per-round hook applies it between scheduler
             calls. *)
          let drain_requested = Atomic.make false in
          Sys.set_signal Sys.sigint
            (Sys.Signal_handle (fun _ -> Atomic.set drain_requested true));
          let on_round tick svc =
            if Atomic.get drain_requested then Serve.Service.request_drain svc;
            (* Admission happens at round start, so the first round's
               end is the first point the ring shows the fleet. *)
            if status && tick = 1 then begin
              print_status (Serve.Service.status svc);
              if Serve.Service.triage_enabled svc then begin
                print_lanes (Serve.Service.lanes svc);
                print_clusters (Serve.Service.clusters svc)
              end
            end
          in
          let kills tick =
            if Some tick = kill_at then
              { Faults.Chaos.no_plan with Faults.Chaos.p_kill = true }
            else Faults.Chaos.no_plan
          in
          let t0 = Unix.gettimeofday () in
          let oc =
            Serve.Chaos.drive ~pool ~kills ~on_round ~specs
              (Serve.Service.create ~sconfig ~pool ())
          in
          let wall = Unix.gettimeofday () -. t0 in
          let svc = oc.o_service in
          (match kill_at with
           | Some k when oc.o_failed_recoveries > 0 ->
             Printf.eprintf "kill at round %d: recovery refused\n" k
           | Some k when oc.o_kills > 0 ->
             Printf.printf "killed at round %d; recovered from the journal\n" k
           | Some _ | None -> ());
          (match journal_file with
           | Some path ->
             (* [drive] has harvested every completion, so this final
                checkpoint is written and the saved journal ends in it. *)
             ignore (Serve.Service.checkpoint svc : bool);
             Serve.Journal.save_file path (Serve.Service.journal_bytes svc)
           | None -> ());
          let last = List.map snd oc.o_done in
          if summary then
            List.iter
              (fun (c : Serve.Service.completion) ->
                match c.c_result with
                | Ok d ->
                  Printf.printf
                    "%-32s %2d iteration(s) %4d runs  rounds %d..%d\n"
                    c.c_name d.Gist.Server.iterations
                    d.Gist.Server.total_runs c.c_admitted_round
                    c.c_completed_round
                | Error f ->
                  Printf.printf "%-32s FAILED %s  rounds %d..%d\n" c.c_name
                    (Serve.Service.session_failure_to_string f)
                    c.c_admitted_round c.c_completed_round)
              last;
          let st = Serve.Service.stats svc in
          print_service_stats st;
          if Serve.Service.triage_enabled svc && status then begin
            print_lanes (Serve.Service.lanes svc);
            print_clusters (Serve.Service.clusters svc)
          end;
          List.iter
            (fun (sh : Serve.Service.shed_notice) ->
              Printf.printf
                "shed: ticket %d (%s) at round %d; retry after %d round(s)\n"
                sh.sh_id sh.sh_name sh.sh_round sh.sh_retry_after_rounds)
            oc.o_shed;
          Printf.printf "throughput: %.1f sessions/s (%d sessions in %.2fs)\n"
            (float_of_int st.st_completed /. wall)
            st.st_completed wall;
          (match reproducer_dir with
           | Some dir when Serve.Service.triage_enabled svc ->
             emit_reproducers dir ~specs ~completions:last
               (Serve.Service.clusters svc)
           | Some _ | None -> ());
          let ledger =
            match Serve.Service.ledger_error svc with
            | None when List.length last <> st.st_completed ->
              Some
                (Printf.sprintf
                   "ledger does not balance: %d completion(s) delivered, %d \
                    booked"
                   (List.length last) st.st_completed)
            | e -> e
          in
          match ledger with
          | Some e ->
            prerr_endline ("serve: session " ^ e);
            2
          | None -> 0))

let serve_cmd =
  let sessions =
    Arg.(value & opt int 100
         & info [ "sessions" ] ~docv:"N"
             ~doc:"Concurrent-diagnosis sessions to replay.")
  in
  let fuzz_count =
    Arg.(value & opt int 8
         & info [ "fuzz-count" ] ~docv:"K"
             ~doc:"Distinct fuzz-generated bugs mixed into the stream \
                   alongside the Bugbase.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~doc:"Stream seed; the whole replay is a pure \
                                 function of (seed, sessions).")
  in
  let inflight =
    Arg.(value & opt int Serve.Service.default.Serve.Service.max_inflight
         & info [ "inflight" ] ~docv:"N"
             ~doc:"Admission cap: concurrent sessions in flight.")
  in
  let queue =
    Arg.(value & opt int Serve.Service.default.Serve.Service.max_queue
         & info [ "queue" ] ~docv:"N"
             ~doc:"Waiting room: submissions queued for admission before \
                   the service answers with a typed busy reject.")
  in
  let quantum =
    Arg.(value & opt int Serve.Service.default.Serve.Service.quantum
         & info [ "quantum" ] ~docv:"N"
             ~doc:"Fleet slots granted per session per scheduler round.")
  in
  let budget =
    Arg.(value & opt int Serve.Service.default.Serve.Service.round_budget
         & info [ "round-budget" ] ~docv:"N"
             ~doc:"Total fleet slots run per scheduler round.")
  in
  let summary =
    Arg.(value & flag
         & info [ "summary" ]
             ~doc:"Print one line per completed session.")
  in
  let checkpoint_every =
    Arg.(value
         & opt int
             Serve.Service.default.Serve.Service.checkpoint_every_rounds
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Journal a full-state checkpoint every $(docv) scheduler \
                   rounds (0: only the initial checkpoint, plus a final \
                   one when $(b,--journal) saves the journal). \
                   Recovery replays at most $(docv) rounds.")
  in
  let deadline =
    Arg.(value
         & opt int Serve.Service.default.Serve.Service.session_deadline_rounds
         & info [ "deadline-rounds" ] ~docv:"N"
             ~doc:"Evict a session still undiagnosed $(docv) rounds after \
                   admission as a typed timed-out failure (0: no deadline).")
  in
  let strikes =
    Arg.(value
         & opt int Serve.Service.default.Serve.Service.max_session_strikes
         & info [ "max-strikes" ] ~docv:"N"
             ~doc:"Rounds with raising thunks a session survives before it \
                   is quarantined.")
  in
  let status =
    Arg.(value & flag
         & info [ "status" ]
             ~doc:"Print a live per-session snapshot (rounds waited, slots, \
                   strikes, iteration, sigma, valid reports) after the \
                   first scheduler round.")
  in
  let journal_file =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Persist the write-ahead journal to $(docv) at exit.")
  in
  let kill_at =
    Arg.(value & opt (some int) None
         & info [ "kill-at-round" ] ~docv:"K"
             ~doc:"Crash-recovery demo: kill the service once it reaches \
                   round $(docv), recover a fresh one from the journal, \
                   and finish the stream on it. The ledger must still \
                   balance.")
  in
  let triage =
    Arg.(value & flag
         & info [ "triage" ]
             ~doc:"Turn the duplicate-storm front-end on: fingerprint-keyed \
                   coalescing of duplicate reports, two-lane (fresh vs \
                   recurrence) deficit-round-robin admission, and typed \
                   recurrence shedding at the queue bound.")
  in
  let max_clusters =
    Arg.(value & opt int Serve.Service.default.Serve.Service.max_clusters
         & info [ "max-clusters" ] ~docv:"N"
             ~doc:"LRU bound on the fingerprint cluster table (only \
                   diagnosed clusters are evictable).")
  in
  let fresh_weight =
    Arg.(value & opt int Serve.Service.default.Serve.Service.fresh_weight
         & info [ "fresh-weight" ] ~docv:"W"
             ~doc:"Deficit-round-robin credit refill for the fresh \
                   (never-seen fingerprint) admission lane.")
  in
  let recur_weight =
    Arg.(value & opt int Serve.Service.default.Serve.Service.recur_weight
         & info [ "recur-weight" ] ~docv:"W"
             ~doc:"Deficit-round-robin credit refill for the recurrence \
                   (re-diagnosis) admission lane.")
  in
  let recency =
    Arg.(value & opt int Serve.Service.default.Serve.Service.recency_rounds
         & info [ "recency-rounds" ] ~docv:"N"
             ~doc:"A diagnosed cluster keeps coalescing duplicates for \
                   $(docv) rounds, then a duplicate re-opens it as a \
                   recurrence (0: coalesce for as long as it stays tabled).")
  in
  let storm =
    Arg.(value & flag
         & info [ "storm" ]
             ~doc:"Replay a duplicate-heavy storm stream instead of the \
                   uniform mix: a seeded hot set of bugs is re-reported \
                   over and over while the remaining bugs arrive once \
                   each as fresh traffic.")
  in
  let dup_ratio =
    Arg.(value & opt float 0.8
         & info [ "dup-ratio" ] ~docv:"R"
             ~doc:"With $(b,--storm): the fraction of sessions that are \
                   duplicates of the hot set.")
  in
  let reproducers =
    Arg.(value & opt (some string) None
         & info [ "emit-reproducers" ] ~docv:"DIR"
             ~doc:"With $(b,--triage): after the drain, write one \
                   artifact pair per cluster under $(docv) — the \
                   canonical diagnosis's sketch and, for fuzz-born bugs, \
                   a shrunk standalone .gir reproducer.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Replay a synthetic multi-bug report stream through the \
          persistent diagnosis service (admission control, fair \
          multiplexed scheduling, typed backpressure, duplicate triage, \
          durable checkpoints and crash recovery)")
    Term.(
      const serve_run $ sessions $ fuzz_count $ seed $ jobs_arg $ inflight
      $ queue $ quantum $ budget $ checkpoint_every $ deadline $ strikes
      $ summary $ status $ journal_file $ kill_at $ triage $ max_clusters
      $ fresh_weight $ recur_weight $ recency $ storm $ dup_ratio
      $ reproducers $ faults_term)

let () =
  let doc = "failure sketching for automated root cause diagnosis" in
  let info = Cmd.info "gist" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd; diagnose_cmd; slice_cmd; baseline_cmd; experiments_cmd;
            run_cmd; show_cmd; fuzz_cmd; serve_cmd;
          ]))
