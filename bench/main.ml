(* The benchmark harness.

   1. Regenerates every table and figure of the paper's evaluation
      (Table 1, Figs 9-13, and the §5.3 summary numbers), printing the
      same rows/series the paper reports.
   2. Registers one Bechamel micro-benchmark per pipeline stage /
      experiment so the cost of each component is measurable.

   Usage:
     bench/main.exe                 -- everything
     bench/main.exe table1 fig9 ... -- selected experiments
     bench/main.exe micro           -- only the Bechamel micro-benchmarks *)

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

(* Per-stage ns/run estimates as data, shared by the [micro] printer
   and the machine-readable [perf] report. *)
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

(* ------------------------------------------------------------------ *)
(* PR 2 performance report: sequential vs parallel end-to-end
   diagnosis, cold vs warm instrumentation placement (the analysis
   cache), and the per-stage micro numbers, emitted as BENCH_PR2.json
   with a [vs_pr1] block comparing against the committed
   BENCH_PR1.json baseline. *)

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_num f = if Float.is_finite f then f else 0.0

(* Every ["key": number] pair of a flat JSON report (the baseline
   BENCH_PR1.json), by a plain character scan -- no JSON dependency.
   Object-valued keys simply yield no number and are skipped. *)
let json_numbers path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> '"' do incr j done;
      let key = String.sub s (!i + 1) (!j - !i - 1) in
      let k = ref (!j + 1) in
      while !k < n && (s.[!k] = ' ' || s.[!k] = ':') do incr k done;
      let m = ref !k in
      while
        !m < n
        && (match s.[!m] with
            | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr m
      done;
      (if !m > !k then
         match float_of_string_opt (String.sub s !k (!m - !k)) with
         | Some v -> out := (key, v) :: !out
         | None -> ());
      i := max (!j + 1) !m
    end
    else incr i
  done;
  List.rev !out

(* Minimal structural JSON validator.  The bench reports are written
   by hand with [Printf]; a stray NaN ("nan" is not JSON), a missing
   comma or an unescaped string would otherwise ship silently.  Any
   bench JSON this executable writes is validated before it exits, so
   `dune build @check` fails on a malformed artifact. *)
let json_check path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    failwith (Printf.sprintf "%s: malformed JSON at byte %d: %s" path !pos msg)
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l
    else fail (Printf.sprintf "expected %s" w)
  in
  let str () =
    expect '"';
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with
       | '"' -> fin := true
       | '\\' ->
         incr pos;
         if !pos >= n then fail "unterminated escape"
       | c when Char.code c < 0x20 -> fail "raw control byte in string"
       | _ -> ());
      incr pos
    done
  in
  let number () =
    let st = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
          | _ -> false)
    do
      incr pos
    done;
    if
      !pos = st
      || float_of_string_opt (String.sub s st (!pos - st)) = None
    then fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let fin = ref false in
      while not !fin do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
          incr pos;
          fin := true
        | _ -> fail "expected ',' or '}' in object"
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
          incr pos;
          fin := true
        | _ -> fail "expected ',' or ']' in array"
      done
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing bytes after the top-level value"

let pr1_baseline () =
  let candidates =
    [
      "BENCH_PR1.json";
      "../BENCH_PR1.json";
      "../../BENCH_PR1.json";
      "../../../BENCH_PR1.json";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> json_numbers path
  | None -> []

let diagnose_all ?pool bugs =
  List.iter
    (fun b -> ignore (Experiments.Harness.diagnose_bug ?pool b))
    bugs

let placement_timings (bug : Bugbase.Common.t) ~reps =
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let tracked =
    Slicing.Slicer.take (Slicing.Slicer.compute bug.program failure) 8
  in
  let cold = ref 0.0 and warm = ref 0.0 in
  for _ = 1 to reps do
    Analysis.Cache.clear ();
    let _, c = time_wall (fun () -> Instrument.Place.compute bug.program tracked) in
    let _, w = time_wall (fun () -> Instrument.Place.compute bug.program tracked) in
    cold := !cold +. c;
    warm := !warm +. w
  done;
  (!cold /. float_of_int reps, !warm /. float_of_int reps)

let run_perf ?(smoke = false) () =
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let bugs =
    if smoke then
      List.filteri (fun i _ -> i < 2) Bugbase.Registry.all
    else Bugbase.Registry.all
  in
  let micro = if smoke then [] else micro_results () in
  (* Warm the analysis cache and allocator once, untimed, so the
     sequential and parallel passes see the same steady state. *)
  diagnose_all [ List.hd bugs ];
  let (), seq_s = time_wall (fun () -> diagnose_all bugs) in
  let (), par_s =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        time_wall (fun () -> diagnose_all ~pool bugs))
  in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  let reps = if smoke then 3 else 10 in
  let cold_s, warm_s = placement_timings Bugbase.Pbzip2.bug ~reps in
  let reduction =
    if cold_s > 0.0 then 100.0 *. (cold_s -. warm_s) /. cold_s else 0.0
  in
  Printf.printf
    "PR2 perf: %d bugs diagnosed, sequential %.3fs, parallel (%d domains \
     requested) %.3fs, speedup %.2fx\n"
    (List.length bugs) seq_s jobs par_s speedup;
  Printf.printf
    "PR2 perf: placement cold %.1fus, warm (cached analysis) %.1fus, \
     reduction %.1f%%\n"
    (1e6 *. cold_s) (1e6 *. warm_s) reduction;
  if not smoke then begin
    let pr1 = pr1_baseline () in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Printf.bprintf buf "  \"pr\": 2,\n";
    Printf.bprintf buf "  \"available_cores\": %d,\n"
      (Parallel.Jobs.available ());
    Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
    Buffer.add_string buf "  \"micro_ns_per_op\": {\n";
    List.iteri
      (fun i (name, ns) ->
        Printf.bprintf buf "    \"%s\": %.0f%s\n" (json_escape name)
          (json_num ns)
          (if i = List.length micro - 1 then "" else ","))
      micro;
    Buffer.add_string buf "  },\n";
    Printf.bprintf buf
      "  \"diagnosis\": {\"bugs\": %d, \"sequential_s\": %.4f, \
       \"parallel_s\": %.4f, \"speedup\": %.3f},\n"
      (List.length bugs) seq_s par_s speedup;
    Printf.bprintf buf
      "  \"placement\": {\"cold_us\": %.2f, \"warm_us\": %.2f, \
       \"cache_reduction_pct\": %.1f}%s\n"
      (1e6 *. cold_s) (1e6 *. warm_s) reduction
      (if pr1 = [] then "" else ",");
    (* Speedups vs the committed PR1 baseline: baseline / this-run, so
       > 1.0 means this PR is faster. *)
    if pr1 <> [] then begin
      Buffer.add_string buf "  \"vs_pr1\": {\n";
      Buffer.add_string buf "    \"micro_speedup\": {\n";
      let comparable =
        List.filter_map
          (fun (name, ns) ->
            match List.assoc_opt name pr1 with
            | Some base when base > 0.0 && ns > 0.0 ->
              Some (name, base /. ns)
            | _ -> None)
          micro
      in
      List.iteri
        (fun i (name, sp) ->
          Printf.bprintf buf "      \"%s\": %.3f%s\n" (json_escape name)
            (json_num sp)
            (if i = List.length comparable - 1 then "" else ","))
        comparable;
      Buffer.add_string buf "    },\n";
      let vs key now =
        match List.assoc_opt key pr1 with
        | Some base when base > 0.0 && now > 0.0 -> base /. now
        | _ -> 0.0
      in
      Printf.bprintf buf
        "    \"diagnosis_sequential_speedup\": %.3f,\n"
        (json_num (vs "sequential_s" seq_s));
      Printf.bprintf buf
        "    \"diagnosis_parallel_speedup\": %.3f\n"
        (json_num (vs "parallel_s" par_s));
      Buffer.add_string buf "  }\n"
    end;
    Buffer.add_string buf "}\n";
    let oc = open_out "BENCH_PR2.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    json_check "BENCH_PR2.json";
    Printf.printf "PR2 perf: wrote %s/BENCH_PR2.json\n%!" (Sys.getcwd ())
  end

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
(* PR 4 robustness report: the cost of the always-on report protocol
   (encode + check on every delivery) at fault rate 0 — the < 2%
   budget — and the fleet's behaviour under a seeded fault sweep,
   emitted as BENCH_PR4.json with a [vs_pr2] block against the
   committed BENCH_PR2.json baseline. *)

let pr2_baseline () =
  let candidates =
    [
      "BENCH_PR2.json";
      "../BENCH_PR2.json";
      "../../BENCH_PR2.json";
      "../../../BENCH_PR2.json";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> json_numbers path
  | None -> []

let run_faults ?(smoke = false) () =
  let bug = Bugbase.Pbzip2.bug in
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let tracked =
    Slicing.Slicer.take (Slicing.Slicer.compute bug.program failure) 8
  in
  let plan = Instrument.Place.compute bug.program tracked in
  let plan_id = Instrument.Plan.id plan in
  let n_instrs =
    1
    + List.fold_left
        (fun m (i : Ir.Types.instr) -> max m i.iid)
        0
        (Ir.Program.all_instrs bug.program)
  in
  let client () =
    Gist.Client.run_one ~plan ~wp_allowed:plan.Instrument.Plan.wp_targets
      ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of 0)
  in
  let report = client () in
  (* Protocol cost per delivery.  Two percentages with explicitly
     different denominators follow (an earlier report printed both
     under near-identical names):

     - [pct_of_one_client_run]: per-delivery protocol cost over the
       cost of the one monitored client run it wraps.  Diagnostic
       only — it says how heavy the envelope is relative to the work
       that produced it.
     - [validation_pct_of_diagnosis_wall]: aggregate validation cost
       over the wall time of a whole zero-fault diagnosis.  This is
       the number the < 2% budget gates: the budget governs what the
       always-on integrity checking adds to an end-to-end diagnosis.

     Since the binary wire era the delivery path is
     [Protocol.Encode.encode]/[ingest].  Validation proper is
     [Encode.check] — the allocation-free layer walk; serialising and
     materialising reports ([encode] + the decode inside [ingest])
     is transport and aggregation work any fleet protocol pays and is
     reported separately ([wire_total_pct_of_diagnosis_wall]). *)
  let reps = if smoke then 300 else 3000 in
  let (), run_s = time_wall (fun () ->
      for _ = 1 to reps / 10 do ignore (client ()) done)
  in
  let enc_arena = Gist.Protocol.Encode.arena () in
  let wire_bytes =
    Gist.Protocol.Encode.encode enc_arena ~client:1 ~plan_id report
  in
  let (), wire_s = time_wall (fun () ->
      for c = 1 to reps do
        let bytes =
          Gist.Protocol.Encode.encode enc_arena ~client:c ~plan_id report
        in
        ignore (Gist.Protocol.Encode.ingest ~n_instrs ~plan_id bytes)
      done)
  in
  let (), check_s = time_wall (fun () ->
      for _ = 1 to reps do
        ignore (Gist.Protocol.Encode.check ~n_instrs ~plan_id wire_bytes)
      done)
  in
  let run_ns = 1e9 *. run_s /. float_of_int (reps / 10) in
  let wire_ns = 1e9 *. wire_s /. float_of_int reps in
  let check_ns = 1e9 *. check_s /. float_of_int reps in
  let per_run_pct = 100.0 *. wire_ns /. run_ns in
  Printf.printf
    "PR4 faults: wire encode+ingest %.0f ns, validation alone \
     (Encode.check) %.0f ns, vs client run %.0f ns\n"
    wire_ns check_ns run_ns;
  Printf.printf
    "PR4 faults: per-delivery wire cost is %.3f%% of one monitored \
     client run (diagnostic only, not the budget-gated number)\n"
    per_run_pct;
  (* End-to-end fault sweep over the whole registry. *)
  let bugs =
    if smoke then List.filteri (fun i _ -> i < 2) Bugbase.Registry.all
    else Bugbase.Registry.all
  in
  let sweep_rates = [ 0.0; 0.05; 0.10 ] in
  let sweep =
    List.map
      (fun rate ->
        let stats = ref Gist.Server.{
            f_dispatched = 0; f_delivered = 0; f_valid = 0; f_lost = 0;
            f_rejected = 0; f_retried = 0; f_quarantined = 0;
            f_degraded_iters = 0; f_by_kind = []; f_by_reason = [] }
        in
        let online = ref 0.0 in
        let (), wall_s =
          time_wall (fun () ->
              List.iter
                (fun (b : Bugbase.Common.t) ->
                  let _, failure =
                    Option.get (Bugbase.Common.find_target_failure b)
                  in
                  let config =
                    {
                      Gist.Config.default with
                      preempt_prob = b.preempt_prob;
                      fault_rates = Faults.Fault.spread rate;
                      fault_seed = 42;
                    }
                  in
                  let d =
                    Gist.Server.diagnose ~config
                      ~oracle:(Experiments.Oracle.for_bug b)
                      ~bug_name:b.name ~failure_type:b.failure_type
                      ~program:b.program ~workload_of:b.workload_of ~failure
                      ()
                  in
                  let f = d.Gist.Server.fleet in
                  online := !online +. d.Gist.Server.online_time_s;
                  stats :=
                    Gist.Server.{
                      f_dispatched = !stats.f_dispatched + f.f_dispatched;
                      f_delivered = !stats.f_delivered + f.f_delivered;
                      f_valid = !stats.f_valid + f.f_valid;
                      f_lost = !stats.f_lost + f.f_lost;
                      f_rejected = !stats.f_rejected + f.f_rejected;
                      f_retried = !stats.f_retried + f.f_retried;
                      f_quarantined = !stats.f_quarantined + f.f_quarantined;
                      f_degraded_iters =
                        !stats.f_degraded_iters + f.f_degraded_iters;
                      f_by_kind = []; f_by_reason = [] })
                bugs)
        in
        let f = !stats in
        Printf.printf
          "PR4 faults: rate %4.0f%%: %d bugs in %.3fs (simulated online \
           %.1fs) -- %d dispatched, %d lost, %d rejected, %d retried, %d \
           quarantined, %d degraded iterations\n"
          (100.0 *. rate) (List.length bugs) wall_s !online
          f.Gist.Server.f_dispatched f.Gist.Server.f_lost
          f.Gist.Server.f_rejected f.Gist.Server.f_retried
          f.Gist.Server.f_quarantined f.Gist.Server.f_degraded_iters;
        (rate, wall_s, !online, f))
      sweep_rates
  in
  (* The budget number: the protocol's share of a whole zero-fault
     diagnosis — per-delivery validation cost times deliveries,
     over the measured wall time (a diagnosis also probes for the
     failure, slices, places instrumentation and ranks predictors, so
     this is far below the per-delivery ratio). *)
  let share_of_wall per_delivery_ns =
    match sweep with
    | (0.0, wall_s, _, f) :: _ when wall_s > 0.0 ->
      100.0
      *. (float_of_int f.Gist.Server.f_dispatched *. per_delivery_ns /. 1e9)
      /. wall_s
    | _ -> 0.0
  in
  let overhead_pct = share_of_wall check_ns in
  let wire_total_pct = share_of_wall wire_ns in
  Printf.printf
    "PR4 faults: budget-gated number: validation share of a zero-fault \
     end-to-end diagnosis is %.3f%% (budget 2%%); whole wire path \
     (serialise + validate + materialise) is %.3f%%\n"
    overhead_pct wire_total_pct;
  (* Campaign accuracy at the acceptance point: 10% aggregate. *)
  let count = if smoke then 9 else 27 in
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let campaign, campaign_s =
    time_wall (fun () ->
        Fuzz.Runner.run ~jobs ~shrink:false
          ~faults:(Faults.Fault.spread 0.10, 42)
          ~seed:42 ~count ())
  in
  Printf.printf
    "PR4 faults: campaign of %d at 10%% faults: accuracy %.3f \
     (worst pattern %.3f) in %.3fs\n"
    count
    (Fuzz.Runner.overall_accuracy campaign)
    (Fuzz.Runner.min_pattern_accuracy campaign)
    campaign_s;
  if not smoke then begin
    let pr2 = pr2_baseline () in
    let zero_wall =
      match sweep with (0.0, w, _, _) :: _ -> w | _ -> 0.0
    in
    let buf = Buffer.create 2048 in
    Buffer.add_string buf "{\n";
    Printf.bprintf buf "  \"pr\": 4,\n";
    Printf.bprintf buf "  \"available_cores\": %d,\n"
      (Parallel.Jobs.available ());
    Printf.bprintf buf
      "  \"protocol\": {\"wire_encode_ingest_ns\": %.0f, \
       \"wire_check_ns\": %.0f, \
       \"client_run_ns\": %.0f, \"pct_of_one_client_run\": %.4f, \
       \"validation_pct_of_diagnosis_wall\": %.4f, \
       \"wire_total_pct_of_diagnosis_wall\": %.4f, \"budget_gated\": \
       \"validation_pct_of_diagnosis_wall\", \"budget_pct\": 2.0},\n"
      (json_num wire_ns) (json_num check_ns)
      (json_num run_ns) (json_num per_run_pct) (json_num overhead_pct)
      (json_num wire_total_pct);
    Buffer.add_string buf "  \"sweep\": [\n";
    List.iteri
      (fun i (rate, wall_s, online, (f : Gist.Server.fleet_stats)) ->
        Printf.bprintf buf
          "    {\"aggregate_rate\": %.2f, \"bugs\": %d, \"wall_s\": %.4f, \
           \"online_s\": %.2f, \"dispatched\": %d, \"lost\": %d, \
           \"rejected\": %d, \"retried\": %d, \"quarantined\": %d, \
           \"degraded_iterations\": %d}%s\n"
          rate (List.length bugs) (json_num wall_s) (json_num online)
          f.f_dispatched f.f_lost f.f_rejected f.f_retried f.f_quarantined
          f.f_degraded_iters
          (if i = List.length sweep - 1 then "" else ","))
      sweep;
    Buffer.add_string buf "  ],\n";
    Printf.bprintf buf
      "  \"campaign\": {\"count\": %d, \"aggregate_rate\": 0.10, \
       \"accuracy\": %.4f, \"min_pattern_accuracy\": %.4f, \"wall_s\": \
       %.4f}%s\n"
      count
      (json_num (Fuzz.Runner.overall_accuracy campaign))
      (json_num (Fuzz.Runner.min_pattern_accuracy campaign))
      (json_num campaign_s)
      (if pr2 = [] then "" else ",");
    (* The zero-fault sweep repeats PR2's sequential diagnosis of the
       whole registry, now with every report sealed and validated:
       the ratio is the end-to-end price of the protocol. *)
    if pr2 <> [] then begin
      let vs key now =
        match List.assoc_opt key pr2 with
        | Some base when base > 0.0 && now > 0.0 -> now /. base
        | _ -> 0.0
      in
      Printf.bprintf buf
        "  \"vs_pr2\": {\"diagnosis_sequential_ratio\": %.3f}\n"
        (json_num (vs "sequential_s" zero_wall))
    end;
    Buffer.add_string buf "}\n";
    let oc = open_out "BENCH_PR4.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    json_check "BENCH_PR4.json";
    Printf.printf "PR4 faults: wrote %s/BENCH_PR4.json\n%!" (Sys.getcwd ())
  end

(* ------------------------------------------------------------------ *)
(* PR 6 ingestion report: wire-speed report ingestion.  A fleet of
   [n] simulated clients per AsT iteration ships pre-encoded binary
   wire envelopes (a handful of distinct client runs, encoded once and
   cycled over the slots, so server-side ingestion is what gets
   measured, not client simulation).  The server side runs in both
   ingest modes:

   - streaming: [Protocol.Encode.ingest], fold the report's
     predictors into [Predict.Stats.Acc], drop the report — live
     server state stays O(slice) whatever the fleet size;
   - retained: same ingest, but every decoded report is retained and
     observations are built and ranked in one batch at the end — the
     pre-streaming reference path, kept as the oracle.

   Emits BENCH_PR6.json: reports/second per mode, bytes/report, live
   words at growing fleet sizes (flat for streaming, O(fleet) for
   retained), and the multi-core scaling curve over requested [jobs]
   with the worker count [Pool.effective] actually grants — on a
   single-core host the curve is honestly flat.  The scaling pass
   folds per-chunk accumulators with [Acc.merge] in slot order and
   cross-checks every ranking against the sequential one, so it is
   also a determinism test. *)

let run_ingest ?(smoke = false) () =
  let bug = Bugbase.Pbzip2.bug in
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let tracked =
    Slicing.Slicer.take (Slicing.Slicer.compute bug.program failure) 8
  in
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
  let templates =
    Array.init n_templates (fun c ->
        Gist.Client.run_one ~plan ~wp_allowed:plan.Instrument.Plan.wp_targets
          ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of c))
  in
  let arena = Gist.Protocol.Encode.arena () in
  let blobs =
    Array.mapi
      (fun c r -> Gist.Protocol.Encode.encode arena ~client:c ~plan_id r)
      templates
  in
  let bytes_per_report =
    Array.fold_left (fun a b -> a + String.length b) 0 blobs / n_templates
  in
  let observe (r : Gist.Client.report) =
    Predict.Stats.
      {
        predictors =
          Predict.Predictor.of_run ~tracked ~branch_outcomes:r.r_branches
            ~traps:r.r_traps ();
        failing = Gist.Client.failing r;
      }
  in
  let ingest_slot i =
    match
      Gist.Protocol.Encode.ingest ~n_instrs ~plan_id
        blobs.(i mod n_templates)
    with
    | Ok r -> r
    | Error rej ->
      failwith
        ("ingest bench: a template blob was rejected: "
         ^ Gist.Protocol.reject_to_string rej)
  in
  (* One iteration's worth of server work, streaming mode: ingest,
     fold, drop. *)
  let streaming_pass n =
    let acc = Predict.Stats.Acc.create () in
    for i = 0 to n - 1 do
      Predict.Stats.Acc.add acc (observe (ingest_slot i))
    done;
    acc
  in
  (* Reference mode: ingest and retain every report (in slot order);
     the caller builds observations and ranks in one end batch. *)
  let retained_pass n =
    let reports = ref [] in
    for i = n - 1 downto 0 do
      reports := ingest_slot i :: !reports
    done;
    !reports
  in
  (* Per-delivery micro numbers. *)
  let reps = if smoke then 2_000 else 20_000 in
  let (), enc_s = time_wall (fun () ->
      for i = 0 to reps - 1 do
        ignore
          (Gist.Protocol.Encode.encode arena ~client:i ~plan_id
             templates.(i mod n_templates))
      done)
  in
  let (), ing_s = time_wall (fun () ->
      for i = 0 to reps - 1 do
        ignore (ingest_slot i)
      done)
  in
  let encode_ns = 1e9 *. enc_s /. float_of_int reps in
  let ingest_ns = 1e9 *. ing_s /. float_of_int reps in
  Printf.printf
    "PR6 ingest: %d bytes/report on the wire, encode %.0f ns, \
     ingest (validate+decode) %.0f ns\n"
    bytes_per_report encode_ns ingest_ns;
  (* Throughput at the headline fleet size. *)
  let n = if smoke then 1_000 else 100_000 in
  let acc, stream_s = time_wall (fun () -> streaming_pass n) in
  let stream_rank = Predict.Stats.Acc.rank acc in
  let retained_rank, retained_s =
    time_wall (fun () ->
        Predict.Stats.rank (List.map observe (retained_pass n)))
  in
  let stream_rps = float_of_int n /. stream_s in
  let retained_rps = float_of_int n /. retained_s in
  let speedup = retained_s /. stream_s in
  let identical = stream_rank = retained_rank in
  Printf.printf
    "PR6 ingest: %d clients/iteration: streaming %.0f reports/s, \
     retained %.0f reports/s, streaming %.2fx faster, rankings %s\n"
    n stream_rps retained_rps speedup
    (if identical then "identical" else "DIFFER");
  if not identical then
    failwith "ingest bench: streaming and retained rankings differ";
  (* Live heap while one iteration's server state is held, at growing
     fleet sizes.  Streaming holds an accumulator (O(slice)); retained
     holds every decoded report (O(fleet)). *)
  let live_while f =
    let keep = f () in
    Gc.full_major ();
    let words = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity keep);
    words
  in
  let sizes = if smoke then [ 250; 500; 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let memory =
    List.map
      (fun size ->
        let sw = live_while (fun () -> streaming_pass size) in
        let rw = live_while (fun () -> retained_pass size) in
        Printf.printf
          "PR6 ingest: %6d clients: live words streaming %d, retained %d\n"
          size sw rw;
        (size, sw, rw))
      sizes
  in
  (* Zero-growth gate: repeated streaming iterations must not grow the
     live heap (the arenas and tables reach steady state after the
     first pass). *)
  let steady () =
    let acc = streaming_pass 1_000 in
    ignore (Sys.opaque_identity (Predict.Stats.Acc.rank acc));
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let w1 = steady () in
  let w2 = steady () in
  let w3 = steady () in
  Printf.printf
    "PR6 ingest: live words across 3 repeated iterations: %d %d %d\n"
    w1 w2 w3;
  if w3 > w2 then
    failwith
      (Printf.sprintf
         "ingest bench: live words grew across iterations (%d -> %d)" w2 w3);
  (* Scaling curve: per-chunk accumulators on the pool, merged with
     Acc.merge in slot order.  Pool.effective grants 0 workers on a
     single-core host (inline execution), which the report records. *)
  let chunk = 1_024 in
  let n_chunks = (n + chunk - 1) / chunk in
  let chunks =
    Array.init n_chunks (fun k ->
        let start = k * chunk in
        (start, min chunk (n - start)))
  in
  let scale_pass pool =
    let accs =
      Parallel.Pool.map_array pool
        (fun (start, len) ->
          let acc = Predict.Stats.Acc.create () in
          for i = start to start + len - 1 do
            Predict.Stats.Acc.add acc (observe (ingest_slot i))
          done;
          acc)
        chunks
    in
    let total = Predict.Stats.Acc.create () in
    Array.iter (fun a -> Predict.Stats.Acc.merge ~into:total a) accs;
    total
  in
  let jobs_list = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let scaling =
    List.map
      (fun jobs ->
        let acc, s =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              time_wall (fun () -> scale_pass pool))
        in
        if Predict.Stats.Acc.rank acc <> stream_rank then
          failwith
            (Printf.sprintf
               "ingest bench: ranking at --jobs %d differs from sequential"
               jobs);
        let eff = Parallel.Pool.effective ~jobs in
        let rps = float_of_int n /. s in
        (* A host with too few cores clamps the grant ([effective] can
           drop to 0 = run inline): say so, per request, so a flat
           scaling curve reads as a host limit, not a scheduler bug. *)
        let clamped = eff < jobs in
        Printf.printf
          "PR6 ingest: jobs %d (Pool.effective %d%s): %.0f reports/s, \
           ranking identical to sequential\n"
          jobs eff
          (if clamped then ", clamped by host cores" else "")
          rps;
        (jobs, eff, rps))
      jobs_list
  in
  let any_clamped =
    List.exists (fun (jobs, eff, _) -> eff < jobs) scaling
  in
  if smoke then begin
    (* An order-of-magnitude tripwire, not a tuning gate: measured
       streaming throughput is ~16k reports/s on the 1-core reference
       host. *)
    let floor = 2_000.0 in
    if stream_rps < floor then
      failwith
        (Printf.sprintf
           "ingest bench: streaming throughput %.0f reports/s is below \
            the %.0f floor"
           stream_rps floor)
  end;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"pr\": 6,\n";
  Printf.bprintf buf "  \"available_cores\": %d,\n"
    (Parallel.Jobs.available ());
  Printf.bprintf buf "  \"smoke\": %b,\n" smoke;
  Printf.bprintf buf
    "  \"wire\": {\"templates\": %d, \"bytes_per_report\": %d, \
     \"encode_ns\": %.0f, \"ingest_ns\": %.0f},\n"
    n_templates bytes_per_report (json_num encode_ns) (json_num ingest_ns);
  Printf.bprintf buf
    "  \"ingest\": {\"clients_per_iteration\": %d, \
     \"streaming_reports_per_s\": %.0f, \"retained_reports_per_s\": \
     %.0f, \"streaming_speedup\": %.3f, \"rank_identical\": %b},\n"
    n (json_num stream_rps) (json_num retained_rps) (json_num speedup)
    identical;
  Buffer.add_string buf "  \"memory\": [\n";
  List.iteri
    (fun i (size, sw, rw) ->
      Printf.bprintf buf
        "    {\"clients\": %d, \"streaming_live_words\": %d, \
         \"retained_live_words\": %d}%s\n"
        size sw rw
        (if i = List.length memory - 1 then "" else ","))
    memory;
  Buffer.add_string buf "  ],\n";
  Printf.bprintf buf
    "  \"steady_state_live_words\": [%d, %d, %d],\n" w1 w2 w3;
  Buffer.add_string buf "  \"scaling\": [\n";
  List.iteri
    (fun i (jobs, eff, rps) ->
      Printf.bprintf buf
        "    {\"jobs_requested\": %d, \"workers_effective\": %d, \
         \"workers_clamped\": %b, \"reports_per_s\": %.0f, \
         \"rank_identical\": true}%s\n"
        jobs eff (eff < jobs) (json_num rps)
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  Buffer.add_string buf "  ],\n";
  Printf.bprintf buf
    "  \"scaling_note\": \"%s\"\n"
    (if any_clamped then
       "some requested job counts were clamped by host cores \
        (workers_effective < jobs_requested); throughput at those \
        points measures the host, not the scheduler"
     else "no job count was clamped by host cores");
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_PR6.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  json_check "BENCH_PR6.json";
  Printf.printf "PR6 ingest: wrote %s/BENCH_PR6.json\n%!" (Sys.getcwd ())

(* ------------------------------------------------------------------ *)
(* PR 7 adaptive early-exit report: the sequential stopping rule vs
   the exhaustive reference over the Bugbase under the production
   fleet regime ([Experiments.Adaptive.fleet_base]), both modes
   unattended (no developer oracle).  Emits BENCH_PR7.json and gates:

   - the top-ranked predictor is identical in both modes on every bug;
   - the Bugbase mean of per-bug dispatch ratios is >= 3x;
   - the adaptive diagnosis is bit-identical at --jobs 1 and 4;
   - fuzz worst-pattern accuracy with early exit on stays 1.000 at
     seed 42, and >= 0.95 under 10% aggregate injected faults. *)

(* Everything observable about one diagnosis, as a string: dispatch
   and iteration counts, per-iteration trace (including stopping-rule
   verdicts), and the full final ranking with counts.  Two runs are
   "bit-identical" when these agree. *)
let diagnosis_signature (d : Gist.Server.diagnosis) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "dispatched=%d iterations=%d recurrences=%d|"
    d.fleet.f_dispatched d.iterations d.recurrences;
  List.iter
    (fun (it : Gist.Server.iteration_info) ->
      Printf.bprintf buf "it(sigma=%d,clients=%d,fails=%d,succs=%d,%s)"
        it.it_sigma it.it_clients it.it_fails it.it_succs
        (match it.it_early_exit with
         | None -> "-"
         | Some e -> Gist.Server.early_exit_label e))
    d.trace;
  Buffer.add_char buf '|';
  List.iter
    (fun (r : Predict.Stats.ranked) ->
      Printf.bprintf buf "%s(f=%d,s=%d);"
        (Predict.Predictor.to_string r.predictor)
        r.n_failing_with r.n_success_with)
    d.sketch.Fsketch.Sketch.predictors;
  Buffer.contents buf

let adaptive_determinism () =
  let bug = Bugbase.Pbzip2.bug in
  let config =
    { Experiments.Adaptive.fleet_base with Gist.Config.early_exit = true }
  in
  let sig_at jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        match
          Experiments.Harness.diagnose_bug ~config ~pool ~with_oracle:false bug
        with
        | Some r -> diagnosis_signature r.diagnosis
        | None -> failwith "adaptive bench: Pbzip2 failure did not manifest")
  in
  let s1 = sig_at 1 and s4 = sig_at 4 in
  if s1 <> s4 then
    failwith
      (Printf.sprintf
         "adaptive bench: diagnosis differs between --jobs 1 and 4:\n%s\nvs\n%s"
         s1 s4);
  Printf.printf
    "PR7 adaptive: diagnosis bit-identical at --jobs 1 and 4 (%s)\n"
    bug.name

let run_adaptive ?(smoke = false) () =
  let bugs =
    if smoke then
      List.filter
        (fun (b : Bugbase.Common.t) ->
          List.mem b.name [ "Curl"; "Pbzip2"; "SQLite" ])
        Bugbase.Registry.all
    else Bugbase.Registry.all
  in
  let t, cmp_s =
    time_wall (fun () -> Experiments.Adaptive.run ~bugs ())
  in
  List.iter
    (fun (r : Experiments.Adaptive.row) ->
      Printf.printf
        "PR7 adaptive: %-14s exhaustive %5d -> adaptive %5d clients \
         (%.1fx)%s%s\n"
        r.r_bug r.r_exh_dispatched r.r_ad_dispatched
        (if r.r_ad_dispatched = 0 then 1.0
         else float_of_int r.r_exh_dispatched /. float_of_int r.r_ad_dispatched)
        (if r.r_converged then ", converged" else "")
        (if r.r_top_identical then "" else " TOP DIVERGED"))
    t.rows;
  Printf.printf
    "PR7 adaptive: totals %d -> %d (ratio %.2fx, mean per-bug ratio %.2fx) \
     in %.1fs\n"
    t.total_exh t.total_ad t.ratio t.mean_ratio cmp_s;
  (match List.filter (fun (r : Experiments.Adaptive.row) -> not r.r_top_identical) t.rows with
   | [] -> ()
   | l ->
     failwith
       (Printf.sprintf "adaptive bench: top predictor diverged on %s"
          (String.concat ", "
             (List.map (fun (r : Experiments.Adaptive.row) -> r.r_bug) l))));
  if t.total_ad >= t.total_exh then
    failwith
      (Printf.sprintf
         "adaptive bench: adaptive dispatched %d >= exhaustive %d"
         t.total_ad t.total_exh);
  if (not smoke) && t.mean_ratio < 3.0 then
    failwith
      (Printf.sprintf
         "adaptive bench: mean per-bug dispatch ratio %.2f is below the \
          3x target"
         t.mean_ratio);
  adaptive_determinism ();
  (* Fuzz accuracy with the stopping rule on: the ground-truth
     campaigns from the @check gates, re-run with early exit.  The
     rule must not trade accuracy for the saved budget. *)
  let count = if smoke then 9 else 27 in
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let campaign =
    Fuzz.Runner.run ~jobs ~shrink:false ~early_exit:true ~seed:42 ~count ()
  in
  let c_acc = Fuzz.Runner.overall_accuracy campaign in
  let c_min = Fuzz.Runner.min_pattern_accuracy campaign in
  Printf.printf
    "PR7 adaptive: fuzz campaign of %d with early exit: accuracy %.3f \
     (worst pattern %.3f)\n"
    count c_acc c_min;
  if c_min < 1.0 then
    failwith
      (Printf.sprintf
         "adaptive bench: early exit dropped fuzz worst-pattern accuracy \
          to %.3f (must stay 1.000)"
         c_min);
  let campaign_f =
    Fuzz.Runner.run ~jobs ~shrink:false ~early_exit:true
      ~faults:(Faults.Fault.spread 0.10, 42)
      ~seed:42 ~count ()
  in
  let f_acc = Fuzz.Runner.overall_accuracy campaign_f in
  let f_min = Fuzz.Runner.min_pattern_accuracy campaign_f in
  Printf.printf
    "PR7 adaptive: fuzz campaign of %d with early exit at 10%% faults: \
     accuracy %.3f (worst pattern %.3f)\n"
    count f_acc f_min;
  if f_min < 0.95 then
    failwith
      (Printf.sprintf
         "adaptive bench: early exit under 10%% faults dropped \
          worst-pattern accuracy to %.3f (floor 0.95)"
         f_min);
  if not smoke then begin
    let base = Experiments.Adaptive.fleet_base in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Printf.bprintf buf "  \"pr\": 7,\n";
    Printf.bprintf buf "  \"available_cores\": %d,\n"
      (Parallel.Jobs.available ());
    Printf.bprintf buf
      "  \"config\": {\"fail_quota\": %d, \"succ_quota\": %d, \
       \"max_clients_per_iter\": %d, \"wp_capacity\": %d, \
       \"separation_delta\": %.4f, \"checkpoint_every\": %d, \
       \"oracle\": \"none (unattended production, both modes)\"},\n"
      base.Gist.Config.fail_quota base.Gist.Config.succ_quota
      base.Gist.Config.max_clients_per_iter base.Gist.Config.wp_capacity
      base.Gist.Config.separation_delta base.Gist.Config.checkpoint_every;
    Buffer.add_string buf "  \"bugs\": [\n";
    List.iteri
      (fun i (r : Experiments.Adaptive.row) ->
        Printf.bprintf buf
          "    {\"bug\": \"%s\", \"exhaustive_dispatched\": %d, \
           \"exhaustive_online_s\": %.3f, \"exhaustive_iterations\": %d, \
           \"adaptive_dispatched\": %d, \"adaptive_online_s\": %.3f, \
           \"adaptive_iterations\": %d, \"early_exit_iterations\": %d, \
           \"converged\": %b, \"top_identical\": %b, \"top\": \"%s\"}%s\n"
          (json_escape r.r_bug) r.r_exh_dispatched
          (json_num r.r_exh_online_s) r.r_exh_iterations r.r_ad_dispatched
          (json_num r.r_ad_online_s) r.r_ad_iterations r.r_ad_early_iters
          r.r_converged r.r_top_identical
          (json_escape (Option.value ~default:"-" r.r_top))
          (if i = List.length t.rows - 1 then "" else ","))
      t.rows;
    Buffer.add_string buf "  ],\n";
    Printf.bprintf buf
      "  \"totals\": {\"exhaustive_dispatched\": %d, \
       \"adaptive_dispatched\": %d, \"ratio\": %.3f, \
       \"mean_per_bug_ratio\": %.3f, \"saved\": %d, \
       \"mean_ratio_target\": 3.0},\n"
      t.total_exh t.total_ad (json_num t.ratio) (json_num t.mean_ratio)
      t.saved;
    Buffer.add_string buf "  \"reallocation\": [\n";
    List.iteri
      (fun i (ra : Experiments.Adaptive.realloc) ->
        Printf.bprintf buf
          "    {\"bug\": \"%s\", \"extra_clients_per_iter\": %d, \
           \"dispatched\": %d, \"converged\": %b}%s\n"
          (json_escape ra.ra_bug) ra.ra_extra ra.ra_dispatched
          ra.ra_converged
          (if i = List.length t.reallocated - 1 then "" else ","))
      t.reallocated;
    Buffer.add_string buf "  ],\n";
    Printf.bprintf buf
      "  \"determinism\": {\"bug\": \"Pbzip2\", \"jobs\": [1, 4], \
       \"identical\": true},\n";
    Printf.bprintf buf
      "  \"fuzz\": {\"count\": %d, \"seed\": 42, \"early_exit\": true, \
       \"accuracy\": %.4f, \"min_pattern_accuracy\": %.4f},\n"
      count (json_num c_acc) (json_num c_min);
    Printf.bprintf buf
      "  \"fuzz_faults\": {\"count\": %d, \"seed\": 42, \"early_exit\": \
       true, \"aggregate_rate\": 0.10, \"accuracy\": %.4f, \
       \"min_pattern_accuracy\": %.4f}\n"
      count (json_num f_acc) (json_num f_min);
    Buffer.add_string buf "}\n";
    let oc = open_out "BENCH_PR7.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    json_check "BENCH_PR7.json";
    Printf.printf "PR7 adaptive: wrote %s/BENCH_PR7.json\n%!" (Sys.getcwd ())
  end

(* ------------------------------------------------------------------ *)
(* PR8: diagnosis as a service.  Replays a heavy synthetic report
   stream — every Bugbase bug recycled under distinct session names
   plus fuzz-generated bugs — through the multiplexed scheduler
   (lib/serve), and gates the service's soak behaviour:

     - zero session leaks: submitted = completed + rejected once the
       service drains, nothing left queued or in flight;
     - flat live heap across repeated waves through one service (the
       PR6 methodology: Gc.compact + live_words after each wave);
     - a reports/s floor (fleet slots dispatched per second);
     - in the full run, >= 100 sessions sustained concurrently.

   Emits BENCH_PR8.json: sessions/s, reports/s, p50/p99 per-bug
   time-to-diagnosis, and live-heap-vs-in-flight-cap points. *)

(* Soak configs are bounded so @check stays fast: two AsT iterations
   of a 40-client fleet are plenty to exercise scheduling, admission
   and delivery; the differential suite (test_serve) covers full
   diagnoses. *)
let soak_tweak (c : Gist.Config.t) =
  {
    c with
    Gist.Config.max_iterations = 2;
    max_clients_per_iter = 40;
    fail_quota = 2;
    succ_quota = 4;
  }

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

(* One wave: submit [specs] (riding Busy backpressure), drain, harvest.
   Returns (completions, wall seconds). *)
let serve_wave svc specs =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun sp ->
      let rec push () =
        match Serve.Service.submit svc sp with
        | Ok _ -> ()
        | Error (Serve.Service.Busy _ | Serve.Service.Shed _) ->
          ignore (Serve.Service.step svc);
          ignore (Sys.opaque_identity (Serve.Service.take_completions svc));
          push ()
      in
      push ())
    specs;
  Serve.Service.drain svc;
  let wall = Unix.gettimeofday () -. t0 in
  (Serve.Service.take_completions svc, wall)

let run_serve ?(smoke = false) () =
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let sessions = if smoke then 200 else 300 in
  let sconfig =
    {
      Serve.Service.default with
      Serve.Service.max_inflight = (if smoke then 32 else 128);
      max_queue = sessions;
      round_budget = (if smoke then 128 else 512);
    }
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      (* Soak: three waves through ONE long-running service.  Leaks —
         a session retained past completion, a completion never
         harvested, an arena growing per session — show up as live-heap
         growth from wave 2 to wave 3. *)
      let svc = Serve.Service.create ~sconfig ~pool () in
      (* The same stream each wave — the same physical spec list, since
         the offline caches key programs by identity: they reach steady
         state after wave 1, so any residual growth is a per-session
         leak, not cache warm-up. *)
      let soak_specs =
        Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions ()
      in
      let wave () =
        let completions, wall = serve_wave svc soak_specs in
        ignore (Sys.opaque_identity completions);
        let done_ = List.length completions in
        Gc.compact ();
        (done_, wall, (Gc.stat ()).Gc.live_words)
      in
      let d1, wall1, w1 = wave () in
      let d2, _, w2 = wave () in
      let d3, _, w3 = wave () in
      Printf.printf
        "PR8 serve: 3 waves of %d sessions: completed %d %d %d; live words \
         %d %d %d\n"
        sessions d1 d2 d3 w1 w2 w3;
      (* The service journals by default since PR9: the WAL is
         compacted to the last two checkpoints, so it is bounded, but
         its steady-state size jitters by a few words across waves
         (round-number varints widen, Buffer capacity doubles).  A
         real per-session leak is kilobytes times 200 sessions, so 1%
         slack loses no detection — this gate is what caught the
         uncompacted journal growing without bound. *)
      if w3 > w2 + (w2 / 100) then
        failwith
          (Printf.sprintf
             "serve bench: live words grew across waves (%d -> %d)" w2 w3);
      let st = Serve.Service.stats svc in
      let leaked =
        st.Serve.Service.st_submitted
        - st.Serve.Service.st_completed - st.Serve.Service.st_rejected
      in
      if
        leaked <> 0
        || Serve.Service.inflight svc <> 0
        || Serve.Service.queued svc <> 0
      then
        failwith
          (Printf.sprintf
             "serve bench: session leak: %d submitted, %d completed, %d \
              rejected, %d in flight, %d queued"
             st.st_submitted st.st_completed st.st_rejected
             (Serve.Service.inflight svc)
             (Serve.Service.queued svc));
      if st.st_completed < 3 * sessions then
        failwith
          (Printf.sprintf "serve bench: %d of %d sessions completed"
             st.st_completed (3 * sessions));
      let reports_s = float_of_int st.st_slots /. wall1 in
      (* Conservative floor: the soak dispatches tens of thousands of
         client runs; even a sequential host clears hundreds/s. *)
      let floor = 200.0 in
      Printf.printf
        "PR8 serve: wave 1: %.1f sessions/s, %.0f reports/s (floor %.0f), \
         peak %d in flight, max wait %d round(s)\n"
        (float_of_int d1 /. wall1)
        reports_s floor st.st_peak_inflight st.st_max_wait_rounds;
      if reports_s < floor then
        failwith
          (Printf.sprintf "serve bench: %.0f reports/s below the %.0f floor"
             reports_s floor);
      if st.st_max_wait_rounds > sconfig.Serve.Service.max_inflight then
        failwith
          (Printf.sprintf
             "serve bench: a session waited %d rounds (fairness bound %d)"
             st.st_max_wait_rounds sconfig.Serve.Service.max_inflight);
      (* Headline run for the report: one fresh wave, timed, with
         per-session time-to-diagnosis percentiles. *)
      let svc2 = Serve.Service.create ~sconfig ~pool () in
      let specs =
        Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions ()
      in
      let completions, wall = serve_wave svc2 specs in
      let st2 = Serve.Service.stats svc2 in
      if (not smoke) && st2.st_peak_inflight < 100 then
        failwith
          (Printf.sprintf
             "serve bench: peak in-flight %d, wanted >= 100 concurrent \
              sessions"
             st2.st_peak_inflight);
      let ttd =
        let a =
          Array.of_list
            (List.map
               (fun (c : Serve.Service.completion) -> c.Serve.Service.c_wall_s)
               completions)
        in
        Array.sort compare a;
        a
      in
      let p50 = percentile ttd 0.50 and p99 = percentile ttd 0.99 in
      let sessions_s = float_of_int (List.length completions) /. wall in
      let reports_s2 = float_of_int st2.st_slots /. wall in
      Printf.printf
        "PR8 serve: headline: %d sessions in %.2fs (%.1f sessions/s, %.0f \
         reports/s), time-to-diagnosis p50 %.3fs p99 %.3fs, peak %d in \
         flight\n"
        (List.length completions)
        wall sessions_s reports_s2 p50 p99 st2.st_peak_inflight;
      (* Live heap while a full complement of sessions is in flight,
         at growing in-flight caps: per-session state is O(slice), so
         the curve grows with the cap, not with the stream length. *)
      let inflight_caps = if smoke then [ 8; 16; 32 ] else [ 32; 64; 128 ] in
      let heap_points =
        List.map
          (fun cap ->
            let sc =
              { sconfig with Serve.Service.max_inflight = cap;
                             max_queue = sessions }
            in
            let svc = Serve.Service.create ~sconfig:sc ~pool () in
            List.iter
              (fun sp -> ignore (Serve.Service.submit svc sp))
              specs;
            (* Step until the ring is full, then measure mid-flight. *)
            let rec fill () =
              if
                Serve.Service.inflight svc < cap
                && Serve.Service.queued svc > 0
                && Serve.Service.step svc
              then fill ()
            in
            fill ();
            let inflight = Serve.Service.inflight svc in
            Gc.full_major ();
            let words = (Gc.stat ()).Gc.live_words in
            Serve.Service.drain svc;
            ignore (Sys.opaque_identity (Serve.Service.take_completions svc));
            Printf.printf
              "PR8 serve: cap %3d: %d sessions in flight, live words %d\n"
              cap inflight words;
            (cap, inflight, words))
          inflight_caps
      in
      if not smoke then begin
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "{\n";
        Printf.bprintf buf "  \"pr\": 8,\n";
        Printf.bprintf buf "  \"available_cores\": %d,\n"
          (Parallel.Jobs.available ());
        Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
        Printf.bprintf buf
          "  \"sconfig\": {\"max_inflight\": %d, \"max_queue\": %d, \
           \"quantum\": %d, \"round_budget\": %d},\n"
          sconfig.Serve.Service.max_inflight sconfig.Serve.Service.max_queue
          sconfig.Serve.Service.quantum sconfig.Serve.Service.round_budget;
        Printf.bprintf buf
          "  \"headline\": {\"sessions\": %d, \"wall_s\": %.3f, \
           \"sessions_per_s\": %.2f, \"reports_per_s\": %.1f, \
           \"ttd_p50_s\": %.4f, \"ttd_p99_s\": %.4f, \"peak_inflight\": %d, \
           \"rounds\": %d, \"fleet_slots\": %d, \"max_wait_rounds\": %d},\n"
          (List.length completions)
          (json_num wall) (json_num sessions_s) (json_num reports_s2)
          (json_num p50) (json_num p99) st2.st_peak_inflight st2.st_rounds
          st2.st_slots st2.st_max_wait_rounds;
        Printf.bprintf buf
          "  \"soak\": {\"waves\": 3, \"sessions_per_wave\": %d, \
           \"completed\": %d, \"rejected\": %d, \"leaked\": %d, \
           \"live_words\": [%d, %d, %d], \"reports_per_s_floor\": %.0f},\n"
          sessions st.st_completed st.st_rejected leaked w1 w2 w3 floor;
        Buffer.add_string buf "  \"heap_vs_inflight\": [\n";
        List.iteri
          (fun i (cap, inflight, words) ->
            Printf.bprintf buf
              "    {\"cap\": %d, \"inflight\": %d, \"live_words\": %d}%s\n"
              cap inflight words
              (if i = List.length heap_points - 1 then "" else ","))
          heap_points;
        Buffer.add_string buf "  ],\n";
        Printf.bprintf buf
          "  \"determinism\": {\"differential\": \"test_serve\", \
           \"bit_identical_to_one_shot\": true}\n";
        Buffer.add_string buf "}\n";
        let oc = open_out "BENCH_PR8.json" in
        output_string oc (Buffer.contents buf);
        close_out oc;
        json_check "BENCH_PR8.json";
        Printf.printf "PR8 serve: wrote %s/BENCH_PR8.json\n%!" (Sys.getcwd ())
      end)

(* ------------------------------------------------------------------ *)
(* PR9: crash-only diagnosis.  Measures what the durability machinery
   costs and what recovery buys:

     - journal + checkpoint overhead: the same session stream through
       one service with the journal on and off; the wall-clock delta
       must stay under 5%;
     - recovery cost: kill mid-stream at growing total history with a
       fixed checkpoint cadence; recovery wall must be sublinear in
       the sessions already diagnosed (it restores the newest
       checkpoint and replays at most one cadence of rounds, so the
       curve should be near-flat);
     - a cadence sweep (recovery wall vs checkpoint_every_rounds) to
       show recovery is O(rounds since last checkpoint);
     - kill-and-recover soak: 3 chaos waves of the full stream with
       seeded kills, torn tails and corrupted checkpoints — every
       session still completes, ledgers balance, live heap stays flat.

   Emits BENCH_PR9.json. *)

(* The kill-and-recover chaos soak: 3 waves of [sessions] interleaved
   sessions, each wave a fresh service driven to completion under
   seeded kills, torn journal tails and corrupted checkpoints.  Gates:
   every session completes, refusals bounded by damaged kills, the
   final incarnation's ledger balances, at least one kill landed, and
   the live heap stays flat across waves.  Shared by the full recover
   bench and the standalone @check gate. *)
let chaos_rates =
  {
    Faults.Chaos.kill = 0.15;
    ckpt_corrupt = 0.25;
    torn_write = 0.25;
    poison = 0.0;
  }

let chaos_soak ~pool ~sconfig ~specs ~resolve ~sessions () =
  let rates = chaos_rates in
  let wave i =
    let svc = Serve.Service.create ~sconfig ~pool () in
    List.iter
      (fun sp ->
        let rec push () =
          match Serve.Service.submit svc sp with
          | Ok _ -> ()
          | Error (Serve.Service.Busy _ | Serve.Service.Shed _) ->
            ignore (Serve.Service.step svc);
            push ()
        in
        push ())
      specs;
    let oc =
      Serve.Chaos.drive ~pool ~rates ~seed:(42 + i) ~resolve ~specs svc
    in
    if List.length oc.Serve.Chaos.o_done <> sessions then
      failwith
        (Printf.sprintf
           "recover bench: wave %d: %d of %d sessions completed" i
           (List.length oc.Serve.Chaos.o_done)
           sessions);
    (* A recovery refusal is legal only when the kill's damage ate
       every checkpoint; the campaign then continued on the live
       object and the completion count above already proves nothing
       was lost. *)
    if
      oc.Serve.Chaos.o_failed_recoveries
      > oc.Serve.Chaos.o_torn + oc.Serve.Chaos.o_corrupted
    then
      failwith
        (Printf.sprintf
           "recover bench: wave %d: %d refusals exceed the %d damaged kills"
           i oc.Serve.Chaos.o_failed_recoveries
           (oc.Serve.Chaos.o_torn + oc.Serve.Chaos.o_corrupted));
    let st = oc.Serve.Chaos.o_stats in
    (* The final incarnation's ledger still balances: everything it
       was asked to do it either completed or refused. *)
    if
      st.Serve.Service.st_submitted
      <> st.Serve.Service.st_completed + st.Serve.Service.st_rejected
    then
      failwith
        (Printf.sprintf
           "recover bench: wave %d ledger: %d submitted <> %d completed + \
            %d rejected"
           i st.Serve.Service.st_submitted st.Serve.Service.st_completed
           st.Serve.Service.st_rejected);
    ignore (Sys.opaque_identity oc);
    Gc.compact ();
    let words = (Gc.stat ()).Gc.live_words in
    Printf.printf
      "PR9 recover: wave %d: %d sessions, %d kill(s) (%d torn, %d \
       corrupted), %d resubmitted, live words %d\n%!"
      i sessions oc.Serve.Chaos.o_kills oc.Serve.Chaos.o_torn
      oc.Serve.Chaos.o_corrupted oc.Serve.Chaos.o_resubmitted words;
    (oc.Serve.Chaos.o_kills, oc.Serve.Chaos.o_torn,
     oc.Serve.Chaos.o_corrupted, oc.Serve.Chaos.o_resubmitted, words)
  in
  let waves = List.map wave [ 1; 2; 3 ] in
  let kills = List.fold_left (fun a (k, _, _, _, _) -> a + k) 0 waves in
  if kills = 0 then
    failwith "recover bench: the chaos soak never killed the service";
  (* Unlike the PR8 soak (one service reused across waves, so the end
     state is identical and the gate is strict), every chaos wave here
     builds a fresh service and draws different kills — the final heap
     shape jitters by a few hundred words.  A real session leak is
     megabytes, so 1% slack loses no detection. *)
  (match List.rev_map (fun (_, _, _, _, w) -> w) waves with
   | w3 :: w2 :: _ when w3 > w2 + (w2 / 100) ->
     failwith
       (Printf.sprintf
          "recover bench: live words grew across chaos waves (%d -> %d)" w2
          w3)
   | _ -> ());
  waves

(* The standalone @check gate: the full-scale chaos soak alone, no
   timing phases. *)
let run_recover_soak () =
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let sessions = 200 in
  let sconfig =
    {
      Serve.Service.default with
      Serve.Service.max_inflight = 32;
      max_queue = sessions;
      round_budget = 128;
      checkpoint_every_rounds = 8;
    }
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let specs =
        Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions ()
      in
      let resolve =
        let by_name = Hashtbl.create sessions in
        List.iter
          (fun (sp : Serve.Service.spec) ->
            Hashtbl.replace by_name sp.Serve.Service.sp_name sp)
          specs;
        fun name -> Hashtbl.find_opt by_name name
      in
      ignore (chaos_soak ~pool ~sconfig ~specs ~resolve ~sessions ()))

let run_recover ?(smoke = false) () =
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let sessions = if smoke then 60 else 200 in
  let sconfig =
    {
      Serve.Service.default with
      Serve.Service.max_inflight = 32;
      max_queue = sessions;
      round_budget = 128;
      checkpoint_every_rounds = 8;
    }
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let specs =
        Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions ()
      in
      let resolve =
        let by_name = Hashtbl.create sessions in
        List.iter
          (fun (sp : Serve.Service.spec) ->
            Hashtbl.replace by_name sp.Serve.Service.sp_name sp)
          specs;
        fun name -> Hashtbl.find_opt by_name name
      in
      (* --- journal + checkpoint overhead ------------------------- *)
      let wave_with ~journal specs =
        let svc = Serve.Service.create ~sconfig ~journal ~pool () in
        let completions, wall = serve_wave svc specs in
        ignore (Sys.opaque_identity completions);
        (wall, String.length (Serve.Service.journal_bytes svc))
      in
      (* Warm the offline caches before timing anything.  Interleave
         the timed samples (base, journaled, base, ...) so machine
         drift lands on both sides, and keep the min of each: noise is
         additive, so min-of-N converges on the true cost. *)
      ignore (wave_with ~journal:false specs);
      let base = ref infinity and journaled = ref infinity in
      for _ = 1 to 3 do
        base := min !base (fst (wave_with ~journal:false specs));
        journaled := min !journaled (fst (wave_with ~journal:true specs))
      done;
      let base_s = !base and journaled_s = !journaled in
      let journal_len = snd (wave_with ~journal:true specs) in
      let overhead = (journaled_s -. base_s) /. base_s in
      Printf.printf
        "PR9 recover: %d sessions: %.2fs bare, %.2fs journaled (%+.1f%% \
         overhead, %d journal bytes)\n"
        sessions base_s journaled_s (100.0 *. overhead) journal_len;
      if (not smoke) && overhead > 0.05 then
        failwith
          (Printf.sprintf
             "recover bench: journal+checkpoint overhead %.1f%% above the \
              5%% bar"
             (100.0 *. overhead));
      (* --- recovery wall vs total history ------------------------ *)
      (* Run the stream until [frac] of the sessions have completed,
         harvesting every round (checkpoints only land on harvested
         states), then take the journal bytes as the crash image. *)
      let kill_image n =
        let specs =
          Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions:n ()
        in
        let sc = { sconfig with Serve.Service.max_queue = n } in
        let svc = Serve.Service.create ~sconfig:sc ~pool () in
        List.iter
          (fun sp ->
            let rec push () =
              match Serve.Service.submit svc sp with
              | Ok _ -> ()
              | Error (Serve.Service.Busy _ | Serve.Service.Shed _) ->
                ignore (Serve.Service.step svc);
                ignore
                  (Sys.opaque_identity (Serve.Service.take_completions svc));
                push ()
            in
            push ())
          specs;
        let target = 2 * n / 3 in
        let harvested = ref [] in
        let rec run () =
          harvested := Serve.Service.take_completions svc @ !harvested;
          if
            (Serve.Service.stats svc).Serve.Service.st_completed < target
            && Serve.Service.step svc
          then run ()
        in
        run ();
        (specs, Serve.Service.journal_bytes svc, !harvested)
      in
      let recover_point n =
        let specs, bytes, harvested = kill_image n in
        let resolve =
          let by_name = Hashtbl.create n in
          List.iter
            (fun (sp : Serve.Service.spec) ->
              Hashtbl.replace by_name sp.Serve.Service.sp_name sp)
            specs;
          fun name -> Hashtbl.find_opt by_name name
        in
        let recovered, wall =
          time_wall (fun () -> Serve.Service.recover ~pool ~resolve bytes)
        in
        match recovered with
        | Error e ->
          failwith
            (Printf.sprintf "recover bench: recover refused at %d: %s" n
               (Serve.Service.rerror_to_string e))
        | Ok svc ->
          Serve.Service.drain svc;
          let names = Hashtbl.create n in
          List.iter
            (fun (c : Serve.Service.completion) ->
              Hashtbl.replace names c.Serve.Service.c_name ())
            (harvested @ Serve.Service.take_completions svc);
          if Hashtbl.length names <> n then
            failwith
              (Printf.sprintf
                 "recover bench: %d of %d sessions completed across the kill"
                 (Hashtbl.length names) n);
          let st = Serve.Service.stats svc in
          if st.Serve.Service.st_divergences <> 0 then
            failwith
              (Printf.sprintf "recover bench: %d replay divergences at %d"
                 st.Serve.Service.st_divergences n);
          Printf.printf
            "PR9 recover: history %3d sessions: recovery %.4fs (every \
             session accounted for)\n%!"
            n wall;
          (n, wall)
      in
      let history_sizes =
        if smoke then [ 20; 40; 60 ] else [ 50; 100; 200 ]
      in
      let history_curve = List.map recover_point history_sizes in
      (match (history_curve, List.rev history_curve) with
       | (n0, w0) :: _, (n1, w1) :: _ when n0 <> n1 ->
         (* Sublinear: growing the diagnosed history by Kx must not
            grow recovery by Kx — checkpoints bound the replayed tail.
            Floors keep the ratio meaningful on a fast host. *)
         let ratio = max w1 0.001 /. max w0 0.001 in
         let size_ratio = float_of_int n1 /. float_of_int n0 in
         Printf.printf
           "PR9 recover: recovery wall grew %.2fx over a %.1fx history\n"
           ratio size_ratio;
         if (not smoke) && ratio >= size_ratio then
           failwith
             (Printf.sprintf
                "recover bench: recovery wall grew %.2fx over a %.1fx \
                 history (not sublinear)"
                ratio size_ratio)
       | _ -> ());
      (* --- recovery wall vs checkpoint cadence ------------------- *)
      let cadence_curve =
        List.map
          (fun every ->
            let n = if smoke then 30 else 80 in
            let specs =
              Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions:n ()
            in
            let resolve =
              let by_name = Hashtbl.create n in
              List.iter
                (fun (sp : Serve.Service.spec) ->
                  Hashtbl.replace by_name sp.Serve.Service.sp_name sp)
                specs;
              fun name -> Hashtbl.find_opt by_name name
            in
            let sc =
              { sconfig with
                Serve.Service.max_queue = n;
                checkpoint_every_rounds = every }
            in
            let svc = Serve.Service.create ~sconfig:sc ~pool () in
            List.iter (fun sp -> ignore (Serve.Service.submit svc sp)) specs;
            let target = 2 * n / 3 in
            let rec run () =
              ignore
                (Sys.opaque_identity (Serve.Service.take_completions svc));
              if
                (Serve.Service.stats svc).Serve.Service.st_completed < target
                && Serve.Service.step svc
              then run ()
            in
            run ();
            let bytes = Serve.Service.journal_bytes svc in
            let recovered, wall =
              time_wall (fun () ->
                  Serve.Service.recover ~pool ~resolve bytes)
            in
            (match recovered with
             | Ok svc -> Serve.Service.drain svc
             | Error e ->
               failwith
                 (Printf.sprintf
                    "recover bench: recover refused at cadence %d: %s" every
                    (Serve.Service.rerror_to_string e)));
            Printf.printf
              "PR9 recover: cadence %2d rounds: recovery %.4fs\n%!" every
              wall;
            (every, wall))
          (if smoke then [ 4; 16 ] else [ 2; 8; 32 ])
      in
      (* --- kill-and-recover soak --------------------------------- *)
      let waves = chaos_soak ~pool ~sconfig ~specs ~resolve ~sessions () in
      if not smoke then begin
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "{\n";
        Printf.bprintf buf "  \"pr\": 9,\n";
        Printf.bprintf buf "  \"available_cores\": %d,\n"
          (Parallel.Jobs.available ());
        Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
        Printf.bprintf buf
          "  \"sconfig\": {\"max_inflight\": %d, \"max_queue\": %d, \
           \"quantum\": %d, \"round_budget\": %d, \
           \"checkpoint_every_rounds\": %d},\n"
          sconfig.Serve.Service.max_inflight sconfig.Serve.Service.max_queue
          sconfig.Serve.Service.quantum sconfig.Serve.Service.round_budget
          sconfig.Serve.Service.checkpoint_every_rounds;
        Printf.bprintf buf
          "  \"overhead\": {\"sessions\": %d, \"bare_s\": %.3f, \
           \"journaled_s\": %.3f, \"overhead_frac\": %.4f, \
           \"journal_bytes\": %d, \"bar\": 0.05},\n"
          sessions (json_num base_s) (json_num journaled_s)
          (json_num overhead) journal_len;
        Buffer.add_string buf "  \"recovery_vs_history\": [\n";
        List.iteri
          (fun i (n, w) ->
            Printf.bprintf buf
              "    {\"sessions\": %d, \"recovery_s\": %.4f}%s\n" n
              (json_num w)
              (if i = List.length history_curve - 1 then "" else ","))
          history_curve;
        Buffer.add_string buf "  ],\n";
        Buffer.add_string buf "  \"recovery_vs_cadence\": [\n";
        List.iteri
          (fun i (every, w) ->
            Printf.bprintf buf
              "    {\"checkpoint_every_rounds\": %d, \"recovery_s\": \
               %.4f}%s\n"
              every (json_num w)
              (if i = List.length cadence_curve - 1 then "" else ","))
          cadence_curve;
        Buffer.add_string buf "  ],\n";
        Printf.bprintf buf
          "  \"soak\": {\"waves\": %d, \"sessions_per_wave\": %d, \
           \"rates\": {\"kill\": %.2f, \"ckpt_corrupt\": %.2f, \
           \"torn_write\": %.2f}, \"waves_detail\": [\n"
          (List.length waves) sessions chaos_rates.Faults.Chaos.kill
          chaos_rates.Faults.Chaos.ckpt_corrupt
          chaos_rates.Faults.Chaos.torn_write;
        List.iteri
          (fun i (k, t, c, r, w) ->
            Printf.bprintf buf
              "    {\"kills\": %d, \"torn\": %d, \"corrupted\": %d, \
               \"resubmitted\": %d, \"live_words\": %d}%s\n"
              k t c r w
              (if i = List.length waves - 1 then "" else ","))
          waves;
        Buffer.add_string buf "  ]}\n";
        Buffer.add_string buf "}\n";
        let oc = open_out "BENCH_PR9.json" in
        output_string oc (Buffer.contents buf);
        close_out oc;
        json_check "BENCH_PR9.json";
        Printf.printf "PR9 recover: wrote %s/BENCH_PR9.json\n%!"
          (Sys.getcwd ())
      end)

(* ------------------------------------------------------------------ *)
(* PR10: storm-proof triage.  Benches the duplicate-storm front-end
   (fingerprint coalescing, two admission lanes, recurrence shedding)
   and gates its point: under a duplicate-heavy stream,

     - fresh bugs are diagnosed no later than they would be on a
       service without triage fed the same storm (rounds-based, so
       the gate is deterministic at any core count);
     - fresh-bug latency does not regress against the storm-free
       baseline (the same fresh traffic with no storm around it);
     - duplicates actually coalesce (a dedup-ratio floor at 80%
       duplicates) and shedding under a tight queue is typed, counted
       and ledger-balanced — never silent;
     - the triage tables are bounded: flat live heap across repeated
       storm waves through one service, and no fresh-lane starvation
       (the st_fresh_wait_rounds witness stays within the storm-free
       bound plus the in-flight cap).

   Emits BENCH_PR10.json: sessions/s, time-to-first/last-new-diagnosis
   with and without triage, dedup ratio, shed counts, soak heap. *)

(* Storm streams name duplicate re-reports "<bug>@<k>"; fresh traffic
   keeps its own name.  (Hot bugs' own first arrival is also "@"-named
   — their fingerprint is new, but the bug is the storm's, not fresh
   traffic's, so it stays out of the fresh-latency metrics.) *)
let is_fresh_name name = not (String.contains name '@')

let storm_sconfig ~sessions ~triage =
  {
    Serve.Service.default with
    Serve.Service.max_inflight = 32;
    max_queue = sessions;
    round_budget = 128;
    triage;
    (* One round of grace after a diagnosis, then duplicates re-open
       the cluster as recurrences — so multi-wave soaks exercise the
       recurrence lane, not just coalescing. *)
    recency_rounds = 1;
  }

(* One wave: submit [specs] riding [Busy] backpressure; a [Shed] is
   final for that submission (load shedding means the client backs
   off).  Returns (completions, shed notices, wall seconds). *)
let storm_wave svc specs =
  let t0 = Unix.gettimeofday () in
  let completions = ref [] in
  let sheds = ref [] in
  let harvest () =
    completions := !completions @ Serve.Service.take_completions svc;
    sheds := !sheds @ Serve.Service.take_shed svc
  in
  List.iter
    (fun sp ->
      let rec push () =
        match Serve.Service.submit svc sp with
        | Ok _ -> ()
        | Error (Serve.Service.Shed _) -> ()
        | Error (Serve.Service.Busy _) ->
          ignore (Serve.Service.step svc);
          harvest ();
          push ()
      in
      push ())
    specs;
  Serve.Service.drain svc;
  harvest ();
  (!completions, !sheds, Unix.gettimeofday () -. t0)

(* Completion rounds of the fresh-named sessions: (first, last).
   Rounds, not wall seconds — deterministic at any [jobs]. *)
let fresh_rounds completions =
  List.fold_left
    (fun (first, last) (c : Serve.Service.completion) ->
      if is_fresh_name c.Serve.Service.c_name then
        ( (if first = 0 then c.c_completed_round
           else min first c.c_completed_round),
          max last c.c_completed_round )
      else (first, last))
    (0, 0) completions

let storm_ledger_check label svc (st : Serve.Service.stats) =
  if
    st.st_submitted
    <> st.st_completed + st.st_rejected + st.st_coalesced + st.st_shed
    || Serve.Service.inflight svc <> 0
    || Serve.Service.queued svc <> 0
  then
    failwith
      (Printf.sprintf
         "storm bench (%s): ledger does not balance: %d submitted, %d \
          completed, %d rejected, %d coalesced, %d shed, %d in flight, %d \
          queued"
         label st.st_submitted st.st_completed st.st_rejected st.st_coalesced
         st.st_shed
         (Serve.Service.inflight svc)
         (Serve.Service.queued svc))

let run_storm ?(sessions = 200) ?(json = true) () =
  let jobs = max 2 (Parallel.Jobs.default ()) in
  let dup_ratio = 0.8 in
  let specs =
    Serve.Stream.storm ~tweak:soak_tweak ~seed:42 ~sessions ~dup_ratio ()
  in
  let fresh_specs =
    List.filter
      (fun (sp : Serve.Service.spec) -> is_fresh_name sp.sp_name)
      specs
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let one label ~triage specs =
        let sconfig = storm_sconfig ~sessions ~triage in
        let svc = Serve.Service.create ~sconfig ~pool () in
        let completions, sheds, wall = storm_wave svc specs in
        let st = Serve.Service.stats svc in
        storm_ledger_check label svc st;
        (completions, sheds, wall, st)
      in
      (* The same storm, with and without the triage front-end, plus
         the storm-free baseline: just the fresh traffic. *)
      let c_on, _, wall_on, st_on = one "triage" ~triage:true specs in
      let c_off, _, wall_off, st_off = one "no-triage" ~triage:false specs in
      let c_free, _, _, st_free = one "storm-free" ~triage:true fresh_specs in
      let first_on, last_on = fresh_rounds c_on in
      let first_off, last_off = fresh_rounds c_off in
      let first_free, last_free = fresh_rounds c_free in
      let dedup = float_of_int st_on.st_coalesced /. float_of_int st_on.st_submitted in
      Printf.printf
        "PR10 storm: %d sessions at %.0f%% duplicates: triage %d diagnosed \
         (%.1f sessions/s offered, dedup %.2f), no-triage %d diagnosed \
         (%.1f/s)\n"
        sessions (100. *. dup_ratio) st_on.st_completed
        (float_of_int sessions /. wall_on)
        dedup st_off.st_completed
        (float_of_int sessions /. wall_off);
      Printf.printf
        "PR10 storm: fresh diagnosis rounds first/last: triage %d/%d, \
         no-triage %d/%d, storm-free %d/%d\n"
        first_on last_on first_off last_off first_free last_free;
      (* Gate 1: triage never delays the fresh traffic relative to the
         same storm without it. *)
      if last_on > last_off || first_on > first_off then
        failwith
          (Printf.sprintf
             "storm bench: triage delayed fresh diagnoses (first %d vs %d, \
              last %d vs %d)"
             first_on first_off last_on last_off);
      (* Gate 2: no regression against the storm-free baseline beyond
         one in-flight window of slack. *)
      let slack = (storm_sconfig ~sessions ~triage:true).Serve.Service.max_inflight in
      if last_on > last_free + slack then
        failwith
          (Printf.sprintf
             "storm bench: storm pushed the last fresh diagnosis to round \
              %d (storm-free %d + slack %d)"
             last_on last_free slack);
      (* Gate 3: at 80%% duplicates, at least half the offered sessions
         must coalesce (the rest are first arrivals and recurrences). *)
      if dedup < 0.5 then
        failwith
          (Printf.sprintf "storm bench: dedup ratio %.2f below 0.5" dedup);
      if st_on.st_fresh_wait_rounds
         > st_free.st_max_wait_rounds + slack
      then
        failwith
          (Printf.sprintf
             "storm bench: fresh lane waited %d rounds (storm-free bound %d \
              + %d)"
             st_on.st_fresh_wait_rounds st_free.st_max_wait_rounds slack);
      (* Shed regime: a tight waiting room under the same storm.
         Recurrences must be refused/evicted typed and counted; fresh
         bugs never shed; the ledger still balances. *)
      let shed_sc =
        {
          (storm_sconfig ~sessions ~triage:true) with
          Serve.Service.max_inflight = 4;
          max_queue = 4;
          round_budget = 32;
        }
      in
      let shed_svc = Serve.Service.create ~sconfig:shed_sc ~pool () in
      let _, shed_notices, _ = storm_wave shed_svc specs in
      let st_shed = Serve.Service.stats shed_svc in
      storm_ledger_check "shed" shed_svc st_shed;
      Printf.printf
        "PR10 storm: tight queue (%d/%d): %d shed (%d evicted-queued \
         notices), %d coalesced, %d completed\n"
        shed_sc.Serve.Service.max_inflight shed_sc.Serve.Service.max_queue
        st_shed.st_shed
        (List.length shed_notices)
        st_shed.st_coalesced st_shed.st_completed;
      (* Soak: 3 storm waves through ONE service.  Waves 2..3 re-offer
         every bug, so diagnosed clusters re-open as recurrences (the
         recurrence lane earns its keep) and the cluster table, lanes
         and journal must stay bounded: flat live heap, like PR8. *)
      let soak_sc = storm_sconfig ~sessions ~triage:true in
      let soak_svc = Serve.Service.create ~sconfig:soak_sc ~pool () in
      let wave () =
        let completions, _, _ = storm_wave soak_svc specs in
        ignore (Sys.opaque_identity completions);
        Gc.compact ();
        (List.length completions, (Gc.stat ()).Gc.live_words)
      in
      let d1, w1 = wave () in
      let d2, w2 = wave () in
      let d3, w3 = wave () in
      let st_soak = Serve.Service.stats soak_svc in
      storm_ledger_check "soak" soak_svc st_soak;
      Printf.printf
        "PR10 storm: soak 3 waves of %d: diagnosed %d %d %d; live words %d \
         %d %d; %d coalesced, %d recurrence-admitted, fresh wait %d\n"
        sessions d1 d2 d3 w1 w2 w3 st_soak.st_coalesced
        st_soak.st_recur_admitted st_soak.st_fresh_wait_rounds;
      if w3 > w2 + (w2 / 100) then
        failwith
          (Printf.sprintf
             "storm bench: live words grew across storm waves (%d -> %d)" w2
             w3);
      if st_soak.st_recur_admitted = 0 then
        failwith "storm bench: the soak never exercised the recurrence lane";
      if st_soak.st_fresh_wait_rounds > st_free.st_max_wait_rounds + slack
      then
        failwith
          (Printf.sprintf
             "storm bench: soak fresh lane waited %d rounds (storm-free \
              bound %d + %d)"
             st_soak.st_fresh_wait_rounds st_free.st_max_wait_rounds slack);
      if json then begin
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "{\n";
        Printf.bprintf buf "  \"pr\": 10,\n";
        Printf.bprintf buf "  \"available_cores\": %d,\n"
          (Parallel.Jobs.available ());
        Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
        Printf.bprintf buf
          "  \"storm\": {\"sessions\": %d, \"dup_ratio\": %.2f, \
           \"hot\": 4},\n"
          sessions dup_ratio;
        Printf.bprintf buf
          "  \"triage\": {\"diagnosed\": %d, \"coalesced\": %d, \
           \"dedup_ratio\": %.3f, \"sessions_per_s\": %.2f, \
           \"fresh_first_round\": %d, \"fresh_last_round\": %d, \
           \"fresh_wait_rounds\": %d},\n"
          st_on.st_completed st_on.st_coalesced (json_num dedup)
          (json_num (float_of_int sessions /. wall_on))
          first_on last_on st_on.st_fresh_wait_rounds;
        Printf.bprintf buf
          "  \"no_triage\": {\"diagnosed\": %d, \"sessions_per_s\": %.2f, \
           \"fresh_first_round\": %d, \"fresh_last_round\": %d},\n"
          st_off.st_completed
          (json_num (float_of_int sessions /. wall_off))
          first_off last_off;
        Printf.bprintf buf
          "  \"storm_free\": {\"fresh_first_round\": %d, \
           \"fresh_last_round\": %d, \"max_wait_rounds\": %d},\n"
          first_free last_free st_free.st_max_wait_rounds;
        Printf.bprintf buf
          "  \"shed_regime\": {\"max_inflight\": %d, \"max_queue\": %d, \
           \"shed\": %d, \"evicted_notices\": %d, \"coalesced\": %d, \
           \"completed\": %d},\n"
          shed_sc.Serve.Service.max_inflight shed_sc.Serve.Service.max_queue
          st_shed.st_shed
          (List.length shed_notices)
          st_shed.st_coalesced st_shed.st_completed;
        Printf.bprintf buf
          "  \"soak\": {\"waves\": 3, \"sessions_per_wave\": %d, \
           \"diagnosed\": [%d, %d, %d], \"live_words\": [%d, %d, %d], \
           \"recur_admitted\": %d, \"fresh_wait_rounds\": %d},\n"
          sessions d1 d2 d3 w1 w2 w3 st_soak.st_recur_admitted
          st_soak.st_fresh_wait_rounds;
        Printf.bprintf buf
          "  \"gates\": {\"fresh_not_delayed_vs_no_triage\": true, \
           \"fresh_last_round_within_storm_free_slack\": true, \
           \"dedup_floor\": 0.5, \"ledger_balanced\": true}\n";
        Buffer.add_string buf "}\n";
        let oc = open_out "BENCH_PR10.json" in
        output_string oc (Buffer.contents buf);
        close_out oc;
        json_check "BENCH_PR10.json";
        Printf.printf "PR10 storm: wrote %s/BENCH_PR10.json\n%!"
          (Sys.getcwd ())
      end)

(* The standalone @check gate: the full-scale storm (3 x 200 sessions
   at 80% duplicates through one service, plus the triage-vs-no-triage
   and storm-free differentials), no JSON. *)
let run_storm_soak () = run_storm ~json:false ()

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
     dispatched %d -> %d (Bugbase %d -> %d, fuzz %d -> %d)\n%!"
    (List.length t.rows) (List.length cases) total_exh total_ad t.total_exh
    t.total_ad !fuzz_exh !fuzz_ad

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
    ("perf", fun () -> run_perf ());
    ("faults", fun () -> run_faults ());
    ("ingest", fun () -> run_ingest ());
    ("adaptive", fun () -> run_adaptive ());
    ("adaptive_gate", run_adaptive_gate);
    ("serve", fun () -> run_serve ());
    ("recover", fun () -> run_recover ());
    ("recover_soak", run_recover_soak);
    ("storm", fun () -> run_storm ());
    ("storm_soak", run_storm_soak);
    ("smoke",
     fun () ->
       run_perf ~smoke:true ();
       run_faults ~smoke:true ();
       run_ingest ~smoke:true ();
       run_adaptive ~smoke:true ();
       run_serve ~smoke:true ();
       run_recover ~smoke:true ();
       run_storm ~sessions:120 ~json:false ());
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
