(* The repository benchmark.

     perfbench --workload <oneshot|serve|storm> --seed <n> --seconds <s>
               --trace <0|1>

   Untraced (--trace 0): set up the workload, run the untimed verify
   pass that computes a one-shot reference diagnosis per distinct base
   spec, then repeat the workload for --seconds, timing further set-ups
   between the repetitions, and report the end-to-end metrics: each
   set-up phase charged its fastest sample, every other operation its
   fastest time across a fixed number of repetitions.
   Traced (--trace 1): one untraced and one traced repetition, then
   the slot-path probe, and report the per-layer metrics.

   Either way every diagnosis is checked against its reference, the
   service ledger must balance, recovery must not diverge, and the
   seed-determined counts must agree across repetitions and with
   earlier runs of the same seed and binary.  The last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}; the exit code is non-zero when any check failed.  Spans,
   the full result and the determinism record go under .perfbench/ in
   the working directory.  METRICS.md describes every metric. *)

open Common

let end_to_end =
  [
    ("setup_s", "s");
    ("sessions_per_s", "1/s");
    ("reports_per_s", "1/s");
    ("ttd_p50_s", "s");
    ("ttd_p90_s", "s");
    ("fresh_ttd_p50_s", "s");
    ("runs_per_diagnosis", "count");
    ("recurrences_per_diagnosis", "count");
    ("client_overhead_pct", "%");
    ("live_heap_mb", "MB");
  ]

let per_layer =
  [
    ("server.create_s", "s");
    ("server.need_s", "s");
    ("server.slot_s", "s");
    ("server.deliver_s", "s");
    ("server.slots_granted", "count");
    ("server.slots_consumed", "count");
    ("server.useful_slot_ratio", "ratio");
    ("server.snapshot_us", "us");
    ("server.snapshot_bytes", "bytes");
    ("pool.batch_s", "s");
    ("pool.batches", "count");
    ("pool.busy_frac", "ratio");
    ("pool.speedup_vs_jobs1", "ratio");
    ("exec.interp_run_us", "us");
    ("client.run_one_us", "us");
    ("protocol.encode_us", "us");
    ("protocol.ingest_us", "us");
    ("protocol.bytes_per_report", "bytes");
    ("predict.of_run_us", "us");
    ("predict.acc_add_us", "us");
    ("predict.separated_us", "us");
    ("predict.rank_us", "us");
    ("slicing.compute_us", "us");
    ("instrument.place_cold_us", "us");
    ("instrument.place_warm_us", "us");
    ("analysis.cache_hit_ratio", "ratio");
    ("service.submit_us", "us");
    ("service.step_p50_s", "s");
    ("service.step_p90_s", "s");
    ("service.rounds", "count");
    ("service.slots_per_round", "count");
    ("service.max_wait_rounds", "count");
    ("service.peak_inflight", "count");
    ("journal.bytes", "bytes");
    ("journal.checkpoints", "count");
    ("recover.replayed_rounds", "count");
    ("recover.divergences", "count");
    ("recover_s", "s");
    ("triage.fingerprint_us", "us");
    ("triage.dedup_ratio", "ratio");
    ("triage.clusters", "count");
    ("triage.recur_admitted", "count");
    ("gc.minor_words_per_slot", "words");
    ("gc.major_collections", "count");
    ("gc.peak_heap_mb", "MB");
    ("unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let workloads = [ "oneshot"; "serve"; "storm" ]

(* Set-up is timed this many times per untraced run, spread over the
   charged repetitions; each set-up phase is charged its fastest
   sample. *)
let setup_samples = 12

(* Repetitions charged per untraced run, a constant per workload: a
   minimum over a count that followed the host's speed would drop when
   a change made more repetitions fit, whatever the change did.  Each
   is sized to fill a 30 s run on the 2-core host the benchmark was
   built on (oneshot 4-5 s a repetition, serve 4 s, storm 0.7 s).  A
   run repeats at least this often — the determinism cross-check
   compares repetitions, and [oneshot] needs two to reach 100
   diagnoses — and then until the next would overrun --seconds. *)
let charged_reps = function "oneshot" -> 5 | "serve" -> 6 | _ -> 30

let out_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: perfbench --workload <oneshot|serve|storm> --seed <n> --seconds \
     <s> --trace <0|1>";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: n :: rest
      when Option.fold ~none:false ~some:(fun f -> f > 0.0) (float_of_string_opt n) ->
      seconds := float_of_string_opt n;
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t -> (w, s, sec, t)
  | _ -> usage ()

let prepare workload ~seed ~pool =
  match workload with
  | "oneshot" -> Oneshot.prepare ~seed ~pool
  | "serve" -> Burst.prepare_serve ~seed ~pool
  | _ -> Burst.prepare_storm ~seed ~pool

(* [Serve.Stream] memoises the Bugbase failure probes, and nothing
   outside it can clear the memo: fill it once, untimed, and let every
   timed set-up run the probes itself. *)
let warm_stream_memo () =
  List.iter
    (fun (b : Bugbase.Common.t) -> ignore (Serve.Stream.bugbase_spec ~name:b.name b))
    Bugbase.Registry.all

(* One set-up from cold caches and a compacted heap: the Bugbase
   failure probes, the pool, the workload's specs and its service.
   Returns the pool, the prepared workload and the seconds each phase
   took. *)
let setup workload ~seed =
  Analysis.Cache.clear ();
  Gc.compact ();
  setup_phases := [];
  setup_clock := Stat.now ();
  List.iter
    (fun b ->
      ignore (Bugbase.Common.find_target_failure b);
      setup_mark ())
    Bugbase.Registry.all;
  let pool = Parallel.Pool.create ~jobs:(Parallel.Jobs.default ()) in
  let p = prepare workload ~seed ~pool in
  setup_mark ();
  (pool, p, Array.of_list (List.rev !setup_phases))

(* A further set-up sample, its result discarded. *)
let setup_sample workload ~seed =
  let pool, _, phases = setup workload ~seed in
  Parallel.Pool.shutdown pool;
  phases

(* ---- determinism ------------------------------------------------ *)

let counts_to_string counts =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)

(* Every repetition of a seed must produce the same counts, and so
   must every earlier run of the same seed by the same binary (the
   record under .perfbench/).  Returns the problems found. *)
let determinism ~workload ~seed reps =
  let first = (List.hd reps).counts in
  let within =
    List.filter_map
      (fun r ->
        if r.counts = first then None
        else
          Some
            (Printf.sprintf "counts differ between repetitions: %s vs %s"
               (counts_to_string first) (counts_to_string r.counts)))
      reps
  in
  let path =
    Filename.concat out_dir (Printf.sprintf "determinism-%s-seed%d.txt" workload seed)
  in
  let binary = Digest.to_hex (Digest.file Sys.executable_name) in
  let line = counts_to_string first in
  let across =
    match In_channel.with_open_text path In_channel.input_all with
    | recorded when recorded = binary ^ "\n" ^ line ^ "\n" -> []
    | recorded when String.starts_with ~prefix:(binary ^ "\n") recorded ->
      [
        Printf.sprintf "counts differ from an earlier run of seed %d: %s vs %s"
          seed (String.trim recorded) line;
      ]
    | _ | (exception Sys_error _) -> []
  in
  if within = [] && across = [] then
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "%s\n%s\n" binary line);
  within @ across

(* ---- reporting -------------------------------------------------- *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let metrics_json spec values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (json_float (Option.value ~default:0.0 (List.assoc_opt name values)))
           unit)
       spec)

let print_timing name samples =
  let a = Stat.sorted samples in
  let n = Array.length a in
  let p = Stat.tail_percentile n in
  Printf.printf "  %-26s p50 %.6f s, p%g %.6f s (n=%d)\n" name
    (Stat.percentile a 0.5) (100.0 *. p) (Stat.percentile a p) n

(* Charged times.  Repetitions are identical, deterministic work — the
   same diagnoses, the same scheduler rounds — so each operation is
   charged its fastest time across them.  Interference from other
   tenants of a shared host only ever adds time, and comes in bursts
   shorter than a repetition: per-operation minima remove it where a
   sum over repetitions keeps it (four serve runs: raw repetition walls
   3.5-5.3 s, sums of per-round minima 3.4-3.6 s).  [samples] holds
   each repetition's operation times, in order.  Returns the prefix
   sums of the charged operations. *)
let charged_prefix samples =
  let n = List.fold_left (fun n o -> min n (Array.length o)) max_int samples in
  let pre = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    pre.(i + 1) <-
      pre.(i) +. List.fold_left (fun m o -> Float.min m o.(i)) infinity samples
  done;
  pre

(* [reps] are the run's charged repetitions, always [charged_reps] of
   them. *)
let charged reps = charged_prefix (List.map (fun r -> Array.of_list (List.rev r.a.ops)) reps)

let charged_total samples =
  let pre = charged_prefix samples in
  pre.(Array.length pre - 1)

(* Charged time to diagnosis of every answered diagnosis of one
   repetition (all repetitions answer the same ones): (seconds, fresh). *)
let charged_ttd reps =
  let pre = charged reps in
  List.map
    (fun (first, last, fresh) -> (pre.(last + 1) -. pre.(first), fresh))
    (List.hd reps).a.answered_at

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* Memory is read after the first repetition — set-up, verify pass and
   one repetition, a fixed amount of work — so it does not grow with
   however many repetitions the host's speed fits in the budget.  The
   end-to-end figure is the live heap: the GC's top heap is a
   deterministic function of the allocation sequence, but moving any
   allocation shifts the collection cycles and with them the peak, by
   up to a fifth between two builds of the same code. *)
let live_heap_mb reps = mb (List.hd reps).live_words

let end_to_end_values ~setup reps =
  let r = (List.hd reps).a in
  let f = float_of_int in
  let pre = charged reps in
  let wall = pre.(Array.length pre - 1) in
  let ttd = charged_ttd reps in
  let runs = f r.bugbase_runs in
  [
    ("setup_s", charged_total setup);
    ("sessions_per_s", Stat.ratio (f (r.diagnoses + r.coalesced)) wall);
    ("reports_per_s", Stat.ratio (f r.slots) wall);
    ("ttd_p50_s", Stat.median (List.map fst ttd));
    ("ttd_p90_s", Stat.percentile (Stat.sorted (List.map fst ttd)) 0.9);
    ( "fresh_ttd_p50_s",
      Stat.median (List.filter_map (fun (t, fresh) -> if fresh then Some t else None) ttd) );
    ("runs_per_diagnosis", Stat.ratio runs (f r.bugbase));
    ("recurrences_per_diagnosis", Stat.ratio (f r.bugbase_recurrences) (f r.bugbase));
    ("client_overhead_pct", Stat.ratio r.overhead_weighted runs);
    ("live_heap_mb", live_heap_mb reps);
  ]

(* Per-layer values of the traced run: [untraced] and [traced] are one
   repetition each of the same inputs, [aux] the traced probe of the
   session layers a burst's [traced] does not reach.  Where both give a
   value, the workload's own repetition wins. *)
let per_layer_values ~workload ~pool ~reference_wall ~untraced ~traced ~spans
    ~aux ~aux_spans ~probe =
  let aux_layer = List.concat_map (fun (r : rep) -> r.layer) aux in
  let layers = Spans.layers spans in
  let unattributed =
    Spans.unattributed ~lo:traced.start ~hi:(traced.start +. traced.wall) spans
  in
  let all_layers = Spans.layers (spans @ aux_spans) in
  let self = Spans.self_of all_layers in
  let durs = Spans.durations (spans @ aux_spans) in
  let layer r name = Option.value ~default:0.0 (List.assoc_opt name r.layer) in
  let f = float_of_int in
  let granted = layer traced "server.slots_granted" in
  let consumed = f traced.a.slots in
  let slot_total = Stat.sum (durs "server.slot") in
  let batch_total = Stat.sum (durs "pool.batch") in
  let domains = f (Parallel.Pool.jobs pool + 1) in
  let steps = Stat.sorted (durs "service.step") in
  let lookups = untraced.cache_hits + untraced.cache_misses in
  ( [
      ("server.create_s", self "server.create");
      ("server.need_s", self "server.need");
      ("server.slot_s", self "server.slot");
      ("server.deliver_s", self "server.deliver");
      ("server.slots_consumed", consumed);
      ("server.useful_slot_ratio", Stat.ratio consumed granted);
      ("server.snapshot_us", Stat.median (durs "server.snapshot") *. 1e6);
      ("pool.batch_s", self "pool.batch");
      ("pool.batches", f (Spans.count_of all_layers "pool.batch"));
      ("pool.busy_frac", Stat.ratio slot_total (batch_total *. domains));
      ( "pool.speedup_vs_jobs1",
        if workload = "oneshot" then Stat.ratio reference_wall untraced.wall
        else 0.0 );
      ("analysis.cache_hit_ratio", Stat.ratio (f untraced.cache_hits) (f lookups));
      ("service.submit_us", Stat.median (durs "service.submit") *. 1e6);
      ("service.step_p50_s", Stat.percentile steps 0.5);
      ("service.step_p90_s", Stat.percentile steps 0.9);
      ("recover_s", untraced.recover_s);
      ("gc.minor_words_per_slot", Stat.ratio untraced.gc_minor_words (f untraced.a.slots));
      ("gc.major_collections", f untraced.gc_major);
      ("gc.peak_heap_mb", mb untraced.top_heap_words);
      ("unattributed_frac", Stat.ratio unattributed traced.wall);
      ("trace.overhead_frac", Stat.ratio traced.wall untraced.wall -. 1.0);
    ]
    @ traced.layer @ aux_layer @ probe,
    layers,
    unattributed )

let () =
  let workload, seed, seconds, trace = parse_args () in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let host = Host.start () in
  warm_stream_memo ();
  let pool, prepared, first_setup = setup workload ~seed in
  let reference_wall = prepared.reference () in
  let k = charged_reps workload in
  let setup_s = ref [ first_setup ] in
  (* [probes]: repetitions run only for the per-layer figures; they are
     checked for correctness but not compared for determinism. *)
  let reps, probes, values, trace_report =
    if not trace then begin
      (* The other set-up samples go before the charged repetitions,
         spread evenly, so one burst of interference cannot cover them
         all. *)
      let owed i =
        if i < k then ((i + 1) * (setup_samples - 1) / k) - (i * (setup_samples - 1) / k)
        else 0
      in
      let t0 = Stat.now () in
      let rec go i reps =
        for _ = 1 to owed i do
          setup_s := setup_sample workload ~seed :: !setup_s
        done;
        let reps = prepared.rep () :: reps in
        let next = Stat.median (List.map (fun r -> r.wall) reps) in
        if i + 1 >= k && Stat.now () -. t0 +. next > seconds then List.rev reps
        else go (i + 1) reps
      in
      let reps = go 0 [] in
      ( reps,
        [],
        end_to_end_values ~setup:!setup_s (List.filteri (fun i _ -> i < k) reps),
        None )
    end
    else begin
      let untraced = prepared.rep () in
      Spans.enabled := true;
      let traced = prepared.traced_rep () in
      let spans = Spans.collect () in
      let aux = Option.to_list (Option.map (fun f -> f ()) prepared.aux) in
      Spans.enabled := false;
      let aux_spans = Spans.collect () in
      let probe = Slotprobe.run prepared.probe_specs in
      let values, layers, unattributed =
        per_layer_values ~workload ~pool ~reference_wall ~untraced ~traced ~spans
          ~aux ~aux_spans ~probe
      in
      Spans.write_tsv
        (Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.tsv" workload seed))
        ~origin:traced.start (spans @ aux_spans);
      ([ untraced; traced ], aux, values, Some (traced, layers, unattributed))
    end
  in
  Parallel.Pool.shutdown pool;
  Host.finish host;
  let nondeterministic = determinism ~workload ~seed reps in
  let checked = reps @ probes in
  let problems =
    List.concat_map (fun r -> List.rev r.a.problems) checked @ nondeterministic
  in
  let attempted = Stat.sumi (List.map (fun r -> r.a.attempted) checked) in
  let failed =
    Stat.sumi (List.map (fun r -> r.a.failed) checked) + List.length nondeterministic
  in
  let correct = problems = [] in
  (* Human-readable report. *)
  Printf.printf "perfbench %s, seed %d, %s run\n" workload seed
    (if trace then "traced" else "untraced");
  Printf.printf "host: %s\n" (Host.to_string host);
  Printf.printf "set-up: %s s; %d phases, each charged its fastest: %.4f s\n"
    (String.concat " "
       (List.rev_map (fun p -> Printf.sprintf "%.4f" (Array.fold_left ( +. ) 0.0 p)) !setup_s))
    (Array.length first_setup) (charged_total !setup_s);
  Printf.printf "verify pass: %.3f s; %d repetition(s): %s s\n" reference_wall
    (List.length reps)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) reps));
  Printf.printf "counts: %s\n" (counts_to_string (List.hd reps).counts);
  Printf.printf "failed_frac %.4f (%d of %d reports)\n"
    (Stat.ratio (float_of_int failed) (float_of_int attempted)) failed attempted;
  List.iteri
    (fun i p -> if i < 20 then Printf.printf "PROBLEM: %s\n" p)
    problems;
  let charged_set = List.filteri (fun i _ -> i < k) reps in
  let ttd = charged_ttd charged_set in
  Printf.printf "charged wall %.3f s (per-operation minima over the first %d repetitions)\n"
    (let pre = charged charged_set in pre.(Array.length pre - 1))
    (List.length charged_set);
  print_timing "ttd_s" (List.map fst ttd);
  print_timing "fresh_ttd_s" (List.filter_map (fun (t, fr) -> if fr then Some t else None) ttd);
  if workload = "storm" then
    print_timing "recover_s" (List.map (fun r -> r.recover_s) reps);
  let spec = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-26s %14.6f %s\n" name
        (Option.value ~default:0.0 (List.assoc_opt name values))
        unit)
    spec;
  Option.iter
    (fun (traced, layers, unattributed) ->
      Printf.printf "trace: %.3f s traced wall, per-layer self time:\n" traced.wall;
      List.iter
        (fun (l : Spans.layer) ->
          Printf.printf "  %-26s %8d calls %10.4f s self %6.2f%%\n" l.l_name
            l.l_count l.l_self (100.0 *. l.l_self /. traced.wall))
        layers;
      Printf.printf "  %-26s %25.4f s      %6.2f%%\n" "(unattributed)" unattributed
        (100.0 *. unattributed /. traced.wall))
    trace_report;
  let result =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct attempted failed (metrics_json spec values)
  in
  let oc =
    open_out
      (Filename.concat out_dir
         (Printf.sprintf "result-%s-seed%d-trace%d.json" workload seed
            (if trace then 1 else 0)))
  in
  Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"host\": %s, \"result\": %s}\n"
    workload seed (Host.to_json host) result;
  close_out oc;
  print_endline result;
  exit (if correct then 0 else 1)
