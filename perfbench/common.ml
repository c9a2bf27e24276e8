(* What every workload shares: the diagnosis signature the correctness
   gate compares, the one-shot reference table, and the record one
   measured repetition produces. *)

module S = Gist.Server
module Svc = Serve.Service

(* Everything observable about a diagnosis except the two host-time
   fields and the session name, as a digest.  The sketch carries the
   session name, so it is blanked before hashing; everything else —
   sketch, counts, per-iteration trace, fleet ledger — must agree bit
   for bit with the one-shot reference. *)
let signature (d : S.diagnosis) =
  let sketch = { d.sketch with Fsketch.Sketch.bug_name = "" } in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( sketch,
            d.iterations,
            d.recurrences,
            d.total_runs,
            d.avg_overhead_pct,
            d.final_sigma,
            d.tracked,
            d.trace,
            d.fleet )
          [ Marshal.No_sharing ]))

(* Fleet slots the diagnosis consumed (speculative surplus excluded). *)
let slots_of (d : S.diagnosis) =
  List.fold_left (fun n (it : S.iteration_info) -> n + it.it_clients) 0 d.trace

let one_shot ?(pool = Parallel.Pool.sequential) (sp : Svc.spec) =
  S.diagnose ~config:sp.sp_config ~pool ~ingest:sp.sp_ingest ?oracle:sp.sp_oracle
    ~bug_name:sp.sp_name ~failure_type:sp.sp_failure_type
    ~program:sp.sp_program ~workload_of:sp.sp_workload_of
    ~failure:sp.sp_failure ()

(* Base-spec name -> signature of its sequential one-shot diagnosis:
   the untimed verify pass.  Returns the pass's wall time. *)
let reference_pass table specs =
  let t0 = Stat.now () in
  List.iter
    (fun (sp : Svc.spec) ->
      if not (Hashtbl.mem table sp.sp_name) then
        Hashtbl.replace table sp.sp_name (signature (one_shot sp)))
    specs;
  Stat.now () -. t0

(* The set-up clock.  Set-up is deterministic work like a repetition,
   so it is cut into phases — each Bugbase probe, each fuzz spec, the
   rest — and each phase is charged its fastest time across the set-up
   samples.  [setup_mark ()] ends the current phase. *)
let setup_phases : float list ref = ref []  (* newest first *)

let setup_clock = ref 0.0

let setup_mark () =
  let t = Stat.now () in
  setup_phases := (t -. !setup_clock) :: !setup_phases;
  setup_clock := t

(* Mutable tally for one repetition. *)
type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
  mutable diagnoses : int;
  mutable coalesced : int;
  mutable slots : int;
  mutable runs : int;
  mutable recurrences : int;
  mutable bugbase : int;
      (** Bugbase diagnoses, over which the paper's Table 1 and
          Fig. 11 figures below are taken *)
  mutable bugbase_runs : int;
  mutable bugbase_recurrences : int;
  mutable overhead_weighted : float;
      (** Bugbase Σ avg_overhead_pct × total_runs *)
  mutable ops : float list;
      (** durations of the repetition's operations, newest first: each
          diagnosis on [oneshot]; the submissions, each scheduler round
          and the recovery on the burst workloads *)
  mutable n_ops : int;
  mutable answered_at : (int * int * bool) list;
      (** per diagnosis: the first and last operation its time to
          diagnosis spans, and whether it is fresh traffic *)
  mutable sigs : string list;
}

let acc () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    diagnoses = 0;
    coalesced = 0;
    slots = 0;
    runs = 0;
    recurrences = 0;
    bugbase = 0;
    bugbase_runs = 0;
    bugbase_recurrences = 0;
    overhead_weighted = 0.0;
    ops = [];
    n_ops = 0;
    answered_at = [];
    sigs = [];
  }

(* Run [f] as the repetition's next operation. *)
let op a f =
  let t = Stat.now () in
  let r = f () in
  a.ops <- (Stat.now () -. t) :: a.ops;
  a.n_ops <- a.n_ops + 1;
  r

let problem a fmt =
  Printf.ksprintf
    (fun s ->
      a.failed <- a.failed + 1;
      a.problems <- s :: a.problems)
    fmt

(* Book one diagnosis against the reference of its base spec. *)
let book a ~reference ~base ~name (d : S.diagnosis) =
  let sg = signature d in
  (match Hashtbl.find_opt reference base with
   | Some r when r = sg -> ()
   | Some _ -> problem a "%s: diagnosis differs from the one-shot reference of %s" name base
   | None -> problem a "%s: no reference for base spec %s" name base);
  a.diagnoses <- a.diagnoses + 1;
  a.slots <- a.slots + slots_of d;
  a.runs <- a.runs + d.total_runs;
  a.recurrences <- a.recurrences + d.recurrences;
  if List.mem base Bugbase.Registry.names then begin
    a.bugbase <- a.bugbase + 1;
    a.bugbase_runs <- a.bugbase_runs + d.total_runs;
    a.bugbase_recurrences <- a.bugbase_recurrences + d.recurrences;
    a.overhead_weighted <-
      a.overhead_weighted +. (d.avg_overhead_pct *. float_of_int d.total_runs)
  end;
  a.sigs <- (name ^ "=" ^ sg) :: a.sigs

(* One measured repetition of a workload. *)
type rep = {
  start : float;  (** on the [Stat.now] clock *)
  wall : float;
  a : acc;
  recover_s : float;  (** [Service.recover] wall; 0 when the workload never kills *)
  counts : (string * int) list;
      (** seed-determined counts for the determinism cross-check *)
  layer : (string * float) list;
      (** per-layer values read from outside the layers (service
          stats, journal image) *)
  gc_minor_words : float;
  gc_major : int;
  top_heap_words : int;  (** process-wide peak major heap after the repetition *)
  live_words : int;
      (** live major heap after the repetition and a full major
          collection: what the process keeps (specs, references,
          analysis caches) *)
  cache_hits : int;
  cache_misses : int;
}

(* Run [f] as one repetition: caches cold, the heap compacted so every
   repetition starts from the same GC state, GC and cache counters
   sampled around it.  [f] returns (start, wall, acc, recover_s,
   counts, layer values). *)
let measure f =
  Analysis.Cache.clear ();
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let start, wall, a, recover_s, counts, layer = f () in
  let g1 = Gc.quick_stat () in
  Gc.full_major ();
  let counts =
    [
      ("diagnoses", a.diagnoses);
      ("coalesced", a.coalesced);
      ("slots", a.slots);
      ("runs", a.runs);
      ("recurrences", a.recurrences);
      ( "signatures",
        int_of_string
          ("0x"
          ^ String.sub
              (Digest.to_hex
                 (Digest.string (String.concat ";" (List.sort compare a.sigs))))
              0 12) );
    ]
    @ counts
  in
  {
    start;
    wall;
    a;
    recover_s;
    counts;
    layer;
    gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
    live_words = (Gc.quick_stat ()).Gc.live_words;
    cache_hits = Analysis.Cache.hits ();
    cache_misses = Analysis.Cache.misses ();
  }

(* Seeded Fisher-Yates permutation. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Exec.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* [Server.diagnose] re-driven call by call, exactly as it drives its
   session (same grant batch, same pool), with a span around every
   call into a layer.  At each quiescent point that opens a new AsT
   iteration the session is also snapshotted, as a service checkpoint
   would. *)
let traced_diagnose ~pool ~session ~granted ~snapshots (sp : Svc.spec) =
  let span name f = Spans.run ~session name f in
  let s =
    span "server.create" (fun () ->
        S.Session.create ~config:sp.sp_config ~ingest:sp.sp_ingest
          ?oracle:sp.sp_oracle ~bug_name:sp.sp_name
          ~failure_type:sp.sp_failure_type ~program:sp.sp_program
          ~workload_of:sp.sp_workload_of ~failure:sp.sp_failure ())
  in
  let jobs = Parallel.Pool.jobs pool in
  let batch = if jobs = 0 then 1 else jobs * 4 in
  let iteration = ref 0 in
  let rec loop () =
    match span "server.need" (fun () -> S.Session.need s) with
    | S.Session.Finished -> span "server.result" (fun () -> S.Session.result s)
    | S.Session.Slots n ->
      let it = (S.Session.progress s).S.Session.p_iteration in
      if it <> !iteration then begin
        iteration := it;
        let bytes = span "server.snapshot" (fun () -> S.Session.snapshot s) in
        snapshots := float_of_int (String.length bytes) :: !snapshots
      end;
      let thunks = span "server.grant" (fun () -> S.Session.grant s (min batch n)) in
      granted := !granted + Array.length thunks;
      let outcomes =
        span "pool.batch" (fun () ->
            let parent = Spans.current () in
            Parallel.Pool.map_array pool
              (fun th -> Spans.run ~parent ~session "server.slot" th)
              thunks)
      in
      span "server.deliver" (fun () -> S.Session.deliver s outcomes);
      loop ()
  in
  loop ()

let traced_one_shots ~pool ~reference specs () =
  measure (fun () ->
      let a = acc () in
      let granted = ref 0 and snapshots = ref [] in
      let t0 = Stat.now () in
      let done_ =
        List.mapi
          (fun i (sp : Svc.spec) ->
            a.answered_at <- (a.n_ops, a.n_ops, true) :: a.answered_at;
            (sp, op a (fun () -> traced_diagnose ~pool ~session:i ~granted ~snapshots sp)))
          specs
      in
      let wall = Stat.now () -. t0 in
      List.iter
        (fun ((sp : Svc.spec), d) ->
          a.attempted <- a.attempted + 1;
          book a ~reference ~base:sp.sp_name ~name:sp.sp_name d)
        done_;
      ( t0,
        wall,
        a,
        0.0,
        [],
        [
          ("server.slots_granted", float_of_int !granted);
          ("server.snapshot_bytes", Stat.median !snapshots);
        ] ))

(* How a workload plugs into the runner.  [rep ()] is one measured
   repetition (spans are recorded when [Spans.enabled] is set);
   [traced_rep] is what the traced run drives.  [aux] is the traced
   run's probe of the session calls the burst workloads hide inside
   [Service.step]; [oneshot] makes those calls itself and has none.
   [probe_specs] are the workload's distinct bugs for the slot-path
   probe. *)
type prepared = {
  reference : unit -> float;
  rep : unit -> rep;
  traced_rep : unit -> rep;
  aux : (unit -> rep) option;
  probe_specs : Svc.spec list;
}
