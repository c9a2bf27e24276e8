(* Deterministic builders for the codec golden fixtures in
   test/golden/, shared by the fixture writer (test/golden/gen.exe)
   and the byte-identity tests (test/test_codec.ml).

   Each builder produces one persisted or wire format from a fixed
   input: a report envelope, a mid-diagnosis session snapshot, the
   journal of a fixed triage-on storm after a few rounds (whose last
   checkpoint carries the service state) and a triage table.  Every
   builder is deterministic and every fixture is compared byte for
   byte. *)

module Svc = Serve.Service

let pbzip2 () = Option.get (Bugbase.Registry.find "Pbzip2")

(* A failing production run of Pbzip2 under a plan tracking its first
   statements: the report, its plan id and the iid bound (computed
   once). *)
let envelope_parts =
  let parts =
    lazy
      (let b = pbzip2 () in
       let k, _ = Option.get (Bugbase.Common.find_target_failure b) in
       let all = Ir.Program.all_instrs b.program in
       let tracked =
         List.filteri (fun i _ -> i < 12) all
         |> List.map (fun (ins : Ir.Types.instr) -> ins.iid)
       in
       let plan = Instrument.Place.compute b.program tracked in
       let report =
         Gist.Client.run_one ~preempt_prob:b.preempt_prob ~plan
           ~wp_allowed:plan.Instrument.Plan.wp_targets b.program
           (b.workload_of k)
       in
       let n_instrs =
         1 + List.fold_left (fun m (i : Ir.Types.instr) -> max m i.iid) 0 all
       in
       (report, Instrument.Plan.id plan, n_instrs))
  in
  fun () -> Lazy.force parts

(* ... sealed for session 7 from fleet slot 3. *)
let envelope_session = 7

let encode_envelope ~plan_id report =
  Gist.Protocol.Encode.encode
    (Gist.Protocol.Encode.arena ())
    ~session:envelope_session ~client:3 ~plan_id report

let envelope () =
  let report, plan_id, _ = envelope_parts () in
  encode_envelope ~plan_id report

let snapshot_spec () =
  Option.get
    (Serve.Stream.bugbase_spec
       ~faults:(Serve.Stream.default_fault_rates, 42)
       ~name:"Pbzip2" (pbzip2 ()))

let session_of (sp : Svc.spec) =
  Gist.Server.Session.create ~config:sp.sp_config ~ingest:sp.sp_ingest
    ?oracle:sp.sp_oracle ~bug_name:sp.sp_name ~failure_type:sp.sp_failure_type
    ~program:sp.sp_program ~workload_of:sp.sp_workload_of
    ~failure:sp.sp_failure ()

let restore_of (sp : Svc.spec) bytes =
  Gist.Server.Session.restore ~config:sp.sp_config ~ingest:sp.sp_ingest
    ?oracle:sp.sp_oracle ~bug_name:sp.sp_name ~failure_type:sp.sp_failure_type
    ~program:sp.sp_program ~workload_of:sp.sp_workload_of
    ~failure:sp.sp_failure bytes

(* [cycles] grant/deliver exchanges of at most 5 slots each. *)
let advance s cycles =
  let module S = Gist.Server.Session in
  let rec loop k =
    if k > 0 then
      match S.need s with
      | S.Finished -> ()
      | S.Slots n ->
        S.deliver s (Array.map (fun th -> th ()) (S.grant s (min 5 n)));
        loop (k - 1)
  in
  loop cycles

(* Pbzip2 with 10% fleet faults, 6 exchanges in: the predictor
   accumulator, iteration trace, fault ledgers and the gathering pass
   are all populated. *)
let snapshot () =
  let s = session_of (snapshot_spec ()) in
  advance s 6;
  Gist.Server.Session.snapshot s

let storm_specs =
  lazy
    (Serve.Stream.storm
       ~tweak:(fun c ->
         {
           c with
           Gist.Config.max_iterations = 2;
           max_clients_per_iter = 40;
           fail_quota = 2;
           succ_quota = 4;
         })
       ~fuzz_count:2 ~hot:2 ~seed:11 ~sessions:12 ~dup_ratio:0.6 ())

let storm_sconfig =
  {
    Svc.default with
    Svc.max_inflight = 4;
    max_queue = 16;
    quantum = 7;
    round_budget = 19;
    checkpoint_every_rounds = 3;
    triage = true;
    recency_rounds = 1;
    fresh_weight = 2;
    recur_weight = 1;
  }

let resolve name =
  List.find_opt
    (fun (sp : Svc.spec) -> sp.sp_name = name)
    (Lazy.force storm_specs)

(* The storm's journal after [rounds] scheduler rounds (completions
   harvested every round) and one explicit checkpoint, so the newest
   checkpoint holds queued, active and clustered state. *)
let journal_rounds = 5

let journal () =
  let t = Svc.create ~sconfig:storm_sconfig () in
  List.iter (fun sp -> ignore (Svc.submit t sp)) (Lazy.force storm_specs);
  for _ = 1 to journal_rounds do
    ignore (Svc.step t);
    ignore (Svc.take_completions t);
    ignore (Svc.take_shed t)
  done;
  ignore (Svc.checkpoint t);
  Svc.journal_bytes t

(* The state bytes of a journal's newest intact checkpoint. *)
let last_state journal =
  List.fold_left
    (fun acc -> function
      | Serve.Journal.Rec (Serve.Journal.Checkpoint { state; _ }) -> Some state
      | _ -> acc)
    None (Serve.Journal.load journal)

let state () = Option.get (last_state (journal ()))

(* A table exercising every cluster state: a recently diagnosed
   cluster, an in-flight one with duplicates, a reverted reopen and an
   LRU eviction. *)
let triage_table () =
  let module T = Serve.Triage in
  let t = T.create ~max_clusters:3 ~recency_rounds:2 in
  T.open_fresh t ~fp:11 ~name:"a" ~id:1;
  T.completed t ~fp:11 ~id:1 ~round:1 ~digest:77 ~ok:true;
  T.open_fresh t ~fp:22 ~name:"b" ~id:2;
  T.coalesce t ~fp:22;
  T.coalesce t ~fp:22;
  T.open_fresh t ~fp:33 ~name:"c" ~id:3;
  T.completed t ~fp:33 ~id:3 ~round:2 ~digest:0x3FFFFFFFFFFFFFF ~ok:true;
  T.reopen t ~fp:33 ~name:"c@1" ~id:4;
  T.revert_reopen t ~fp:33 ~canonical:3 ~done_round:2;
  T.open_fresh t ~fp:44 ~name:"d" ~id:5;
  t

(* ------------------------------------------------------------------ *)
(* Fixture files *)

let fixtures =
  [
    ("envelope", envelope);
    ("snapshot", snapshot);
    ("journal", journal);
    ("state", state);
    ("triage", fun () -> Hw.Codec.encode Serve.Triage.codec (triage_table ()));
  ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [None] when [a] and [b] are equal, else the first differing
   offset (the shorter length when one is a prefix of the other). *)
let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i =
    if i < n then if a.[i] <> b.[i] then Some i else go (i + 1)
    else if String.length a = String.length b then None
    else Some n
  in
  go 0

(* Check [text] against the golden text file golden/[file] line by
   line, failing at the first line that differs. *)
let check_lines file text =
  let rec go n = function
    | g :: gs, l :: ls when g = l -> go (n + 1) (gs, ls)
    | g :: _, l :: _ -> Alcotest.failf "%s line %d: %S, now: %S" file n g l
    | g :: _, [] -> Alcotest.failf "%s line %d no longer produced: %S" file n g
    | [], l :: _ -> Alcotest.failf "line %d missing from %s: %S" n file l
    | [], [] -> ()
  in
  go 1
    ( String.split_on_char '\n' (read_file (Filename.concat "golden" file)),
      String.split_on_char '\n' text )
