(* Crash-only recovery differential suite (lib/serve + lib/core
   snapshots + the journal).

   The crash-only contract: kill the service after ANY round, recover
   from the journal bytes, and every diagnosis the recovered service
   goes on to produce is bit-identical to the
   uninterrupted run's — which test_serve already pins to the one-shot
   [Gist.Server.diagnose].  The suite holds that contract by killing
   at EVERY round boundary over the whole Bugbase and the 50-bug
   seed-42 fuzz campaign, in the zero-fault and 10%-aggregate-fault
   regimes, at jobs 1 and jobs 4, under the same adversarial scheduler
   shape test_serve uses (plus a tight checkpoint cadence so recovery
   replays real rounds, not just checkpoint restores).

   Also here: the journal codec and its damage model (torn tails
   truncate, checksum failures degrade to [Damaged] and recovery falls
   back to an older checkpoint), session snapshot/restore roundtrips
   and typed refusals, blast-radius containment (poisoned sessions
   quarantine, deadlines evict — the service survives, the ledger
   balances), the [Busy] retry hint, and a seeded chaos campaign
   (kills + torn tails + corrupted checkpoints) over the Bugbase. *)

module S = Gist.Server
module D = Tsupport.Diagnoses
module Svc = Serve.Service
module J = Serve.Journal

(* The adversarial shape of test_serve, with a checkpoint every 3
   rounds so a kill usually lands rounds past the newest checkpoint
   and recovery must replay through the real scheduler. *)
let tight =
  { Svc.default with
    Svc.max_inflight = 16; max_queue = 64; quantum = 7; round_budget = 23;
    checkpoint_every_rounds = 3 }

(* Kill plans for [Serve.Chaos.drive]: one undamaged kill after round
   [k], or after every round. *)
let kill = { Faults.Chaos.no_plan with Faults.Chaos.p_kill = true }
let kill_at k tick = if tick = k then kill else Faults.Chaos.no_plan

(* Every diagnosis of a drive equals its one-shot reference; a
   contained failure fails the test. *)
let check_done ?(label = Fun.id) reference (oc : Serve.Chaos.outcome) =
  List.iter
    (fun (name, (c : Svc.completion)) ->
      match c.Svc.c_result with
      | Ok d -> D.compare (label name) (List.assoc name reference) d
      | Error f ->
        Alcotest.failf "session %s failed: %s" name
          (Svc.session_failure_to_string f))
    oc.Serve.Chaos.o_done

(* The final incarnation is idle and its ledger balances. *)
let check_idle_ledger label (oc : Serve.Chaos.outcome) =
  Alcotest.(check (option string)) (label ^ ": ledger balances") None
    (Svc.ledger_error oc.Serve.Chaos.o_service)

(* ------------------------------------------------------------------ *)
(* Spec builders (as in test_serve). *)

let bugbase_spec ~faults (b : Bugbase.Common.t) =
  let _, failure = Option.get (Bugbase.Common.find_target_failure b) in
  let config =
    let base = { Gist.Config.default with preempt_prob = b.preempt_prob } in
    if faults then
      {
        base with
        Gist.Config.fault_rates = Faults.Fault.spread 0.10;
        fault_seed = 42;
      }
    else base
  in
  {
    Svc.sp_name = b.name;
    sp_failure_type = b.failure_type;
    sp_config = config;
    sp_ingest = S.Streaming;
    sp_oracle = Some (Experiments.Oracle.for_bug b);
    sp_program = b.program;
    sp_workload_of = b.workload_of;
    sp_failure = failure;
    sp_case = None;
  }

let fuzz_count = 50

let fuzz_cases =
  lazy
    (let patterns = Array.of_list Fuzz.Gen.all_patterns in
     List.init fuzz_count (fun i ->
         Fuzz.Gen.generate patterns.(i mod Array.length patterns) (42 + i)))

let fuzz_specs ~faults =
  List.filter_map
    (fun (case : Fuzz.Gen.case) ->
      let case =
        if faults then
          { case with Fuzz.Gen.c_faults = Some (Faults.Fault.spread 0.10, 42) }
        else case
      in
      match Fuzz.Check.probe case with
      | { Fuzz.Check.p_target = Some failure; _ } as p
        when Fuzz.Check.viable p ->
        Some
          {
            Svc.sp_name = case.Fuzz.Gen.c_name;
            sp_failure_type =
              Exec.Failure.kind_to_string failure.Exec.Failure.kind;
            sp_config = Fuzz.Check.config_of case;
            sp_ingest = S.Streaming;
            sp_oracle = None;
            sp_program = case.Fuzz.Gen.c_program;
            sp_workload_of = Fuzz.Gen.workload_of case;
            sp_failure = failure;
    sp_case = None;
          }
      | _ -> None)
    (Lazy.force fuzz_cases)

let small_spec name =
  let b = List.hd Bugbase.Registry.all in
  let sp = bugbase_spec ~faults:false b in
  { sp with Svc.sp_name = name }

(* ------------------------------------------------------------------ *)
(* Kill-at-every-round differential.

   The driver runs all [specs] through one service under [tight], and
   after every round — every possible crash point — takes the journal
   bytes as the crash image, recovers a fresh service from them and
   continues on the recovered object.  Whatever the kill schedule did,
   every diagnosis must equal the one-shot reference. *)

let kill_differential ~jobs ~faults specs () =
  Alcotest.(check bool)
    (Printf.sprintf "enough sessions (%d)" (List.length specs))
    true
    (List.length specs >= 10);
  let reference = List.map (fun sp -> (sp.Svc.sp_name, D.one_shot sp)) specs in
  let oc =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Serve.Chaos.drive ~pool ~kills:(fun _ -> kill) ~specs
          (Svc.create ~sconfig:tight ~pool ()))
  in
  check_idle_ledger "kill at every round" oc;
  Alcotest.(check int) "no replay divergences" 0
    (Svc.stats oc.Serve.Chaos.o_service).Svc.st_divergences;
  Alcotest.(check int) "every recovery succeeded" 0
    oc.Serve.Chaos.o_failed_recoveries;
  Alcotest.(check bool) "killed at every round" true
    (oc.Serve.Chaos.o_kills >= 1);
  Alcotest.(check int) "every session completed across the kills"
    (List.length specs) (List.length oc.Serve.Chaos.o_done);
  check_done
    ~label:(fun name -> Printf.sprintf "%s (jobs %d, faults %b)" name jobs faults)
    reference oc

(* ------------------------------------------------------------------ *)
(* Corpus replay through a recovery: every diagnosable shrunk
   reproducer, diagnosed across one mid-stream kill under the
   adversarial shape, still bit-identical to one-shot. *)

let corpus_cases =
  lazy
    (let dir =
       if Sys.file_exists "corpus" then "corpus"
       else if Sys.file_exists "test/corpus" then "test/corpus"
       else Filename.concat (Filename.dirname Sys.executable_name) "corpus"
     in
     match Fuzz.Corpus.load_dir dir with
     | Ok cases -> cases
     | Error e -> Alcotest.failf "corpus load: %s" e)

let corpus_spec (case : Fuzz.Gen.case) =
  match Fuzz.Check.prepare case with
  | Fuzz.Check.Decided _ -> None
  | Fuzz.Check.Diagnose failure ->
    Some
      {
        Svc.sp_name = case.Fuzz.Gen.c_name;
        sp_failure_type =
          Exec.Failure.kind_to_string failure.Exec.Failure.kind;
        sp_config = Fuzz.Check.config_of case;
        sp_ingest = S.Streaming;
        sp_oracle = None;
        sp_program = case.Fuzz.Gen.c_program;
        sp_workload_of = Fuzz.Gen.workload_of case;
        sp_failure = failure;
        sp_case = None;
      }

let corpus_through_recovery () =
  let specs = List.filter_map corpus_spec (Lazy.force corpus_cases) in
  Alcotest.(check bool)
    (Printf.sprintf "enough diagnosable reproducers (%d)" (List.length specs))
    true
    (List.length specs >= 15);
  let reference = List.map (fun sp -> (sp.Svc.sp_name, D.one_shot sp)) specs in
  (* One kill, landed mid-stream: five rounds past submission. *)
  let oc =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Serve.Chaos.drive ~pool ~kills:(kill_at 5) ~specs
          (Svc.create ~sconfig:tight ~pool ()))
  in
  Alcotest.(check int) "one recovery" 1
    (oc.Serve.Chaos.o_kills - oc.Serve.Chaos.o_failed_recoveries);
  Alcotest.(check int) "every reproducer completed" (List.length specs)
    (List.length oc.Serve.Chaos.o_done);
  check_done reference oc

(* ------------------------------------------------------------------ *)
(* Chaos campaign over the Bugbase: seeded kills, torn tails and
   corrupted checkpoints via the harness — every bug still completes,
   bit-identically, with zero failed recoveries. *)

let bugbase_chaos () =
  let specs = List.map (bugbase_spec ~faults:false) Bugbase.Registry.all in
  let reference = List.map (fun sp -> (sp.Svc.sp_name, D.one_shot sp)) specs in
  let rates =
    { Faults.Chaos.kill = 0.3; ckpt_corrupt = 0.3; torn_write = 0.3;
      poison = 0.0 }
  in
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let oc =
        Serve.Chaos.drive ~pool
          ~kills:(fun round -> Faults.Chaos.draw rates ~seed:7 ~round)
          ~specs
          (Svc.create ~sconfig:tight ~pool ())
      in
      Alcotest.(check bool) "the campaign killed the service" true
        (oc.Serve.Chaos.o_kills >= 1);
      (* A refusal is legal only when damage ate every checkpoint (the
         campaign then continues on the live object); it must stay
         bounded by the kills that carried damage. *)
      Alcotest.(check bool)
        (Printf.sprintf "refusals (%d) bounded by damaged kills (%d)"
           oc.Serve.Chaos.o_failed_recoveries
           (oc.Serve.Chaos.o_torn + oc.Serve.Chaos.o_corrupted))
        true
        (oc.Serve.Chaos.o_failed_recoveries
        <= oc.Serve.Chaos.o_torn + oc.Serve.Chaos.o_corrupted);
      Alcotest.(check int) "every bug completed" (List.length specs)
        (List.length oc.Serve.Chaos.o_done);
      check_done reference oc)

(* ------------------------------------------------------------------ *)
(* Journal codec and damage model. *)

(* An accepted and a refused submission (fresh-lane ticket and
   busy-rejected dispositions) and a drain. *)
let sample_records =
  [
    J.Submitted { id = 1; name = "pbzip2"; fp = 0; disp = 0 };
    J.Submitted { id = 2; name = "curl"; fp = 0x2BADF00D; disp = 4 };
    J.Round { round = 1; digest = 0x1234ABCD };
    J.Completed { id = 1; digest = 0x77FF0011 };
    J.Checkpoint { round = 1; state = "state bytes \x00\xff here" };
    J.Round { round = 2; digest = 42 };
    J.Drained { round = 2 };
  ]

(* A frame of the retired kind-1 submission record, as journals
   written before the one-record format hold it: the v1 framing
   around an (id, name, rejected) payload. *)
let kind1_frame =
  let frame =
    Hw.Codec.(
      sized_frame
        ~key:(fun kind -> [ 3; kind; 0; 1 ])
        (magic byte 0xA7 *> uint))
  in
  let buf = Buffer.create 32 in
  Hw.Codec.seal frame buf 1
    Hw.Codec.(encode (triple uint string bool) (1, "pbzip2", false));
  Buffer.contents buf

let journal_tests =
  [
    Alcotest.test_case "codec roundtrip" `Quick (fun () ->
        let j = J.create () in
        List.iter (J.append j) sample_records;
        let entries = J.load (J.contents j) in
        Alcotest.(check int) "all records back" (List.length sample_records)
          (List.length entries);
        List.iter2
          (fun r e ->
            match e with
            | J.Rec r' ->
              Alcotest.(check bool) "record equal" true (r = r')
            | J.Damaged { reason; _ } ->
              Alcotest.failf "record damaged: %s" reason)
          sample_records entries);
    Alcotest.test_case "any prefix is loadable; a torn tail truncates"
      `Quick (fun () ->
        let j = J.create () in
        List.iter (J.append j) sample_records;
        let bytes = J.contents j in
        (* Every tear length: load never raises, never fabricates. *)
        for n = 0 to String.length bytes do
          let entries = J.load (J.tear ~n bytes) in
          Alcotest.(check bool)
            (Printf.sprintf "tear %d: a prefix of the records" n)
            true
            (List.length entries <= List.length sample_records
            && List.for_all
                 (function J.Rec _ -> true | J.Damaged _ -> false)
                 entries)
        done;
        (* A one-byte tear must drop exactly the last record. *)
        Alcotest.(check int) "one-byte tear drops the tail record"
          (List.length sample_records - 1)
          (List.length (J.load (J.tear ~n:1 bytes))));
    Alcotest.test_case
      "a corrupted checkpoint degrades to Damaged; later records load"
      `Quick (fun () ->
        let j = J.create () in
        List.iter (J.append j) sample_records;
        let bytes =
          match J.corrupt_last_checkpoint ~salt:7 (J.contents j) with
          | Some b -> b
          | None -> Alcotest.fail "no checkpoint found to corrupt"
        in
        let entries = J.load bytes in
        Alcotest.(check int) "framing intact: every record accounted for"
          (List.length sample_records)
          (List.length entries);
        (match List.nth entries 4 with
         | J.Damaged { kind; _ } ->
           Alcotest.(check int) "the checkpoint is the damaged one" 4 kind
         | J.Rec _ -> Alcotest.fail "corrupted checkpoint loaded as intact");
        match List.nth entries 5 with
        | J.Rec (J.Round { round = 2; digest = 42 }) -> ()
        | _ -> Alcotest.fail "the record after the damage did not load");
    Alcotest.test_case "a retired kind-1 frame loads as Damaged" `Quick
      (fun () ->
        let j = J.create () in
        J.append j (J.Round { round = 1; digest = 7 });
        match J.load (kind1_frame ^ J.contents j) with
        | [ J.Damaged { kind = 1; reason = "unknown record kind" };
            J.Rec (J.Round { round = 1; digest = 7 }) ] ->
          ()
        | entries ->
          Alcotest.failf "%d entries, expected Damaged then the round"
            (List.length entries));
    Alcotest.test_case "file roundtrip" `Quick (fun () ->
        let j = J.create () in
        List.iter (J.append j) sample_records;
        let path = Filename.temp_file "journal" ".bin" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            J.save_file path (J.contents j);
            Alcotest.(check string) "bytes back" (J.contents j)
              (In_channel.with_open_bin path In_channel.input_all)));
  ]

(* ------------------------------------------------------------------ *)
(* Drain is a journaled input: submissions refused after
   [request_drain] replay as refusals, with triage on and off. *)

let drain_replay ~triage () =
  let specs =
    List.filteri (fun i _ -> i < 6) Bugbase.Registry.all
    |> List.map (bugbase_spec ~faults:false)
  in
  let svc = Svc.create ~sconfig:{ tight with Svc.triage } () in
  List.iteri
    (fun i sp ->
      if i = 3 then begin
        ignore (Svc.step svc : bool);
        Svc.request_drain svc
      end;
      match (Svc.submit svc sp, i < 3) with
      | Ok (Svc.Ticket _), true | Error (Svc.Busy _), false -> ()
      | _ -> Alcotest.failf "submission %d: unexpected admission decision" i)
    specs;
  ignore (Svc.step svc : bool);
  let resolve name =
    List.find_opt (fun (sp : Svc.spec) -> sp.Svc.sp_name = name) specs
  in
  match Svc.recover ~resolve (Svc.journal_bytes svc) with
  | Error e -> Alcotest.failf "recover: %s" (Svc.rerror_to_string e)
  | Ok recovered ->
    let live = Svc.stats svc and st = Svc.stats recovered in
    Alcotest.(check int) "no replay divergences" 0 st.Svc.st_divergences;
    Alcotest.(check int) "admitted" live.Svc.st_admitted st.Svc.st_admitted;
    Alcotest.(check int) "rejected" live.Svc.st_rejected st.Svc.st_rejected;
    Alcotest.(check bool) "recovered ledger = live ledger" true (st = live)

(* ------------------------------------------------------------------ *)
(* The completion audit digest covers every field the diagnosis
   differential compares: changing any one of them moves it. *)

let digest_covers_every_field () =
  let b = Option.get (Bugbase.Registry.find "Pbzip2") in
  let d = D.one_shot (bugbase_spec ~faults:true b) in
  let on_last f l =
    match List.rev l with
    | x :: tl -> List.rev (f x :: tl)
    | [] -> Alcotest.fail "empty list in the reference diagnosis"
  in
  let bump_last = on_last (fun (k, v) -> (k, v + 1)) in
  let trace f = { d with S.trace = on_last f d.S.trace } in
  let fleet f = { d with S.fleet = f d.S.fleet } in
  let variants =
    [
      ( "it_early_exit",
        trace (fun it ->
            {
              it with
              S.it_early_exit =
                (match it.S.it_early_exit with
                 | None -> Some S.Converged
                 | Some _ -> None);
            }) );
      ( "it_degraded",
        trace (fun it -> { it with S.it_degraded = not it.S.it_degraded }) );
      ( "it_quarantined",
        trace (fun it ->
            { it with S.it_quarantined = it.S.it_quarantined + 1 }) );
      ( "last f_by_kind entry",
        fleet (fun f -> { f with S.f_by_kind = bump_last f.S.f_by_kind }) );
      ( "last f_by_reason entry",
        fleet (fun f -> { f with S.f_by_reason = bump_last f.S.f_by_reason }) );
      ( "avg_overhead_pct",
        { d with S.avg_overhead_pct = Float.succ d.S.avg_overhead_pct } );
    ]
  in
  let base = Svc.diagnosis_digest d in
  List.iter
    (fun (what, d') ->
      Alcotest.(check bool)
        (what ^ " moves the digest")
        true
        (Svc.diagnosis_digest d' <> base))
    variants

(* ------------------------------------------------------------------ *)
(* Checkpoint corruption during recovery: the newest checkpoint is
   damaged, recovery falls back to an older one and replays further —
   every session still completes correctly. *)

let corrupted_checkpoint_fallback () =
  let specs = List.map small_spec [ "a"; "b"; "c" ] in
  let reference = List.map (fun sp -> (sp.Svc.sp_name, D.one_shot sp)) specs in
  let kills tick =
    if tick = 5 then { kill with Faults.Chaos.p_ckpt_corrupt = Some 3 }
    else Faults.Chaos.no_plan
  in
  let oc =
    Parallel.Pool.with_pool ~jobs:2 (fun pool ->
        let sconfig = { tight with Svc.checkpoint_every_rounds = 2 } in
        Serve.Chaos.drive ~pool ~kills ~specs (Svc.create ~sconfig ~pool ()))
  in
  Alcotest.(check int) "the newest checkpoint was corrupted" 1
    oc.Serve.Chaos.o_corrupted;
  Alcotest.(check int) "recovery fell back to an older checkpoint" 0
    oc.Serve.Chaos.o_failed_recoveries;
  Alcotest.(check int) "all three sessions completed" 3
    (List.length oc.Serve.Chaos.o_done);
  check_done reference oc

(* ------------------------------------------------------------------ *)
(* Driver regressions.  A triaging storm must terminate: a coalesced
   duplicate never completes under its own name, so "no completion"
   must not mean "resubmit".  A drain requested while specs are still
   waiting must end the drive: a [Busy] from an idle, draining service
   is final. *)

let storm_tweak (c : Gist.Config.t) =
  {
    c with
    Gist.Config.max_iterations = 2;
    max_clients_per_iter = 40;
    fail_quota = 2;
    succ_quota = 4;
  }

(* Storm duplicates are named "<bug>@<k>". *)
let bug_of name =
  match String.index_opt name '@' with
  | Some i -> String.sub name 0 i
  | None -> name

let driven_storm rates () =
  let specs =
    Serve.Stream.storm ~tweak:storm_tweak ~fuzz_count:4 ~seed:42 ~sessions:20
      ~dup_ratio:0.8 ()
  in
  let oc =
    Parallel.Pool.with_pool ~jobs:2 (fun pool ->
        Serve.Chaos.drive ~pool
          ~kills:(fun round -> Faults.Chaos.draw rates ~seed:42 ~round)
          ~specs
          (Svc.create ~sconfig:{ tight with Svc.triage = true } ~pool ()))
  in
  check_idle_ledger "storm" oc;
  let bugs names = List.sort_uniq compare (List.map bug_of names) in
  Alcotest.(check (list string))
    "every bug of the storm diagnosed"
    (bugs (List.map (fun (sp : Svc.spec) -> sp.Svc.sp_name) specs))
    (bugs (List.map fst oc.Serve.Chaos.o_done));
  let st = Svc.stats oc.Serve.Chaos.o_service in
  if Faults.Chaos.is_zero rates then begin
    Alcotest.(check int) "nothing resubmitted" 0 oc.Serve.Chaos.o_resubmitted;
    Alcotest.(check bool) "duplicates coalesced" true (st.Svc.st_coalesced > 0);
    Alcotest.(check int) "every ticket completed" st.Svc.st_admitted
      st.Svc.st_completed;
    Alcotest.(check int) "every ticketed name completed once"
      st.Svc.st_completed
      (List.length oc.Serve.Chaos.o_done)
  end
  else
    Alcotest.(check bool) "the campaign killed the service" true
      (oc.Serve.Chaos.o_kills >= 1)

let drain_mid_submission () =
  let specs = List.init 12 (fun i -> small_spec (Printf.sprintf "s%d" i)) in
  let sconfig = { tight with Svc.max_inflight = 2; max_queue = 2 } in
  let oc =
    Serve.Chaos.drive
      ~on_round:(fun tick svc -> if tick = 1 then Svc.request_drain svc)
      ~specs (Svc.create ~sconfig ())
  in
  check_idle_ledger "drain" oc;
  let st = Svc.stats oc.Serve.Chaos.o_service in
  Alcotest.(check int) "accepted before the drain" 2 st.Svc.st_admitted;
  Alcotest.(check int) "accepted sessions completed" 2
    (List.length oc.Serve.Chaos.o_done);
  Alcotest.(check int) "nothing resubmitted" 0 oc.Serve.Chaos.o_resubmitted;
  (* A [Busy] is retried only after a round ran, so beyond one
     submission per spec there is at most one per round. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d submissions within %d specs + %d rounds"
       st.Svc.st_submitted (List.length specs) st.Svc.st_rounds)
    true
    (st.Svc.st_submitted <= List.length specs + st.Svc.st_rounds)

(* What [gist_cli serve --journal] relies on: [drive] harvests every
   completion, so a checkpoint written after it is not refused and the
   saved journal ends in it. *)
let final_checkpoint () =
  let specs = List.init 4 (fun i -> small_spec (Printf.sprintf "s%d" i)) in
  let sconfig = { tight with Svc.checkpoint_every_rounds = 0 } in
  let svc =
    (Serve.Chaos.drive ~specs (Svc.create ~sconfig ())).Serve.Chaos.o_service
  in
  Alcotest.(check bool) "checkpoint written" true (Svc.checkpoint svc);
  match List.rev (J.load (Svc.journal_bytes svc)) with
  | J.Rec (J.Checkpoint _) :: _ -> ()
  | _ -> Alcotest.fail "the journal does not end in a checkpoint"

(* ------------------------------------------------------------------ *)
(* Blast-radius containment. *)

let containment_tests =
  [
    Alcotest.test_case
      "a poisoned session quarantines; the service survives" `Quick
      (fun () ->
        let rates = { Faults.Chaos.zero with Faults.Chaos.poison = 1.0 } in
        let poisoned =
          Serve.Chaos.poison_spec ~rates ~seed:9 (small_spec "poisoned")
        in
        let healthy = small_spec "healthy" in
        let svc = Svc.create ~sconfig:Svc.default () in
        ignore (Svc.submit svc poisoned);
        ignore (Svc.submit svc healthy);
        Svc.drain svc;
        let completions = Svc.take_completions svc in
        Alcotest.(check int) "both sessions completed" 2
          (List.length completions);
        List.iter
          (fun (c : Svc.completion) ->
            match (c.Svc.c_name, c.Svc.c_result) with
            | "poisoned", Error f ->
              Alcotest.(check string) "quarantined" "quarantined"
                (Svc.failure_reason_label f.Svc.sf_reason);
              Alcotest.(check int) "struck out"
                Svc.default.Svc.max_session_strikes f.Svc.sf_strikes
            | "poisoned", Ok _ ->
              Alcotest.fail "poisoned session produced a diagnosis"
            | "healthy", Ok _ -> ()
            | "healthy", Error f ->
              Alcotest.failf "healthy session failed: %s"
                (Svc.session_failure_to_string f)
            | name, _ -> Alcotest.failf "unexpected session %s" name)
          completions;
        let st = Svc.stats svc in
        Alcotest.(check int) "ledger balances across quarantine"
          st.Svc.st_submitted
          (st.Svc.st_completed + st.Svc.st_rejected);
        Alcotest.(check int) "the failure is booked" 1 st.Svc.st_failed);
    Alcotest.test_case
      "a session that fails at admission completes Crashed; the service \
       survives a kill"
      `Quick (fun () ->
        let good =
          bugbase_spec ~faults:false
            (Option.get (Bugbase.Registry.find "Apache-1"))
        in
        let bad =
          { good with
            Svc.sp_name = "bad";
            sp_config = { good.Svc.sp_config with Gist.Config.sigma0 = 0 } }
        in
        let specs = [ bad; good ] in
        let reference = D.one_shot good in
        let svc = Svc.create ~sconfig:tight () in
        List.iter (fun sp -> ignore (Svc.submit svc sp : _ result)) specs;
        (* The admission round, then the crash image a kill after it
           leaves behind. *)
        ignore (Svc.step svc : bool);
        let bytes = Svc.journal_bytes svc in
        Svc.drain svc;
        let summary svc =
          List.map
            (fun (c : Svc.completion) ->
              match c.Svc.c_result with
              | Ok d ->
                D.compare c.Svc.c_name reference d;
                (c.Svc.c_name, "ok " ^ string_of_int (Svc.diagnosis_digest d))
              | Error f ->
                Alcotest.(check string) "bad: crashed" "crashed"
                  (Svc.failure_reason_label f.Svc.sf_reason);
                Alcotest.(check int) "bad: no slots" 0 c.Svc.c_slots;
                (c.Svc.c_name, Svc.session_failure_to_string f))
            (Svc.completions svc)
        in
        let live = summary svc in
        Alcotest.(check (list string)) "both sessions completed"
          [ "bad"; good.Svc.sp_name ] (List.map fst live);
        let detail = List.assoc "bad" live in
        Alcotest.(check bool)
          ("config error in the detail: " ^ detail)
          true
          (Astring.String.is_infix ~affix:"sigma0" detail);
        let resolve name =
          List.find_opt (fun (sp : Svc.spec) -> sp.Svc.sp_name = name) specs
        in
        match Svc.recover ~resolve bytes with
        | Error e -> Alcotest.failf "recover: %s" (Svc.rerror_to_string e)
        | Ok recovered ->
          Svc.drain recovered;
          Alcotest.(check (list (pair string string)))
            "recovered completions = live completions" live
            (summary recovered);
          Alcotest.(check int) "no replay divergences" 0
            (Svc.stats recovered).Svc.st_divergences);
    Alcotest.test_case "deadline eviction books a typed timeout" `Quick
      (fun () ->
        (* One slot per round against a bug needing hundreds: the
           1-round deadline must evict. *)
        let sconfig =
          { Svc.default with
            Svc.quantum = 1; round_budget = 1; session_deadline_rounds = 1 }
        in
        let svc = Svc.create ~sconfig () in
        ignore (Svc.submit svc (small_spec "doomed"));
        Svc.drain svc;
        (match Svc.take_completions svc with
         | [ { Svc.c_result = Error f; _ } ] ->
           Alcotest.(check string) "timed out" "timed-out"
             (Svc.failure_reason_label f.Svc.sf_reason)
         | [ { Svc.c_result = Ok _; _ } ] ->
           Alcotest.fail "a 1-round deadline produced a diagnosis"
         | l -> Alcotest.failf "%d completions, expected 1" (List.length l));
        let st = Svc.stats svc in
        Alcotest.(check int) "ledger balances across eviction"
          st.Svc.st_submitted
          (st.Svc.st_completed + st.Svc.st_rejected));
    Alcotest.test_case "Busy carries the deterministic retry hint" `Quick
      (fun () ->
        let sconfig =
          { Svc.default with
            Svc.max_inflight = 1; max_queue = 4; quantum = 4;
            round_budget = 4 }
        in
        let svc = Svc.create ~sconfig () in
        for i = 1 to 4 do
          match Svc.submit svc (small_spec (string_of_int i)) with
          | Ok _ -> ()
          | Error _ -> Alcotest.failf "submit %d refused below the cap" i
        done;
        (match Svc.submit svc (small_spec "overflow") with
         | Error (Svc.Busy { queued = 4; retry_after_rounds; _ }) ->
           (* ceil(queued * quantum / round_budget) = ceil(16/4) = 4 *)
           Alcotest.(check int) "hint is the backlog depth in rounds" 4
             retry_after_rounds
         | Error (Svc.Busy { queued; _ }) ->
           Alcotest.failf "queued %d, expected 4" queued
         | Error (Svc.Shed _) -> Alcotest.fail "shed without triage"
         | Ok _ -> Alcotest.fail "submit accepted past the cap");
        Svc.drain svc;
        ignore (Svc.take_completions svc));
  ]

(* ------------------------------------------------------------------ *)
(* Session snapshot/restore. *)

let session_of (sp : Svc.spec) =
  S.Session.create ~config:sp.Svc.sp_config ~ingest:sp.Svc.sp_ingest
    ?oracle:sp.Svc.sp_oracle ~bug_name:sp.Svc.sp_name
    ~failure_type:sp.Svc.sp_failure_type ~program:sp.Svc.sp_program
    ~workload_of:sp.Svc.sp_workload_of ~failure:sp.Svc.sp_failure ()

let finish s =
  let rec loop () =
    match S.Session.need s with
    | S.Session.Finished -> S.Session.result s
    | S.Session.Slots n ->
      let thunks = S.Session.grant s (min 5 n) in
      S.Session.deliver s (Array.map (fun th -> th ()) thunks);
      loop ()
  in
  loop ()

(* Drive [cycles] grant/deliver exchanges, stopping early if the
   session finishes first; the session is quiescent on return. *)
let advance s cycles =
  let rec loop k =
    if k > 0 then
      match S.Session.need s with
      | S.Session.Finished -> ()
      | S.Session.Slots n ->
        let thunks = S.Session.grant s (min 5 n) in
        S.Session.deliver s (Array.map (fun th -> th ()) thunks);
        loop (k - 1)
  in
  loop cycles

let restore_of (sp : Svc.spec) bytes =
  S.Session.restore ~config:sp.Svc.sp_config ~ingest:sp.Svc.sp_ingest
    ?oracle:sp.Svc.sp_oracle ~bug_name:sp.Svc.sp_name
    ~failure_type:sp.Svc.sp_failure_type ~program:sp.Svc.sp_program
    ~workload_of:sp.Svc.sp_workload_of ~failure:sp.Svc.sp_failure bytes

let snapshot_tests =
  [
    Alcotest.test_case
      "a restored session is a bit-identical continuation" `Quick (fun () ->
        let sp = bugbase_spec ~faults:true (List.hd Bugbase.Registry.all) in
        let original = session_of sp in
        advance original 3;
        let bytes = S.Session.snapshot original in
        let restored =
          match restore_of sp bytes with
          | Ok s -> s
          | Error e ->
            Alcotest.failf "restore: %s" (S.Session.snapshot_error_to_string e)
        in
        D.compare "mid-flight snapshot" (finish original)
          (finish restored));
    Alcotest.test_case "typed refusals" `Quick (fun () ->
        let sp = bugbase_spec ~faults:false (List.hd Bugbase.Registry.all) in
        let s = session_of sp in
        advance s 2;
        let bytes = S.Session.snapshot s in
        (match restore_of sp (String.sub bytes 0 6) with
         | Error S.Session.Snapshot_truncated -> ()
         | Error e ->
           Alcotest.failf "truncated: %s"
             (S.Session.snapshot_error_to_string e)
         | Ok _ -> Alcotest.fail "truncated bytes restored");
        (let b = Bytes.of_string bytes in
         Bytes.set b 0 '\x00';
         match restore_of sp (Bytes.to_string b) with
         | Error S.Session.Snapshot_bad_magic -> ()
         | Error e ->
           Alcotest.failf "bad magic: %s"
             (S.Session.snapshot_error_to_string e)
         | Ok _ -> Alcotest.fail "wrong magic restored");
        (let b = Bytes.of_string bytes in
         let mid = Bytes.length b / 2 in
         Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
         match restore_of sp (Bytes.to_string b) with
         | Error S.Session.Snapshot_bad_digest -> ()
         | Error e ->
           Alcotest.failf "bad digest: %s"
             (S.Session.snapshot_error_to_string e)
         | Ok _ -> Alcotest.fail "bit-rotted bytes restored");
        match
          restore_of { sp with Svc.sp_name = "somebody else" } bytes
        with
        | Error (S.Session.Snapshot_mismatch _) -> ()
        | Error e ->
          Alcotest.failf "mismatch: %s"
            (S.Session.snapshot_error_to_string e)
        | Ok _ -> Alcotest.fail "bytes restored against the wrong spec");
    Alcotest.test_case "checkpoints are deterministic" `Slow (fun () ->
        let regime = { D.faults = Faults.Fault.spread 0.10; early_exit = true } in
        (* Quiescent points, in grant/deliver exchanges from create. *)
        let points = [ 2; 5; 9 ] in
        List.iter
          (fun (b : Bugbase.Common.t) ->
            let sp = Option.get ((D.bugbase_case b).D.spec regime) in
            let s = session_of sp in
            let snaps =
              List.fold_left
                (fun (at, acc) k ->
                  advance s (k - at);
                  if (S.Session.progress s).S.Session.p_finished then (k, acc)
                  else (k, (k, S.Session.snapshot s) :: acc))
                (0, []) points
              |> snd |> List.rev
            in
            if snaps = [] then
              Alcotest.failf "%s: finished before any point" b.name;
            let restored bytes =
              match restore_of sp bytes with
              | Ok s -> s
              | Error e ->
                Alcotest.failf "%s: restore: %s" b.name
                  (S.Session.snapshot_error_to_string e)
            in
            List.iter
              (fun (j, bj) ->
                Alcotest.(check string)
                  (Printf.sprintf "%s: snapshot (restore b) = b at %d" b.name j)
                  bj
                  (S.Session.snapshot (restored bj));
                List.iter
                  (fun (k, bk) ->
                    if j < k then begin
                      let r = restored bj in
                      advance r (k - j);
                      Alcotest.(check string)
                        (Printf.sprintf "%s: restored at %d, advanced to %d"
                           b.name j k)
                        bk (S.Session.snapshot r)
                    end)
                  snaps)
              snaps)
          Bugbase.Registry.all;
        Alcotest.(check string) "the golden journal is reproducible"
          (Tsupport.Golden.journal ()) (Tsupport.Golden.journal ()));
    Alcotest.test_case "snapshot is refused mid-grant and when done" `Quick
      (fun () ->
        let sp = bugbase_spec ~faults:false (List.hd Bugbase.Registry.all) in
        let s = session_of sp in
        (match S.Session.need s with
         | S.Session.Slots n ->
           let thunks = S.Session.grant s (min 2 n) in
           (match S.Session.snapshot s with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "snapshot mid-grant accepted");
           S.Session.deliver s (Array.map (fun th -> th ()) thunks)
         | S.Session.Finished -> Alcotest.fail "finished before any grant");
        ignore (finish s);
        match S.Session.snapshot s with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "snapshot after Finished accepted");
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "recover"
    [
      ( "bugbase-kills",
        [
          Alcotest.test_case "kill at every round, jobs 1" `Slow
            (fun () ->
              kill_differential ~jobs:1 ~faults:false
                (List.map (bugbase_spec ~faults:false) Bugbase.Registry.all)
                ());
          Alcotest.test_case "kill at every round, jobs 4" `Slow
            (fun () ->
              kill_differential ~jobs:4 ~faults:false
                (List.map (bugbase_spec ~faults:false) Bugbase.Registry.all)
                ());
          Alcotest.test_case "kill at every round, 10% faults, jobs 4" `Slow
            (fun () ->
              kill_differential ~jobs:4 ~faults:true
                (List.map (bugbase_spec ~faults:true) Bugbase.Registry.all)
                ());
        ] );
      ( "fuzz-kills",
        [
          Alcotest.test_case "50 generated bugs, kill at every round" `Slow
            (fun () ->
              kill_differential ~jobs:4 ~faults:false (fuzz_specs ~faults:false)
                ());
          Alcotest.test_case
            "50 generated bugs, 10% faults, kill at every round, jobs 1"
            `Slow
            (fun () ->
              kill_differential ~jobs:1 ~faults:true (fuzz_specs ~faults:true)
                ());
        ] );
      ( "corpus",
        [
          Alcotest.test_case "corpus replay through a recovery" `Slow
            corpus_through_recovery;
        ] );
      ( "chaos",
        [ Alcotest.test_case "seeded chaos over the Bugbase" `Slow
            bugbase_chaos ] );
      ( "driver",
        [
          Alcotest.test_case "a triaging storm terminates, zero rates" `Quick
            (driven_storm Faults.Chaos.zero);
          Alcotest.test_case "a triaging storm terminates, 20% chaos" `Quick
            (driven_storm (Faults.Chaos.spread 0.2));
          Alcotest.test_case "a drain mid-submission ends the drive" `Quick
            drain_mid_submission;
          Alcotest.test_case
            "a drained service ends its journal in a checkpoint" `Quick
            final_checkpoint;
        ] );
      ("journal", journal_tests);
      ( "fallback",
        [
          Alcotest.test_case "corrupted checkpoint falls back and replays"
            `Quick corrupted_checkpoint_fallback;
        ] );
      ( "drain",
        [
          Alcotest.test_case "a drain replays as a drain, triage off" `Quick
            (drain_replay ~triage:false);
          Alcotest.test_case "a drain replays as a drain, triage on" `Quick
            (drain_replay ~triage:true);
        ] );
      ( "digest",
        [
          Alcotest.test_case "the completion digest covers every field" `Quick
            digest_covers_every_field;
        ] );
      ("containment", containment_tests);
      ("snapshot", snapshot_tests);
    ]
