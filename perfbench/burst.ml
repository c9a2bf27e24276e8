(* Workloads [serve] and [storm]: a burst of sessions submitted at
   t = 0 to one journaled [Serve.Service], stepped round by round with
   every completion harvested as it appears, so each session's time to
   diagnosis counts from the burst.  [storm] also kills the service at
   a fixed round — its journal bytes are the crash image — rebuilds it
   with [Service.recover] and drains the recovered service. *)

open Common

(* [serve]: the Bugbase bugs recur — every diagnosable one arrives
   [serve_rounds] times — among [serve_fuzz] one-off seeded fuzz bugs,
   all under the stream's 10% fleet-fault regime, named "<bug>#<k>"
   like [Serve.Stream.mixed].  Arrivals come in [serve_rounds] rounds,
   each a seeded permutation of the Bugbase plus its share of the fuzz
   bugs.

   [Stream.mixed] draws with replacement from 8 fuzz bugs; across
   five seeds that moved runs per diagnosis by 16% and client overhead
   by 27%, more than any regression bound allows.  Here the seed still
   chooses the fuzz programs, the arrival order and the fault draws,
   but the recurring Bugbase bugs, whose cost does not depend on the
   seed, carry most of the work, and the rounds keep the cumulative
   work at each arrival position near the same for every seed. *)
let serve_rounds = 6
let serve_fuzz = 39

let serve_specs ~seed =
  let faults = (Serve.Stream.default_fault_rates, seed) in
  let bugbase =
    List.filter_map
      (fun (b : Bugbase.Common.t) ->
        Serve.Stream.bugbase_spec ~faults ~name:b.name b)
      Bugbase.Registry.all
  in
  let fuzz =
    List.filter_map
      (fun (c : Fuzz.Gen.case) ->
        let sp = Serve.Stream.fuzz_spec ~faults ~name:c.Fuzz.Gen.c_name c in
        setup_mark ();
        sp)
      (Fuzz.Runner.cases ~seed ~count:serve_fuzz ())
  in
  let rng = Exec.Rng.create seed in
  let rounds =
    List.init serve_rounds (fun r ->
        shuffle rng (bugbase @ List.filteri (fun i _ -> i mod serve_rounds = r) fuzz))
  in
  let sessions =
    List.mapi
      (fun k (sp : Svc.spec) ->
        { sp with Svc.sp_name = Printf.sprintf "%s#%d" sp.sp_name k })
      (List.concat rounds)
  in
  (bugbase @ fuzz, sessions)

(* [storm]: [Serve.Stream.storm] at 80% duplicates. *)
let storm_sessions = 200
let storm_dup_ratio = 0.8

(* Kill round: checkpoints land every [checkpoint_every_rounds] = 8
   rounds once completions are harvested, so round 29 restores the
   round-24 checkpoint and replays a five-round tail. *)
let storm_kill_round = 29

(* Storm duplicates are named "<bug>@<k>"; fresh traffic keeps the
   base bug's own name. *)
let storm_base name =
  match String.rindex_opt name '@' with
  | Some i -> String.sub name 0 i
  | None -> name

let digest_of_result = function
  | Ok d -> signature d
  | Error f -> "error:" ^ Svc.session_failure_to_string f

(* Rounds journaled after the newest checkpoint of a crash image: what
   recovery replays. *)
let replayed_rounds image =
  List.fold_left
    (fun rounds e ->
      match e with
      | Serve.Journal.Rec (Serve.Journal.Checkpoint _) -> 0
      | Serve.Journal.Rec (Serve.Journal.Round _) -> rounds + 1
      | _ -> rounds)
    0 (Serve.Journal.load image)

(* One burst.  [kill_round]: kill after that many rounds and recover
   from the journal bytes; [None] drains uninterrupted.  Fresh
   traffic is the sessions whose bug the burst reports only once: the
   never-seen bugs among the storm's (or the recurring Bugbase's)
   duplicates. *)
let burst ~pool ~sconfig ~kill_round ~base_of ~resolve ~reference specs () =
  measure (fun () ->
      let a = acc () in
      let svc = Svc.create ~sconfig ~pool () in
      (* Ticket id -> result digest: recovery replays the rounds after
         its checkpoint, re-delivering completions already harvested;
         each must equal the original. *)
      let seen = Hashtbl.create 256 in
      let reports = Hashtbl.create 64 in
      List.iter
        (fun (sp : Svc.spec) ->
          let base = base_of sp.sp_name in
          Hashtbl.replace reports base
            (1 + Option.value ~default:0 (Hashtbl.find_opt reports base)))
        specs;
      let one_off name = Hashtbl.find_opt reports (base_of name) = Some 1 in
      let t0 = Stat.now () in
      op a (fun () ->
          List.iter
            (fun (sp : Svc.spec) ->
              a.attempted <- a.attempted + 1;
              match Spans.run "service.submit" (fun () -> Svc.submit svc sp) with
              | Ok (Svc.Ticket _) -> ()
              | Ok (Svc.Coalesced _) -> a.coalesced <- a.coalesced + 1
              | Error r ->
                problem a "%s: submission refused: %s" sp.sp_name
                  (Svc.sreject_to_string r))
            specs);
      (* Completions harvested after an operation were answered by it;
         their time to diagnosis runs from the burst's first operation. *)
      let harvest svc =
        let cs = Spans.run "service.take_completions" (fun () -> Svc.take_completions svc) in
        List.iter
          (fun (c : Svc.completion) ->
            let dg = digest_of_result c.c_result in
            match Hashtbl.find_opt seen c.c_id with
            | Some prev ->
              if prev <> dg then
                problem a "%s: replayed completion differs from the original" c.c_name
            | None -> (
              Hashtbl.replace seen c.c_id dg;
              a.answered_at <- (0, a.n_ops - 1, one_off c.c_name) :: a.answered_at;
              match c.c_result with
              | Ok d -> book a ~reference ~base:(base_of c.c_name) ~name:c.c_name d
              | Error f ->
                problem a "%s: %s" c.c_name (Svc.session_failure_to_string f)))
          cs
      in
      (* Step and harvest until the service is idle or [steps] rounds
         have run. *)
      let rec drive svc ~steps =
        if steps > 0 && op a (fun () -> Spans.run "service.step" (fun () -> Svc.step svc))
        then begin
          harvest svc;
          drive svc ~steps:(steps - 1)
        end
        else harvest svc
      in
      let recover image =
        let r0 = Stat.now () in
        match Spans.run "service.recover" (fun () -> Svc.recover ~pool ~resolve image) with
        | Ok recovered -> Some (recovered, Stat.now () -. r0)
        | Error e ->
          problem a "recover refused: %s" (Svc.rerror_to_string e);
          None
      in
      (* Checkpoints written before the kill; the recovered service
         counts its own from zero. *)
      let killed_checkpoints = ref 0 in
      let final, recover_s, image =
        match kill_round with
        | None ->
          drive svc ~steps:max_int;
          (svc, 0.0, Svc.journal_bytes svc)
        | Some k -> (
          drive svc ~steps:k;
          let image = Spans.run "service.journal_bytes" (fun () -> Svc.journal_bytes svc) in
          killed_checkpoints := (Svc.stats svc).Svc.st_checkpoints;
          match op a (fun () -> recover image) with
          | Some (recovered, dt) ->
            drive recovered ~steps:max_int;
            (recovered, dt, image)
          | None ->
            drive svc ~steps:max_int;
            (svc, 0.0, image))
      in
      let wall = Stat.now () -. t0 in
      let st = Svc.stats final in
      if
        st.st_submitted
        <> st.st_completed + st.st_rejected + st.st_coalesced + st.st_shed
        || Svc.inflight final <> 0
        || Svc.queued final <> 0
      then
        problem a
          "ledger does not balance: %d submitted, %d completed, %d rejected, \
           %d coalesced, %d shed, %d in flight, %d queued"
          st.st_submitted st.st_completed st.st_rejected st.st_coalesced
          st.st_shed (Svc.inflight final) (Svc.queued final);
      if st.st_completed <> Hashtbl.length seen then
        problem a "%d completions booked but %d distinct tickets harvested"
          st.st_completed (Hashtbl.length seen);
      if st.st_coalesced <> a.coalesced then
        problem a "%d coalesced at submission but %d in the ledger" a.coalesced
          st.st_coalesced;
      if st.st_divergences <> 0 then
        problem a "%d recovery divergences" st.st_divergences;
      let checkpoints = !killed_checkpoints + st.st_checkpoints in
      let replayed = replayed_rounds image in
      let counts =
        [
          ("rounds", st.st_rounds);
          ("journal_bytes", String.length image);
          ("journal_checkpoints", checkpoints);
          ("service_slots", st.st_slots);
        ]
        @ if kill_round = None then [] else [ ("replayed_rounds", replayed) ]
      in
      let f = float_of_int in
      let layer =
        [
          ("server.slots_granted", f st.st_slots);
          ("service.rounds", f st.st_rounds);
          ("service.slots_per_round", Stat.ratio (f st.st_slots) (f st.st_rounds));
          ("service.max_wait_rounds", f st.st_max_wait_rounds);
          ("service.peak_inflight", f st.st_peak_inflight);
          ("journal.bytes", f (String.length image));
          ("journal.checkpoints", f checkpoints);
          ("recover.divergences", f st.st_divergences);
          ("triage.dedup_ratio", Stat.ratio (f st.st_coalesced) (f st.st_submitted));
          ("triage.clusters", f st.st_clusters);
          ("triage.recur_admitted", f st.st_recur_admitted);
        ]
        @
        if kill_round = None then []
        else [ ("recover.replayed_rounds", f replayed) ]
      in
      (t0, wall, a, recover_s, counts, layer))

let prepare_with ~pool ~sconfig ~kill_round ~base_of ~base sessions =
  let reference = Hashtbl.create 64 in
  let by_name = Hashtbl.create 256 in
  List.iter (fun (sp : Svc.spec) -> Hashtbl.replace by_name sp.sp_name sp) sessions;
  let resolve name = Hashtbl.find_opt by_name name in
  (* The service a user opens before the first submission; each
     repetition opens its own. *)
  ignore (Svc.create ~sconfig ~pool ());
  let rep = burst ~pool ~sconfig ~kill_round ~base_of ~resolve ~reference sessions in
  {
    reference = (fun () -> reference_pass reference base);
    rep;
    traced_rep = rep;
    aux = Some (traced_one_shots ~pool ~reference base);
    probe_specs = base;
  }

let prepare_serve ~seed ~pool =
  let base, sessions = serve_specs ~seed in
  let base_of name =
    match String.rindex_opt name '#' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let sconfig = { Svc.default with Svc.max_queue = List.length sessions } in
  prepare_with ~pool ~sconfig ~kill_round:None ~base_of ~base sessions

let prepare_storm ~seed ~pool =
  let sessions =
    Serve.Stream.storm ~seed ~sessions:storm_sessions ~dup_ratio:storm_dup_ratio ()
  in
  (* Distinct base bugs under their own names, for the reference. *)
  let base =
    List.fold_left
      (fun acc (sp : Svc.spec) ->
        let name = storm_base sp.sp_name in
        if List.exists (fun (b : Svc.spec) -> b.sp_name = name) acc then acc
        else { sp with Svc.sp_name = name } :: acc)
      [] sessions
    |> List.rev
  in
  let sconfig =
    { Svc.default with Svc.max_queue = storm_sessions; triage = true }
  in
  prepare_with ~pool ~sconfig ~kill_round:(Some storm_kill_round)
    ~base_of:storm_base ~base sessions
