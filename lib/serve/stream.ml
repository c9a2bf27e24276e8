(* Synthetic report-stream replay: session specs for the service,
   drawn from the two bug populations the repo ships — the Bugbase
   (Table 1) entries, recycled under distinct session names, and
   fuzz-generated labelled bugs.

   A stream is a pure function of its seed: the per-bug failure
   reports are found once per distinct bug (memoised), and the
   seeded mix only permutes which bug each session replays, so a
   stream replays bit-identically whatever the pool size. *)

let default_fault_rates = Faults.Fault.spread 0.10

(* Per-bug target failures, found once (each probe is thousands of
   unmonitored runs — recycling sessions must not repay it). *)
let bugbase_failures : (string, Exec.Failure.report option) Hashtbl.t =
  Hashtbl.create 16

let failure_of (bug : Bugbase.Common.t) =
  match Hashtbl.find_opt bugbase_failures bug.name with
  | Some f -> f
  | None ->
    let f =
      Option.map snd (Bugbase.Common.find_target_failure bug)
    in
    Hashtbl.add bugbase_failures bug.name f;
    f

let bugbase_spec ?(early_exit = true) ?faults ?(tweak = Fun.id) ~name
    (bug : Bugbase.Common.t) =
  match failure_of bug with
  | None -> None
  | Some failure ->
    let config =
      {
        Gist.Config.default with
        Gist.Config.preempt_prob = bug.preempt_prob;
        early_exit;
      }
    in
    let config =
      match faults with
      | None -> config
      | Some (rates, fault_seed) ->
        { config with Gist.Config.fault_rates = rates; fault_seed }
    in
    Some
      {
        Service.sp_name = name;
        sp_failure_type = bug.failure_type;
        sp_config = tweak config;
        sp_ingest = Gist.Server.Streaming;
        sp_oracle = None; (* unattended production: no developer in the loop *)
        sp_program = bug.program;
        sp_workload_of = bug.workload_of;
        sp_failure = failure;
        sp_case = None;
      }

(* A diagnosable fuzz case's spec: the campaign's bounded fleet
   configuration and the case's own fault environment when stamped. *)
let case_spec ?(early_exit = true) ?(tweak = Fun.id) ?oracle ~name
    (case : Fuzz.Gen.case) failure =
  {
    Service.sp_name = name;
    sp_failure_type = Exec.Failure.kind_to_string failure.Exec.Failure.kind;
    sp_config =
      tweak { (Fuzz.Check.config_of case) with Gist.Config.early_exit };
    sp_ingest = Gist.Server.Streaming;
    sp_oracle = oracle;
    sp_program = case.Fuzz.Gen.c_program;
    sp_workload_of = Fuzz.Gen.workload_of case;
    sp_failure = failure;
    sp_case = Some case;
  }

(* [None] when the case is not diagnosable: the target failure never
   manifests in the probe window. *)
let fuzz_spec ?early_exit ?faults ?tweak ~name (case : Fuzz.Gen.case) =
  let case =
    match faults with
    | None -> case
    | Some _ -> { case with Fuzz.Gen.c_faults = faults }
  in
  match Fuzz.Check.prepare case with
  | Fuzz.Check.Decided _ -> None
  | Fuzz.Check.Diagnose failure ->
    Some (case_spec ?early_exit ?tweak ~name case failure)

(* The shared base population: all diagnosable Bugbase bugs plus
   [fuzz_count] fuzz cases. *)
let base_population ~early_exit ?faults ~tweak ~seed ~fuzz_count () =
  List.filter_map
    (fun (bug : Bugbase.Common.t) ->
      bugbase_spec ~early_exit ?faults ~tweak ~name:bug.name bug)
    Bugbase.Registry.all
  @ List.filter_map
      (fun (case : Fuzz.Gen.case) ->
        fuzz_spec ~early_exit ?faults ~tweak ~name:case.Fuzz.Gen.c_name case)
      (Fuzz.Runner.cases ~seed ~count:fuzz_count ())

(* [mixed ~seed ~sessions ()] — [sessions] session specs drawn from a
   base population of all diagnosable Bugbase bugs plus [fuzz_count]
   fuzz cases, in a seeded deterministic shuffle; session [k] recycles
   base bug [i] under the name "<bug>#<k>". *)
let mixed ?(early_exit = true) ?faults ?(tweak = Fun.id) ?(fuzz_count = 8)
    ~seed ~sessions () =
  let base = base_population ~early_exit ?faults ~tweak ~seed ~fuzz_count () in
  if base = [] then []
  else begin
    let arr = Array.of_list base in
    let rng = Exec.Rng.create seed in
    List.init sessions (fun k ->
        let sp = arr.(Exec.Rng.int rng (Array.length arr)) in
        { sp with Service.sp_name = Printf.sprintf "%s#%d" sp.Service.sp_name k })
  end

(* [storm ~seed ~sessions ~dup_ratio ()] — a duplicate-heavy stream:
   a seeded [hot] subset of the base population storms (each of its
   sessions re-reports one hot bug under a fresh name), while the
   remaining, never-repeated base bugs trickle in as the fresh
   traffic.  Roughly [dup_ratio] of the sessions are storm
   duplicates; the exact mix is a pure function of the seed.  When
   the fresh population runs dry the stream falls back to hot
   duplicates, so a long storm degrades to pure recurrence rather
   than inventing new bugs. *)
let storm ?(early_exit = true) ?faults ?(tweak = Fun.id) ?(fuzz_count = 24)
    ?(hot = 4) ~seed ~sessions ~dup_ratio () =
  let base = base_population ~early_exit ?faults ~tweak ~seed ~fuzz_count () in
  if base = [] then []
  else begin
    let arr = Array.of_list base in
    let n = Array.length arr in
    let rng = Exec.Rng.create seed in
    (* Seeded hot-set pick: [hot] distinct indices. *)
    let hot_n = max 1 (min hot n) in
    let hot_idx = Array.make hot_n 0 in
    let taken = Hashtbl.create hot_n in
    for i = 0 to hot_n - 1 do
      let rec draw () =
        let j = Exec.Rng.int rng n in
        if Hashtbl.mem taken j then draw () else j
      in
      let j = draw () in
      Hashtbl.replace taken j ();
      hot_idx.(i) <- j
    done;
    let fresh = ref (List.filteri (fun j _ -> not (Hashtbl.mem taken j)) (Array.to_list arr)) in
    List.init sessions (fun k ->
        let dup = Exec.Rng.float rng < dup_ratio in
        match (dup, !fresh) with
        | false, sp :: rest ->
          fresh := rest;
          (* Fresh traffic keeps its own name: one session per distinct
             bug, like a first report from the field. *)
          sp
        | true, _ | false, [] ->
          let sp = arr.(hot_idx.(Exec.Rng.int rng hot_n)) in
          {
            sp with
            Service.sp_name = Printf.sprintf "%s@%d" sp.Service.sp_name k;
          })
  end
