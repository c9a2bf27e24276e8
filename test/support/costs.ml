(* The deterministic cost ledger (test/golden/costs.tsv).

   One line per Bugbase bug at its first-iteration plan (the plan
   [Server.Session.create] arms), summed over a fixed set of clients:
   the steps run, the minor words four layers of a fleet slot allocate
   (the bare interpreter run, the run under [Instrument.Runtime.hooks],
   [Client.run_one], and encode plus ingest), the PT packets and ring
   bytes the hooked run records, the envelope bytes, and the plan id.

   Allocation and bytes are deterministic for a given compiler and
   build profile, so the ledger gates them by exact equality where
   wall time could not carry a gate.  The header names the compiler
   version and the profile the ledger was produced under; a toolchain
   change shows up as a changed header line. *)

module S = Gist.Server

let clients = 16

(* Everything one bug's slots share: the spec and its first-iteration
   plan, the plan id, the watchpoint rotation groups and the iid
   bound. *)
type bug = {
  spec : Serve.Service.spec;
  plan : Instrument.Plan.t;
  plan_id : int;
  groups : Ir.Types.iid list array;
  n_instrs : int;
}

let first_plan (b : Bugbase.Common.t) =
  Option.map
    (fun (spec : Serve.Service.spec) ->
      let config = spec.sp_config and program = spec.sp_program in
      let tracked =
        List.sort_uniq compare
          (Slicing.Slicer.take
             (Slicing.Slicer.compute program spec.sp_failure)
             config.Gist.Config.sigma0)
      in
      let plan =
        Instrument.Place.compute ~enable_cf:config.enable_cf
          ~enable_df:config.enable_df program tracked
      in
      let groups =
        Array.of_list
          (S.wp_groups ~wp_capacity:config.wp_capacity
             plan.Instrument.Plan.wp_targets)
      in
      let n_instrs =
        1
        + List.fold_left
            (fun m (i : Ir.Types.instr) -> max m i.iid)
            0
            (Ir.Program.all_instrs program)
      in
      { spec; plan; plan_id = Instrument.Plan.id plan; groups; n_instrs })
    (Serve.Stream.bugbase_spec ~name:b.name b)

(* The bugs with a reproducible target failure, in registry order. *)
let bugs = lazy (List.filter_map first_plan Bugbase.Registry.all)

(* Minor words [f] allocates on this domain, and its result. *)
let words f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

let bare_run b c =
  let config = b.spec.sp_config in
  Exec.Interp.run ~preempt_prob:config.Gist.Config.preempt_prob
    ~max_steps:config.max_steps b.spec.sp_program (b.spec.sp_workload_of c)

(* Client [c]'s share of the watchpoint rotation. *)
let wp_allowed b c = b.groups.(c mod Array.length b.groups)

(* The run [Client.run_one] makes, under hooks built beforehand so
   the measured words are the run's alone.  Returns the recorder. *)
let hooked_run b c =
  let config = b.spec.sp_config in
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let wp = Hw.Watchpoint.create ~capacity:config.Gist.Config.wp_capacity counters in
  let hooks =
    Instrument.Runtime.hooks ~data_via_pt:false ~plan:b.plan ~pt ~wp
      ~wp_allowed:(wp_allowed b c)
  in
  let w, _ =
    words (fun () ->
        Exec.Interp.run ~hooks ~counters ~preempt_prob:config.preempt_prob
          ~max_steps:config.max_steps b.spec.sp_program
          (b.spec.sp_workload_of c))
  in
  Hw.Pt.finish pt;
  (w, counters, pt)

let run_one b c =
  let config = b.spec.sp_config in
  Gist.Client.run_one ~wp_capacity:config.Gist.Config.wp_capacity
    ~preempt_prob:config.preempt_prob ~max_steps:config.max_steps
    ~data_source:config.data_source ~redact:config.redact_values ~plan:b.plan
    ~wp_allowed:(wp_allowed b c) b.spec.sp_program (b.spec.sp_workload_of c)

type line = {
  steps : int;
  bare_w : float;
  hooked_w : float;
  run_one_w : float;
  wire_w : float;
  pt_packets : int;
  ring_bytes : int;
  envelope_bytes : int;
}

let measure b =
  let arena = Gist.Protocol.Encode.arena () in
  let slot c =
    let bare_w, res = words (fun () -> bare_run b c) in
    let hooked_w, counters, pt = hooked_run b c in
    let ring_bytes =
      List.fold_left
        (fun acc tid -> acc + String.length (Hw.Pt.wire_of pt tid))
        0 (Hw.Pt.all_tids pt)
    in
    let run_one_w, report = words (fun () -> run_one b c) in
    let wire_w, bytes =
      words (fun () ->
          let bytes =
            Gist.Protocol.Encode.encode arena ~client:c ~plan_id:b.plan_id
              report
          in
          ignore
            (Gist.Protocol.Encode.ingest ~n_instrs:b.n_instrs
               ~plan_id:b.plan_id bytes);
          bytes)
    in
    {
      steps = res.Exec.Interp.steps;
      bare_w;
      hooked_w;
      run_one_w;
      wire_w;
      pt_packets = counters.Exec.Cost.pt_packets;
      ring_bytes;
      envelope_bytes = String.length bytes;
    }
  in
  (* One unmeasured slot first: it lowers the program into the cache,
     moves it to the front of the cache's list and grows the encode
     arena, so each measured slot pays only what every fleet slot
     pays. *)
  ignore (slot 0);
  let add a l =
    {
      steps = a.steps + l.steps;
      bare_w = a.bare_w +. l.bare_w;
      hooked_w = a.hooked_w +. l.hooked_w;
      run_one_w = a.run_one_w +. l.run_one_w;
      wire_w = a.wire_w +. l.wire_w;
      pt_packets = a.pt_packets + l.pt_packets;
      ring_bytes = a.ring_bytes + l.ring_bytes;
      envelope_bytes = a.envelope_bytes + l.envelope_bytes;
    }
  in
  let zero =
    {
      steps = 0; bare_w = 0.; hooked_w = 0.; run_one_w = 0.; wire_w = 0.;
      pt_packets = 0; ring_bytes = 0; envelope_bytes = 0;
    }
  in
  List.fold_left add zero (List.init clients slot)

let header =
  [
    Printf.sprintf "# costs: ocaml %s, profile %s, %d clients per bug"
      Sys.ocaml_version Build_profile.name clients;
    "# bug\tsteps\tbare_words\thooked_words\trun_one_words\twire_words\t\
     pt_packets\tring_bytes\tenvelope_bytes\tplan_id";
  ]

let ledger () =
  header
  @ List.map
      (fun b ->
        let l = measure b in
        Printf.sprintf "%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\t%d\t%x"
          b.spec.sp_name l.steps l.bare_w l.hooked_w l.run_one_w l.wire_w
          l.pt_packets l.ring_bytes l.envelope_bytes b.plan_id)
      (Lazy.force bugs)

let to_string lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)
