(* The slot-path probe of the traced run: each layer a fleet slot
   passes through, timed call by call on the workload's own distinct
   bugs at their first-iteration plan (the plan [Session.create]
   arms), plus the offline calls that build that plan.  Reported as
   per-call medians.  The probe runs after the traced repetition and
   is not part of its wall time. *)

open Common

(* Clients per bug; capped bug count keeps the probe to a few seconds
   on the largest workload. *)
let clients = 24
let max_bugs = 40

let run specs =
  let samples = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))
  in
  let time name f =
    let t0 = Stat.now () in
    let r = f () in
    add name (Stat.now () -. t0);
    r
  in
  let arena = Gist.Protocol.Encode.arena () in
  List.iteri
    (fun i (sp : Svc.spec) ->
      if i < max_bugs then begin
        let config = sp.sp_config in
        let program = sp.sp_program and failure = sp.sp_failure in
        Analysis.Cache.clear ();
        let slice =
          time "slicing.compute" (fun () -> Slicing.Slicer.compute program failure)
        in
        let tracked =
          List.sort_uniq compare (Slicing.Slicer.take slice config.Gist.Config.sigma0)
        in
        let place () =
          Instrument.Place.compute ~enable_cf:config.enable_cf
            ~enable_df:config.enable_df program tracked
        in
        Analysis.Cache.clear ();
        ignore (time "instrument.place_cold" place);
        let plan = time "instrument.place_warm" place in
        ignore
          (time "triage.fingerprint" (fun () ->
               Fsketch.Fingerprint.compute program failure));
        let groups =
          Array.of_list
            (S.wp_groups ~wp_capacity:config.wp_capacity
               plan.Instrument.Plan.wp_targets)
        in
        let plan_id = Instrument.Plan.id plan in
        let n_instrs =
          1
          + List.fold_left
              (fun m (ins : Ir.Types.instr) -> max m ins.iid)
              0
              (Ir.Program.all_instrs program)
        in
        let target = Exec.Failure.signature failure in
        let acc = Predict.Stats.Acc.create () in
        for c = 0 to clients - 1 do
          let w = sp.sp_workload_of c in
          ignore
            (time "exec.interp_run" (fun () ->
                 Exec.Interp.run ~preempt_prob:config.preempt_prob
                   ~max_steps:config.max_steps program w));
          let report =
            time "client.run_one" (fun () ->
                Gist.Client.run_one ~wp_capacity:config.wp_capacity
                  ~preempt_prob:config.preempt_prob ~max_steps:config.max_steps
                  ~data_source:config.data_source ~redact:config.redact_values
                  ~plan ~wp_allowed:groups.(c mod Array.length groups) program w)
          in
          let bytes =
            time "protocol.encode" (fun () ->
                Gist.Protocol.Encode.encode arena ~client:c ~plan_id report)
          in
          add "protocol.bytes" (float_of_int (String.length bytes));
          match
            time "protocol.ingest" (fun () ->
                Gist.Protocol.Encode.ingest ~n_instrs ~plan_id bytes)
          with
          | Error _ -> ()
          | Ok r ->
            let predictors =
              time "predict.of_run" (fun () ->
                  Predict.Predictor.of_run ~ranges:config.range_predicates
                    ~tracked ~branch_outcomes:r.Gist.Client.r_branches
                    ~traps:r.Gist.Client.r_traps ())
            in
            let failing = r.Gist.Client.r_signature = Some target in
            time "predict.acc_add" (fun () ->
                Predict.Stats.Acc.add acc { Predict.Stats.predictors; failing })
        done;
        ignore
          (time "predict.separated" (fun () ->
               Predict.Stats.Acc.separated ~delta:config.separation_delta acc));
        ignore (time "predict.rank" (fun () -> Predict.Stats.Acc.rank acc))
      end)
    specs;
  let med name =
    Stat.median (Option.value ~default:[] (Hashtbl.find_opt samples name))
  in
  let us name = med name *. 1e6 in
  [
    ("exec.interp_run_us", us "exec.interp_run");
    ("client.run_one_us", us "client.run_one");
    ("protocol.encode_us", us "protocol.encode");
    ("protocol.ingest_us", us "protocol.ingest");
    ("protocol.bytes_per_report", med "protocol.bytes");
    ("predict.of_run_us", us "predict.of_run");
    ("predict.acc_add_us", us "predict.acc_add");
    ("predict.separated_us", us "predict.separated");
    ("predict.rank_us", us "predict.rank");
    ("slicing.compute_us", us "slicing.compute");
    ("instrument.place_cold_us", us "instrument.place_cold");
    ("instrument.place_warm_us", us "instrument.place_warm");
    ("triage.fingerprint_us", us "triage.fingerprint");
  ]
