(* §5.3 headline numbers: Gist's average overhead (paper: 3.74% at
   sigma_0 = 2), the control-flow vs data-flow overhead split (paper:
   CF 2.01-3.43%, DF 0.87-1.04%), the rr-vs-Gist ratio (paper: 166x),
   and the cost of software-only control-flow tracing (paper: 3x-5000x,
   from their PIN-based Intel PT simulator). *)

type t = {
  gist_avg_overhead_pct : float;
  cf_overhead_range : float * float; (* min/max per-bug PT component *)
  df_overhead_range : float * float; (* min/max per-bug watchpoint component *)
  rr_avg_pct : float;
  pt_full_avg_pct : float;
  rr_over_gist : float;
  sw_trace_range : float * float; (* software CF tracing, min/max per bug *)
  avg_accuracy : float;
  avg_recurrences : float;
  fleet_dispatched : int; (* protocol deliveries across every diagnosis *)
  fleet_anomalies : int;  (* lost + rejected + quarantined *)
}

let cf_df_split () =
  (* Per bug, aggregate the PT and watchpoint components separately
     over a fleet at the diagnosis' final tracked set. *)
  Harness.map_bugs
    (fun (r : Harness.bug_result) ->
      let bug = r.bug in
      let plan = Instrument.Place.compute bug.program r.diagnosis.tracked in
      let groups =
        Array.of_list
          (Gist.Server.wp_groups ~wp_capacity:4 plan.Instrument.Plan.wp_targets)
      in
      let n_groups = Array.length groups in
      let base = ref 0.0 and cf = ref 0.0 and df = ref 0.0 in
      for c = 0 to 15 do
        let report =
          Gist.Client.run_one ~preempt_prob:bug.preempt_prob ~plan
            ~wp_allowed:groups.(c mod n_groups)
            bug.program (bug.workload_of c)
        in
        base := !base +. Exec.Cost.base_cycles report.r_counters;
        cf := !cf +. Exec.Cost.pt_extra_cycles report.r_counters;
        df := !df +. Exec.Cost.wp_extra_cycles report.r_counters
      done;
      if !base > 0.0 then (100.0 *. !cf /. !base, 100.0 *. !df /. !base)
      else (0.0, 0.0))
    (Harness.results ())

let sw_trace_overheads () =
  Harness.map_bugs
    (fun (bug : Bugbase.Common.t) ->
      let total = ref 0.0 and base = ref 0.0 in
      for c = 0 to 7 do
        let result, _ =
          Baseline.Softpt.full_trace ~preempt_prob:bug.preempt_prob
            bug.program (bug.workload_of c)
        in
        total := !total +. Exec.Cost.sw_trace_extra_cycles result.counters;
        base := !base +. Exec.Cost.base_cycles result.counters
      done;
      if !base > 0.0 then 100.0 *. !total /. !base else 0.0)
    Bugbase.Registry.all

let compute_memo : t Lazy.t =
  lazy
    (let results = Harness.results () in
     let gist_avg =
       Harness.mean
         (List.map
            (fun (r : Harness.bug_result) -> r.diagnosis.avg_overhead_pct)
            results)
     in
     let split = cf_df_split () in
     let cfs = List.map fst split and dfs = List.map snd split in
     let fmin l = List.fold_left min infinity l in
     let fmax l = List.fold_left max 0.0 l in
     let fig13 = Fig13.rows () in
     let rr_avg = Harness.mean (List.map (fun r -> r.Fig13.rr_pct) fig13) in
     let pt_avg = Harness.mean (List.map (fun r -> r.Fig13.pt_pct) fig13) in
     let sw = sw_trace_overheads () in
     {
       gist_avg_overhead_pct = gist_avg;
       cf_overhead_range = (fmin cfs, fmax cfs);
       df_overhead_range = (fmin dfs, fmax dfs);
       rr_avg_pct = rr_avg;
       pt_full_avg_pct = pt_avg;
       rr_over_gist = (if gist_avg > 0.0 then rr_avg /. gist_avg else 0.0);
       sw_trace_range = (fmin sw, fmax sw);
       avg_accuracy =
         Harness.mean
           (List.map (fun (r : Harness.bug_result) -> r.accuracy.overall)
              results);
       avg_recurrences =
         Harness.mean
           (List.map
              (fun (r : Harness.bug_result) ->
                float_of_int r.diagnosis.recurrences)
              results);
       fleet_dispatched =
         List.fold_left
           (fun a (r : Harness.bug_result) ->
             a + r.diagnosis.fleet.Gist.Server.f_dispatched)
           0 results;
       fleet_anomalies =
         List.fold_left
           (fun a (r : Harness.bug_result) ->
             let f = r.diagnosis.fleet in
             a + f.Gist.Server.f_lost + f.Gist.Server.f_rejected
             + f.Gist.Server.f_quarantined)
           0 results;
     })

let compute () = Lazy.force compute_memo

let print () =
  let s = compute () in
  print_endline "Summary (paper section 5.3 headline numbers):";
  Printf.printf
    "  Gist average overhead          : %6.2f%%   (paper: 3.74%%)\n"
    s.gist_avg_overhead_pct;
  let cmin, cmax = s.cf_overhead_range in
  Printf.printf
    "  control-flow tracking overhead : %.2f%% .. %.2f%%  (paper: 2.01-3.43%%)\n"
    cmin cmax;
  let dmin, dmax = s.df_overhead_range in
  Printf.printf
    "  data-flow tracking overhead    : %.2f%% .. %.2f%%  (paper: 0.87-1.04%%)\n"
    dmin dmax;
  Printf.printf
    "  record/replay avg overhead     : %6.1f%%   (paper: 984%%)\n" s.rr_avg_pct;
  Printf.printf
    "  full Intel PT avg overhead     : %6.2f%%   (paper: 11%%)\n"
    s.pt_full_avg_pct;
  Printf.printf
    "  rr / Gist overhead ratio       : %6.0fx   (paper: 166x)\n"
    s.rr_over_gist;
  let smin, smax = s.sw_trace_range in
  Printf.printf
    "  software CF tracing overhead   : %.0f%% .. %.0f%%  (paper: 3x-5000x)\n"
    smin smax;
  Printf.printf "  average sketch accuracy        : %6.1f%%   (paper: 96%%)\n"
    s.avg_accuracy;
  Printf.printf
    "  average failure recurrences    : %6.2f    (paper: 2-5 per bug)\n"
    s.avg_recurrences;
  Printf.printf
    "  fleet protocol                 : %d dispatches, %d anomalies \
     (lost/rejected/quarantined)\n\n"
    s.fleet_dispatched s.fleet_anomalies
