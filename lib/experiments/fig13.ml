(* Fig. 13: full-tracing overhead of a Mozilla-rr-style record/replay
   system vs hardware Intel PT, per program (paper: rr averages 984%
   vs 11% for full PT; on compute-heavy Cppcheck the two are on par,
   while on I/O-light shared-memory-heavy programs rr is orders of
   magnitude more expensive). *)

let clients_per_program = 16

type row = {
  name : string;
  rr_pct : float;
  pt_pct : float;
  ratio : float; (* rr / pt; infinity when pt is ~0 *)
}

let row_for (bug : Bugbase.Common.t) =
  let rr_base = ref 0.0 and rr_extra = ref 0.0 in
  let pt_base = ref 0.0 and pt_extra = ref 0.0 in
  for c = 0 to clients_per_program - 1 do
    let w = bug.workload_of c in
    let rec_ = Baseline.Rr.record ~preempt_prob:bug.preempt_prob bug.program w in
    rr_base := !rr_base +. Exec.Cost.base_cycles rec_.rec_counters;
    rr_extra := !rr_extra +. Exec.Cost.rr_extra_cycles rec_.rec_counters
  done;
  for c = 0 to clients_per_program - 1 do
    let result, _ =
      Baseline.Softpt.full_pt ~preempt_prob:bug.preempt_prob bug.program
        (bug.workload_of c)
    in
    pt_base := !pt_base +. Exec.Cost.base_cycles result.counters;
    pt_extra := !pt_extra +. Exec.Cost.pt_extra_cycles result.counters
  done;
  let rr_pct = if !rr_base > 0.0 then 100.0 *. !rr_extra /. !rr_base else 0.0 in
  let pt_pct = if !pt_base > 0.0 then 100.0 *. !pt_extra /. !pt_base else 0.0 in
  {
    name = bug.name;
    rr_pct;
    pt_pct;
    ratio = (if pt_pct > 0.01 then rr_pct /. pt_pct else infinity);
  }

let rows_memo : row list Lazy.t =
  lazy (Harness.map_bugs row_for Bugbase.Registry.all)

let rows () = Lazy.force rows_memo

let print () =
  print_endline
    "Fig. 13: Full-tracing overheads, record/replay (rr) vs Intel PT (%).";
  Printf.printf "%-13s %12s %12s %10s\n" "Program" "rr" "Intel PT" "rr/PT";
  List.iter
    (fun r ->
      Printf.printf "%-13s %12.1f %12.2f %10s\n" r.name r.rr_pct r.pt_pct
        (if r.ratio = infinity then "inf"
         else Printf.sprintf "%.0fx" r.ratio))
    (rows ());
  let avg f = Harness.mean (List.map f (rows ())) in
  Printf.printf "%-13s %12.1f %12.2f   (paper: 984%% vs 11%%)\n\n" "AVERAGE"
    (avg (fun r -> r.rr_pct))
    (avg (fun r -> r.pt_pct))
