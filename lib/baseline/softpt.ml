(* Software control-flow tracing: what failure sketching costs without
   Intel PT (paper §6: the authors' PIN-based software simulator ran
   3x to 5,000x slower).  Every executed instruction pays a software
   instrumentation event; branches and returns pay extra (the
   trampoline + trace-buffer write). *)

let full_trace ?(max_steps = 400_000) ?(preempt_prob = 0.35) program workload =
  let counters = Exec.Cost.create () in
  let hooks = Exec.Interp.no_hooks () in
  hooks.pre_instr <-
    (fun ~tid:_ ~instr:_ ~addr:_ ->
      counters.sw_trace_events <- counters.sw_trace_events + 1);
  hooks.branch <-
    (fun ~tid:_ ~instr:_ ~taken:_ ->
      counters.sw_trace_events <- counters.sw_trace_events + 4);
  hooks.ret <-
    (fun ~tid:_ ~instr:_ ~resume:_ ->
      counters.sw_trace_events <- counters.sw_trace_events + 4);
  let result =
    Exec.Interp.run ~hooks ~counters ~max_steps ~preempt_prob program workload
  in
  (result, Exec.Cost.sw_trace_overhead_percent counters)

(* Full hardware PT tracing of the same run, for the Fig. 13 and §6
   comparisons. *)
let full_pt ?(max_steps = 400_000) ?(preempt_prob = 0.35) program workload =
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
  let result =
    Exec.Interp.run ~hooks ~counters ~max_steps ~preempt_prob program workload
  in
  Hw.Pt.finish pt;
  (result, Exec.Cost.pt_overhead_percent counters)
