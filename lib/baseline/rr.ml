(* A Mozilla-rr-style record/replay baseline (paper §5.3, Fig. 13).

   Recording captures every source of nondeterminism: the scheduling
   decision of every step and the value of every shared-memory read
   (in a real rr these are syscall results, signal timings and shared
   reads).  Each captured event pays the recording cost in the model.

   Replay re-executes under the recorded schedule and must reproduce
   the identical outcome -- validated by [replay], which is what makes
   this a faithful record/replay system rather than a cost counter. *)

type recording = {
  rec_workload : Exec.Interp.workload;
  rec_schedule : int array;          (* chosen tid per step *)
  rec_read_values : string list;     (* recorded shared-read values, in order *)
  rec_outcome : Exec.Interp.outcome;
  rec_counters : Exec.Cost.t;
  rec_steps : int;
}

let record ?(max_steps = 400_000) ?(preempt_prob = 0.35) program workload =
  let counters = Exec.Cost.create () in
  let hooks = Exec.Interp.no_hooks () in
  let schedule = ref [] in
  let reads = ref [] in
  hooks.sched <-
    (fun ~choice ->
      schedule := choice :: !schedule;
      counters.rr_events <- counters.rr_events + 1);
  hooks.mem_access <-
    (fun ~tid:_ ~instr:_ ~addr:_ ~rw ~value ->
      match rw with
      | Exec.Interp.Read ->
        reads := Exec.Value.to_string value :: !reads;
        counters.rr_events <- counters.rr_events + 1
      | Exec.Interp.Write -> ());
  let result =
    Exec.Interp.run ~hooks ~counters ~max_steps ~preempt_prob program workload
  in
  {
    rec_workload = workload;
    rec_schedule = Array.of_list (List.rev !schedule);
    rec_read_values = List.rev !reads;
    rec_outcome = result.outcome;
    rec_counters = counters;
    rec_steps = result.steps;
  }

(* Replay under the recorded schedule; returns the replay outcome and
   whether it matches the recording (it must, by determinism). *)
let replay ?(max_steps = 400_000) program (r : recording) =
  let cursor = ref 0 in
  let pick ~eligible:_ =
    if !cursor >= Array.length r.rec_schedule then None
    else begin
      let t = r.rec_schedule.(!cursor) in
      incr cursor;
      Some t
    end
  in
  let result =
    Exec.Interp.run ~pick ~max_steps program r.rec_workload
  in
  let same =
    match (result.outcome, r.rec_outcome) with
    | Exec.Interp.Success, Exec.Interp.Success -> true
    | Exec.Interp.Failed a, Exec.Interp.Failed b ->
      Exec.Failure.signature a = Exec.Failure.signature b
    | _ -> false
  in
  (result.outcome, same)
