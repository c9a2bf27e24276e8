(** A Mozilla-rr-style record/replay baseline (paper §5.3, Fig. 13).

    Recording captures every source of nondeterminism — the scheduling
    decision of every step and the value of every shared read — and
    each captured event pays the recording cost in the model.  Replay
    re-executes under the recorded schedule and must reproduce the
    identical outcome; {!replay} validates that, which is what makes
    this a faithful record/replay system rather than a cost counter. *)

type recording = {
  rec_workload : Exec.Interp.workload;
  rec_schedule : int array;       (** chosen tid per step *)
  rec_read_values : string list;  (** shared-read values, in order *)
  rec_outcome : Exec.Interp.outcome;
  rec_counters : Exec.Cost.t;
  rec_steps : int;
}

val record :
  ?max_steps:int -> ?preempt_prob:float -> Ir.Types.program ->
  Exec.Interp.workload -> recording

(** Replay under the recorded schedule; returns the replay outcome and
    whether it matches the recording (it must, by determinism). *)
val replay :
  ?max_steps:int -> Ir.Types.program -> recording ->
  Exec.Interp.outcome * bool
