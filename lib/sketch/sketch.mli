(** The failure sketch (paper §1, Figs 1, 7, 8): per-thread columns of
    the statements leading to the failure, a global step order, and the
    highest-ranked failure predictors highlighted with data values. *)

open Ir.Types

type step = {
  step_no : int;
  tid : int;
  iid : iid;
  loc : loc;
  text : string;
  highlight : bool;            (** part of a top failure predictor *)
  value_note : string option;  (** e.g. the "0" of "f->mut = 0" in Fig. 1 *)
}

type t = {
  bug_name : string;
  failure_type : string;
  failure : Exec.Failure.report;
  steps : step list;   (** ordered by step number *)
  threads : int list;  (** display order *)
  predictors : Predict.Stats.ranked list;
}

(** Statements the sketch contains, deduplicated and sorted. *)
val iids : t -> iid list

(** First-occurrence statement order — what ordering accuracy compares
    against the ideal order. *)
val statement_order : t -> iid list

(** Build a sketch from a representative monitored failing run.

    [per_thread] gives, per thread, the refined-slice statements in the
    thread's PT-decoded execution order ({e with} repeats: the builder
    keeps each statement's last occurrence, the instance adjacent to
    the failure); [traps] is the watchpoint log, the only source of
    cross-thread order (PT streams are per-core partial orders, §6);
    [ranked] is the predictor ranking across all runs — the best per
    kind is highlighted and data values annotated. *)
val build :
  bug_name:string ->
  failure_type:string ->
  program:program ->
  failure:Exec.Failure.report ->
  per_thread:(int * iid list) list ->
  traps:Hw.Watchpoint.trap list ->
  ranked:Predict.Stats.ranked list ->
  t
