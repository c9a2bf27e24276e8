(** Shared experiment harness: run the full Gist pipeline on every
    Table 1 bug once and memoise the results so Table 1, Fig. 9 and the
    summary report the same fleet. *)

type bug_result = {
  bug : Bugbase.Common.t;
  failure : Exec.Failure.report;
  diagnosis : Gist.Server.diagnosis;
  accuracy : Fsketch.Accuracy.result;
}

(** Diagnose one bug end-to-end with its root-cause oracle; [None] when
    the target failure never manifests.  [pool] parallelises the
    monitored client runs (see {!Gist.Server.diagnose}); the result is
    identical to the sequential run.  [with_oracle:false] (default
    true) drops the developer oracle — unattended production, as the
    adaptive early-exit comparison requires. *)
val diagnose_bug :
  ?config:Gist.Config.t ->
  ?pool:Parallel.Pool.t ->
  ?with_oracle:bool ->
  Bugbase.Common.t ->
  bug_result option

(** Fan [f] over independent per-bug work on the shared pool
    ({!Parallel.Jobs.global}), preserving list order. *)
val map_bugs : ('a -> 'b) -> 'a list -> 'b list

(** All 11 bugs, memoised across experiments.  Diagnosed in parallel
    across the shared pool (one bug per task); the per-bug results are
    identical to a sequential sweep. *)
val results : unit -> bug_result list

val mean : float list -> float

(** Gist sketch size as (source lines, IR instructions). *)
val sketch_size : bug_result -> int * int

val ideal_size : bug_result -> int * int
