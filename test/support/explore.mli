(** Systematic schedule exploration with iterative context bounding (in
    the spirit of CHESS, cited by the paper for Heisenbug
    reproduction).

    Gist samples production schedules; this module {e enumerates}
    schedules with at most a given number of preemptions at
    shared-memory/synchronisation points, which lets tests prove a race
    is reachable within a bound — or that no failing schedule exists
    within it. *)

open Exec

type exploration = {
  schedules_run : int;
  truncated : bool;  (** the schedule budget ran out before the bound *)
  outcomes : (Failure.signature option * int) list;
      (** outcome (None = success) -> number of schedules *)
  witnesses : (Failure.signature * int array) list;
      (** first witness schedule per distinct failure *)
}

val explore :
  ?max_preemptions:int -> ?max_schedules:int -> ?max_steps:int ->
  Ir.Types.program -> Interp.workload -> exploration

(** First schedule (in deterministic DFS order) whose failure satisfies
    [pred]. *)
val find :
  ?max_preemptions:int -> ?max_schedules:int -> ?max_steps:int ->
  pred:(Failure.report -> bool) ->
  Ir.Types.program -> Interp.workload ->
  (Failure.report * int array) option

(** Re-execute a witness schedule; determinism reproduces the outcome. *)
val replay :
  ?max_steps:int -> Ir.Types.program -> Interp.workload -> int array ->
  Interp.result
