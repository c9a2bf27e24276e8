(** The bug descriptor shared by all Bugbase entries.

    The paper's own Bugbase framework reproduces the 11 bugs of
    Table 1; each entry here re-creates the {e mechanism} of the real
    bug — same bug class, same root-cause-to-failure structure, same
    fix locus — in the repo's IR. *)

open Ir.Types

type bug_class = Concurrency | Sequential

type t = {
  name : string;          (** Table 1 row name, e.g. "Apache-3" *)
  software : string;
  version : string;
  bug_id : string;        (** official bug-database id *)
  description : string;
  failure_type : string;  (** sketch header, e.g. "Concurrency bug, double free" *)
  bug_class : bug_class;
  program : program;
  source_file : string;
  workload_of : int -> Exec.Interp.workload;
      (** production workload of client [c]; must reach both failing
          and successful runs *)
  ideal_lines : int list;
      (** the hand-built ideal sketch (§5.2): every statement with a
          data or control dependency to the failure, as source lines in
          failing-run order *)
  root_lines : int list;
      (** the root-cause core a developer must see to fix the bug;
          drives the stop-AsT oracle; a subset of [ideal_lines] *)
  target_kind_tag : string; (** {!Exec.Failure.kind_tag} of the target *)
  target_line : int;        (** source line where it manifests *)
  claimed_loc : int;        (** software size from Table 1, for reporting *)
  preempt_prob : float;
}

(** The ideal sketch as ordered iids (memoised). *)
val ideal : t -> Fsketch.Accuracy.ideal

val root_cause_iids : t -> iid list

(** Does a report match the Table 1 failure this bug models
    (kind tag + manifestation line)? *)
val is_target_failure : t -> Exec.Failure.report -> bool

(** First occurrence of the {e target} failure among production
    workloads (each run capped at {!Exec.Interp.first_failure}'s
    default step budget): the report that triggers the diagnosis. *)
val find_target_failure :
  ?max_runs:int -> t -> (int * Exec.Failure.report) option
