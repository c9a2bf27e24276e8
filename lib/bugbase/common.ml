(* The bug descriptor shared by all Bugbase entries (the paper's own
   Bugbase framework reproduces the 11 bugs of Table 1; this module is
   its equivalent).  Each bug re-creates the *mechanism* of the real
   bug -- same bug class, same root-cause-to-failure structure, same
   fix locus -- in the repo's IR. *)

open Ir.Types

type bug_class = Concurrency | Sequential

type t = {
  name : string;         (* Table 1 row name, e.g. "Apache-3" *)
  software : string;     (* e.g. "Apache httpd" *)
  version : string;
  bug_id : string;       (* official bug-database id *)
  description : string;
  failure_type : string; (* sketch header, e.g. "Concurrency bug, double free" *)
  bug_class : bug_class;
  program : program;
  source_file : string;
  (* Production workloads: client [c] runs this workload.  A mix of
     failing and successful runs must be reachable. *)
  workload_of : int -> Exec.Interp.workload;
  (* The ideal failure sketch, as ordered source lines (computed by
     hand, as in the paper's §5.2 methodology): every statement with a
     data or control dependency to the failure, in failing-run order. *)
  ideal_lines : int list;
  (* The root-cause core: the few statements a developer must see to
     fix the bug.  Drives the stop-AsT oracle; a strict subset of
     [ideal_lines]. *)
  root_lines : int list;
  (* The failure this Table 1 row is about: racy programs can fail in
     several ways; Gist diagnoses the one the developer reported. *)
  target_kind_tag : string; (* Exec.Failure.kind_tag of the target *)
  target_line : int;        (* source line where it manifests *)
  claimed_loc : int;     (* software size from Table 1, for reporting *)
  preempt_prob : float;
}

(* All instructions on a given source line, in program order. *)
let iids_at_line (p : program) ~file ~line =
  Ir.Program.all_instrs p
  |> List.filter (fun i -> i.loc.file = file && i.loc.line = line)
  |> List.map (fun i -> i.iid)

(* The ideal sketch as ordered iids: the instructions on the ideal
   source lines *that actually execute* in a canonical failing run
   (a line's trailing IR instructions may be cut short by the failure
   itself, e.g. the rest of a call-bearing line after the callee
   crashed).  Memoised per bug. *)

let ideal_memo : (string, Fsketch.Accuracy.ideal) Hashtbl.t = Hashtbl.create 8

(* Both memo tables are read and written from pool workers when
   experiments fan per-bug diagnoses across domains.  A racing pair of
   workers may compute the same entry twice -- the value is a
   deterministic function of the bug, so last-write-wins is benign --
   but the Hashtbl mutation itself must be exclusive. *)
let memo_lock = Mutex.create ()

let memo_find tbl key =
  Mutex.lock memo_lock;
  let r = Hashtbl.find_opt tbl key in
  Mutex.unlock memo_lock;
  r

let memo_store tbl key v =
  Mutex.lock memo_lock;
  Hashtbl.replace tbl key v;
  Mutex.unlock memo_lock

let is_target_failure_rep (bug : t) (rep : Exec.Failure.report) =
  Exec.Failure.kind_tag rep.kind = bug.target_kind_tag
  && (Ir.Program.loc_of bug.program rep.pc).line = bug.target_line

let executed_memo : (string, int list) Hashtbl.t = Hashtbl.create 8

(* The instruction set of a canonical target-failing run (memoised). *)
let canonical_failing_executed (bug : t) =
  match memo_find executed_memo bug.name with
  | Some e -> e
  | None ->
    let rec find c =
      if c >= 5000 then None
      else
        let r =
          Exec.Interp.run ~record_gt:true ~preempt_prob:bug.preempt_prob
            bug.program (bug.workload_of c)
        in
        match r.outcome with
        | Exec.Interp.Failed rep when is_target_failure_rep bug rep -> Some r
        | _ -> find (c + 1)
    in
    let executed =
      match find 0 with
      | Some r -> List.map snd r.executed |> List.sort_uniq compare
      | None -> []
    in
    memo_store executed_memo bug.name executed;
    executed

(* Ordered iids for a list of source lines, restricted to instructions
   that execute in a canonical failing run. *)
let iids_for_lines (bug : t) lines =
  let executed = canonical_failing_executed bug in
  List.concat_map
    (fun line ->
      iids_at_line bug.program ~file:bug.source_file ~line
      |> List.filter (fun iid -> executed = [] || List.mem iid executed))
    lines

let ideal (bug : t) : Fsketch.Accuracy.ideal =
  match memo_find ideal_memo bug.name with
  | Some i -> i
  | None ->
    let ideal = Fsketch.Accuracy.{ i_iids = iids_for_lines bug bug.ideal_lines } in
    memo_store ideal_memo bug.name ideal;
    ideal

let root_cause_iids (bug : t) = iids_for_lines bug bug.root_lines

(* Does a report match the Table 1 failure this bug models? *)
let is_target_failure (bug : t) (rep : Exec.Failure.report) =
  Exec.Failure.kind_tag rep.kind = bug.target_kind_tag
  && (Ir.Program.loc_of bug.program rep.pc).line = bug.target_line

(* The production failure report that triggers the diagnosis: the first
   occurrence of the *target* failure across production clients. *)
let find_target_failure ?(max_runs = 5000) (bug : t) =
  Exec.Interp.first_failure ~accept:(is_target_failure bug) ~max_runs
    ~preempt_prob:bug.preempt_prob bug.program bug.workload_of
