(* Shared experiment harness: run the full Gist pipeline on every
   Table 1 bug once and memoise the results so Table 1, Fig. 9 and the
   summary all report the same fleet. *)

type bug_result = {
  bug : Bugbase.Common.t;
  failure : Exec.Failure.report;
  diagnosis : Gist.Server.diagnosis;
  accuracy : Fsketch.Accuracy.result;
}

let diagnose_bug ?(config = Gist.Config.default) ?pool
    ?(with_oracle = true) (bug : Bugbase.Common.t) =
  match Bugbase.Common.find_target_failure bug with
  | None -> None
  | Some (_, failure) ->
    let config = { config with Gist.Config.preempt_prob = bug.preempt_prob } in
    (* [with_oracle:false] models unattended production: no developer
       stop signal, AsT runs until sigma covers the slice (or, with
       [early_exit], until the stopping rule converges). *)
    let oracle = if with_oracle then Some (Oracle.for_bug bug) else None in
    let diagnosis =
      Gist.Server.diagnose ~config ?pool ?oracle
        ~bug_name:bug.name ~failure_type:bug.failure_type ~program:bug.program
        ~workload_of:bug.workload_of ~failure ()
    in
    let accuracy =
      Fsketch.Accuracy.of_sketch diagnosis.sketch ~ideal:(Bugbase.Common.ideal bug)
    in
    Some { bug; failure; diagnosis; accuracy }

(* One diagnosis per bug is independent of the others, so the fleet
   fans out across the shared pool (each bug's own client loop then
   runs sequentially inside its worker: the outer loop already
   saturates the domains, and results stay identical either way). *)
let map_bugs : 'a 'b. ('a -> 'b) -> 'a list -> 'b list =
 fun f l -> Parallel.Pool.map (Parallel.Jobs.global ()) f l

let all_results : bug_result list Lazy.t =
  lazy
    (List.filter_map Fun.id
       (map_bugs (fun b -> diagnose_bug b) Bugbase.Registry.all))

let results () = Lazy.force all_results

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Gist sketch size in source lines / IR instructions. *)
let sketch_size (r : bug_result) =
  let iids = Fsketch.Sketch.iids r.diagnosis.sketch in
  (Ir.Program.source_loc_count r.bug.program iids, List.length iids)

let ideal_size (r : bug_result) =
  let ideal = Bugbase.Common.ideal r.bug in
  ( Ir.Program.source_loc_count r.bug.program ideal.i_iids,
    List.length ideal.i_iids )
