(* Systematic schedule exploration with iterative context bounding
   (in the spirit of CHESS, which the paper cites for Heisenbug
   reproduction [47]).

   Gist itself samples production schedules; this module instead
   *enumerates* schedules with at most [max_preemptions] preemptions at
   shared-memory/synchronisation points.  The test suite uses it to
   prove that each Bugbase race is reachable within a small preemption
   bound — a guarantee seed sampling cannot give — and, dually, that
   correctly synchronised code has no failing schedule within the
   bound. *)

open Ir.Types
open Exec

(* One run under a forced schedule prefix; beyond the prefix the
   scheduler is non-preemptive (keep running the last thread while
   eligible, else the smallest eligible tid). *)
type probe = {
  p_result : Interp.result;
  p_choices : int array;                  (* tid chosen at every step *)
  p_expansions : (int * int list) list;   (* step, eligible alternatives *)
}

let run_prefix ?(max_steps = 50_000) program (w : Interp.workload)
    (prefix : int array) : probe =
  let choices = ref [] in
  let expansions = ref [] in
  let step_idx = ref (-1) in
  let last = ref (-1) in
  let interesting_step = ref false in
  let hooks = Interp.no_hooks () in
  hooks.pre_instr <-
    (fun ~tid:_ ~instr ~addr:_ ->
      interesting_step :=
        (match instr.kind with
         | Load _ | Store _ | Load_global _ | Store_global _ | Lock _
         | Unlock _ | Free _ | Join _ | Spawn _ ->
           true
         | _ -> false));
  let pick ~eligible =
    incr step_idx;
    let k = !step_idx in
    let choice =
      if k < Array.length prefix then prefix.(k)
      else if List.mem !last eligible then !last
      else List.hd eligible
    in
    (* Record alternatives at steps past the prefix whose *previous*
       instruction was a shared access: the classic preemption points. *)
    if k >= Array.length prefix && !interesting_step then begin
      let alts = List.filter (fun t -> t <> choice) eligible in
      if alts <> [] then expansions := (k, alts) :: !expansions
    end;
    last := choice;
    choices := choice :: !choices;
    Some choice
  in
  let result = Interp.run ~hooks ~pick ~max_steps program w in
  {
    p_result = result;
    p_choices = Array.of_list (List.rev !choices);
    p_expansions = List.rev !expansions;
  }

type exploration = {
  schedules_run : int;
  truncated : bool; (* hit the schedule budget before exhausting the bound *)
  outcomes : (Failure.signature option * int) list; (* outcome -> #schedules *)
  witnesses : (Failure.signature * int array) list; (* first schedule per failure *)
}

let explore ?(max_preemptions = 2) ?(max_schedules = 4_000)
    ?(max_steps = 50_000) program (w : Interp.workload) : exploration =
  let outcomes : (Failure.signature option, int) Hashtbl.t = Hashtbl.create 8 in
  let witnesses : (Failure.signature, int array) Hashtbl.t = Hashtbl.create 8 in
  let runs = ref 0 in
  let truncated = ref false in
  (* DFS over (prefix, remaining preemption budget). *)
  let rec visit prefix budget =
    if !runs >= max_schedules then truncated := true
    else begin
      incr runs;
      let probe = run_prefix ~max_steps program w prefix in
      let key =
        match probe.p_result.outcome with
        | Interp.Success -> None
        | Interp.Failed rep ->
          let s = Failure.signature rep in
          if not (Hashtbl.mem witnesses s) then
            Hashtbl.replace witnesses s probe.p_choices;
          Some s
      in
      Hashtbl.replace outcomes key
        (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes key));
      if budget > 0 then
        List.iter
          (fun (step, alts) ->
            List.iter
              (fun alt ->
                if !runs < max_schedules then begin
                  let child = Array.make (step + 1) 0 in
                  Array.blit probe.p_choices 0 child 0 step;
                  child.(step) <- alt;
                  visit child (budget - 1)
                end)
              alts)
          probe.p_expansions
    end
  in
  visit [||] max_preemptions;
  {
    schedules_run = !runs;
    truncated = !truncated;
    outcomes = Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes [];
    witnesses = Hashtbl.fold (fun k v acc -> (k, v) :: acc) witnesses [];
  }

(* First schedule (within the bounds) whose failure satisfies [pred];
   DFS order makes the result deterministic. *)
let find ?(max_preemptions = 2) ?(max_schedules = 4_000) ?(max_steps = 50_000)
    ~pred program (w : Interp.workload) =
  let found = ref None in
  let runs = ref 0 in
  let rec visit prefix budget =
    if !found = None && !runs < max_schedules then begin
      incr runs;
      let probe = run_prefix ~max_steps program w prefix in
      (match probe.p_result.outcome with
       | Interp.Failed rep when pred rep -> found := Some (rep, probe.p_choices)
       | _ -> ());
      if !found = None && budget > 0 then
        List.iter
          (fun (step, alts) ->
            List.iter
              (fun alt ->
                if !found = None && !runs < max_schedules then begin
                  let child = Array.make (step + 1) 0 in
                  Array.blit probe.p_choices 0 child 0 step;
                  child.(step) <- alt;
                  visit child (budget - 1)
                end)
              alts)
          probe.p_expansions
    end
  in
  visit [||] max_preemptions;
  !found

(* Re-execute a witness schedule (e.g. from {!find}); by determinism it
   reproduces the same outcome. *)
let replay ?(max_steps = 50_000) program (w : Interp.workload)
    (schedule : int array) =
  (run_prefix ~max_steps program w schedule).p_result
