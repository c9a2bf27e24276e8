(* Instrumentation placement (paper §3.2.2-§3.2.3, Fig. 4).

   For each tracked statement [s] in basic block [bb]:
   - Intel PT tracing *starts* at the terminator of every predecessor
     of [bb] (capturing the branch into [bb]) and at the head of [bb]
     itself (covering function entry).  The start is elided when the
     previously tracked statement strictly dominates [s]: tracing is
     then already on (the sdom optimisation of Fig. 4 box I/II).
   - Tracing *stops* right after [s] and before [s]'s immediate
     postdominator -- unless [s] strictly dominates the next tracked
     statement, in which case tracing must continue.
   - A hardware watchpoint is armed at the pre-point of each tracked
     memory access: after the access's immediate dominator and before
     the access (Fig. 4.(b)). *)

open Ir.Types

let is_wp_target (i : instr) =
  match i.kind with
  | Load _ | Store _ | Load_global _ | Store_global _ -> true
  | _ -> false

(* Pre-point helpers, all expressed as iids. *)
let block_head (cfg : Analysis.Cfg.t) b = (Analysis.Cfg.block cfg b).instrs.(0).iid

let block_terminator (cfg : Analysis.Cfg.t) b =
  let bl = Analysis.Cfg.block cfg b in
  bl.instrs.(Array.length bl.instrs - 1).iid

let compute ?(enable_cf = true) ?(enable_df = true) program tracked : Plan.t =
  let plan = Plan.{ (empty ()) with tracked } in
  let icfg = Analysis.Cache.icfg program in
  (* Group tracked statements per function, in textual order (iids are
     assigned in textual order). *)
  let by_func = Hashtbl.create 8 in
  List.iter
    (fun iid ->
      let pos = Ir.Program.position_of program iid in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_func pos.p_func) in
      Hashtbl.replace by_func pos.p_func (iid :: cur))
    tracked;
  if enable_cf then
    Hashtbl.iter
      (fun fname iids ->
        let cfg = Analysis.Icfg.cfg_of icfg fname in
        let sorted = List.sort compare iids in
        let pos_of iid = Option.get (Analysis.Cfg.find_iid cfg iid) in
        let rec walk prev = function
          | [] -> ()
          | iid :: rest ->
            ignore prev;
            let (bb, k) = pos_of iid in
            (* Start tracking at each predecessor's terminator (to
               capture the incoming branch) and at the head of the
               statement's own block.  Unlike the paper's sdom elision
               we always place the (idempotent) starts: a stop planted
               for an earlier statement on a back edge may have cut the
               traced interval the elision would rely on. *)
            List.iter
              (fun p -> Plan.add_action plan (block_terminator cfg p) Pt_start)
              (Analysis.Cfg.preds cfg bb);
            Plan.add_action plan (block_head cfg bb) Pt_start;
            (* Guard: a call between the block head and this statement
               may carry a stop inside the callee; re-enable at the
               statement itself so it is always traced. *)
            Plan.add_action plan iid Pt_start;
            (* Stop after [iid] unless it strictly dominates the next
               tracked statement. *)
            let continues =
              match rest with
              | next :: _ ->
                Analysis.Cfg.instr_strictly_dominates cfg (bb, k) (pos_of next)
              | [] -> false
            in
            (* Stop right after the statement and before its immediate
               postdominator (Fig. 4 box II).  A source statement spans
               several IR instructions, so the stop point is the first
               following instruction on a *different* source line; when
               the statement ends its block, tracing stops on entry to
               each successor block instead. *)
            if not continues then begin
              let bl = Analysis.Cfg.block cfg bb in
              let line = bl.instrs.(k).loc in
              let rec next_off j =
                if j >= Array.length bl.instrs then None
                else if bl.instrs.(j).loc <> line then Some bl.instrs.(j).iid
                else next_off (j + 1)
              in
              match next_off (k + 1) with
              | Some stop_iid -> Plan.add_action plan stop_iid Pt_stop
              | None ->
                List.iter
                  (fun s -> Plan.add_action plan (block_head cfg s) Pt_stop)
                  (Analysis.Cfg.succs cfg bb)
            end;
            walk (Some iid) rest
        in
        walk None sorted)
      by_func;
  (* Peephole: a loop whose body holds tracked statements gets a
     Pt_stop at the loop-header entry and a Pt_start at the loop-header
     terminator -- a PGD/PGE pair a couple of instructions apart on
     every iteration.  Dropping such a pair keeps tracing on across the
     back edge: strictly more trace (a few TNT bits), far fewer toggle
     events.  Dropping a stop+start pair is always sound -- the traced
     region only grows. *)
  if enable_cf then
    Hashtbl.iter
      (fun fname _ ->
        let cfg = Analysis.Icfg.cfg_of icfg fname in
        for b = 0 to Analysis.Cfg.n_blocks cfg - 1 do
          let bl = Analysis.Cfg.block cfg b in
          let n = Array.length bl.instrs in
          if n <= 4 then begin
            let head = bl.instrs.(0).iid and term = bl.instrs.(n - 1).iid in
            let head_acts = Plan.actions_at plan head in
            let term_acts = Plan.actions_at plan term in
            (* Only the stop may be dropped: a start is needed on paths
               that arrive with tracing off, and enabling is idempotent
               anyway. *)
            if List.mem Plan.Pt_stop head_acts && List.mem Plan.Pt_start term_acts
            then
              Hashtbl.replace plan.Plan.actions head
                (List.filter (fun a -> a <> Plan.Pt_stop) head_acts)
          end
        done)
      by_func;
  (* Second peephole, instruction-level: a Pt_stop from which some
     Pt_start is reachable within a few instructions buys almost no
     trace reduction but costs a PGD/PGE toggle pair on every passage
     (typical shape: tracked statements inside a hot loop).  Dropping
     the stop is sound -- the traced region only grows -- and turns
     toggle churn into a handful of TNT bits. *)
  if enable_cf then begin
    let near_start_horizon = 8 in
    let stops_to_drop = ref [] in
    Hashtbl.iter
      (fun stop_iid acts ->
        if List.mem Plan.Pt_stop acts then begin
          let pos = Ir.Program.position_of program stop_iid in
          let cfg = Analysis.Icfg.cfg_of icfg pos.p_func in
          let succs_of (b, k) =
            let bl = Analysis.Cfg.block cfg b in
            if k + 1 < Array.length bl.instrs then [ (b, k + 1) ]
            else List.map (fun s -> (s, 0)) (Analysis.Cfg.succs cfg b)
          in
          let has_start (b, k) =
            let i = (Analysis.Cfg.block cfg b).instrs.(k) in
            List.mem Plan.Pt_start (Plan.actions_at plan i.iid)
          in
          (* BFS over intra-procedural instruction successors. *)
          let seen = Hashtbl.create 16 in
          let found = ref (List.mem Plan.Pt_start acts) in
          let rec bfs frontier depth =
            if depth < near_start_horizon && frontier <> [] && not !found then begin
              let next =
                List.concat_map
                  (fun p ->
                    if Hashtbl.mem seen p then []
                    else begin
                      Hashtbl.replace seen p ();
                      if has_start p then begin
                        found := true;
                        []
                      end
                      else succs_of p
                    end)
                  frontier
              in
              bfs next (depth + 1)
            end
          in
          (match Analysis.Cfg.find_iid cfg stop_iid with
           | Some p -> if not !found then bfs (succs_of p) 0
           | None -> ());
          if !found then stops_to_drop := stop_iid :: !stops_to_drop
        end)
      plan.Plan.actions;
    List.iter
      (fun iid ->
        Hashtbl.replace plan.Plan.actions iid
          (List.filter (fun a -> a <> Plan.Pt_stop) (Plan.actions_at plan iid)))
      !stops_to_drop
  end;
  let wp_targets =
    if enable_df then
      List.filter (fun iid -> is_wp_target (Ir.Program.instr_at program iid))
        tracked
      |> List.sort_uniq compare
    else []
  in
  List.iter (fun iid -> Plan.add_action plan iid Plan.Wp_arm) wp_targets;
  Plan.compile { plan with wp_targets }
