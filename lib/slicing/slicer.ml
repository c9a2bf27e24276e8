(* Static backward slicing (paper §3.1, Algorithm 1).

   The algorithm is:
   - *interprocedural*: needed function arguments flow to the actuals at
     every call site (and spawn site, via the TICFG thread edges), and
     needed return values flow into the callee's return statements;
   - *path-insensitive*: every definition that may reach the failure is
     kept, regardless of path feasibility (runtime control-flow
     tracking filters the infeasible ones later);
   - *flow-sensitive*: the slice is ordered backward from the failing
     statement, so adaptive slice tracking can take "the last sigma
     statements before the failure";
   - *alias-free*: memory items are matched syntactically (same
     function, same base register, same field offset, or same global).
     Like the paper's Gist, stores reaching a load through a different
     pointer name are deliberately missed and recovered at runtime by
     hardware-watchpoint data-flow tracking (§3.2.3).

   Control dependencies are included: for every sliced statement, the
   branches it is control-dependent on (Ferrante-Ottenstein-Warren over
   the postdominator tree) join the slice with their condition items. *)

open Ir.Types

module Item = struct
  type t =
    | Reg_item of string * string      (* function, register *)
    | Global_item of string            (* global name *)
    | Mem_item of string * string * int (* function, base register, offset *)

  let compare = compare
end

module ItemSet = Set.Make (Item)
module IntSet = Set.Make (Int)

type entry = {
  e_iid : iid;
  e_dist : int; (* fixpoint round at which the statement joined the slice *)
}

type t = {
  failing : iid;
  program : program;
  entries : entry list; (* ordered: closest to the failure first *)
}

(* Items read by instruction [i] in function [fname]: the workset
   seeds of Algorithm 1 (getItems / getReadOperand / getWrittenOperand). *)
let items_used fname i =
  let of_operand = function
    | Reg r -> [ Item.Reg_item (fname, r) ]
    | Imm _ | Str _ | Null -> []
  in
  let base = List.concat_map of_operand (Ir.Program.uses i) in
  match i.kind with
  | Load (_, Reg b, off) -> Item.Mem_item (fname, b, off) :: base
  | Load_global (_, g) -> Item.Global_item g :: base
  | _ -> base

(* Does instruction [i] (in [fname]) define one of the [needed] items? *)
let defines ?alias needed fname i =
  let def_reg =
    match Ir.Program.def i with
    | Some r -> ItemSet.mem (Item.Reg_item (fname, r)) needed
    | None -> false
  in
  def_reg
  ||
  match i.kind with
  | Store (Reg b, off, _) -> (
    (* Alias-free matching (the paper's choice): same function, same
       base register, same field.  Stores reaching the load through a
       different pointer name are deliberately missed -- runtime
       data-flow tracking adds them back (§3.2.3).  With [alias], the
       match goes through may-alias points-to sets instead; the
       [extensions] experiment quantifies how much this inflates the
       slice (the paper's argument for omitting it). *)
    ItemSet.mem (Item.Mem_item (fname, b, off)) needed
    ||
    match alias with
    | None -> false
    | Some a ->
      ItemSet.exists
        (function
          | Item.Mem_item (f2, b2, off2) ->
            Alias.may_alias a ~func1:fname ~base1:b ~off1:off ~func2:f2
              ~base2:b2 ~off2
          | _ -> false)
        needed)
  | Store_global (g, _) -> ItemSet.mem (Item.Global_item g) needed
  | _ -> false

let compute ?alias program (report : Exec.Failure.report) =
  let icfg = Analysis.Cache.icfg program in
  let failing = report.pc in
  let failing_instr = Ir.Program.instr_at program failing in
  let failing_pos = Ir.Program.position_of program failing in
  let needed = ref (ItemSet.of_list (items_used failing_pos.p_func failing_instr)) in
  let in_slice = ref IntSet.empty in
  let dist = Hashtbl.create 64 in
  let round = ref 0 in
  let add_instr fname (i : instr) =
    if not (IntSet.mem i.iid !in_slice) then begin
      in_slice := IntSet.add i.iid !in_slice;
      Hashtbl.replace dist i.iid !round;
      needed := ItemSet.union !needed (ItemSet.of_list (items_used fname i));
      (* Control dependence: the branches deciding this statement. *)
      let cfg = Analysis.Icfg.cfg_of icfg fname in
      match Analysis.Cfg.find_iid cfg i.iid with
      | None -> ()
      | Some (bi, _) ->
        let controlling = (Analysis.Cfg.controlling_branches cfg).(bi) in
        List.iter
          (fun (br : instr) ->
            if not (IntSet.mem br.iid !in_slice) then begin
              in_slice := IntSet.add br.iid !in_slice;
              Hashtbl.replace dist br.iid !round;
              needed :=
                ItemSet.union !needed (ItemSet.of_list (items_used fname br))
            end)
          controlling
    end
  in
  add_instr failing_pos.p_func failing_instr;
  (* Fixpoint over the whole program.  Within each pass, functions are
     walked backward (flow sensitivity); new items found in one pass
     trigger another. *)
  let changed = ref true in
  while !changed do
    incr round;
    changed := false;
    let before = (ItemSet.cardinal !needed, IntSet.cardinal !in_slice) in
    List.iter
      (fun f ->
        let instrs = List.rev (Ir.Program.instrs_of_func f) in
        List.iter
          (fun (i : instr) ->
            if
              (not (IntSet.mem i.iid !in_slice))
              && defines ?alias !needed f.fname i
            then begin
              add_instr f.fname i;
              (* A needed call return value pulls in the callee's return
                 statements (getRetValues, Algorithm 1 line 11). *)
              match i.kind with
              | Call (_, callee, _) ->
                List.iter (add_instr callee) (Analysis.Icfg.returns_of icfg callee)
              | _ -> ()
            end)
          instrs)
      program.funcs;
    (* Interprocedural argument flow (getArgValues, line 14): a needed
       parameter of [f] pulls in every binding site (call or spawn,
       through the TICFG) and the corresponding actual's items. *)
    List.iter
      (fun f ->
        List.iteri
          (fun k param ->
            if ItemSet.mem (Item.Reg_item (f.fname, param)) !needed then
              List.iter
                (fun site_iid ->
                  let site = Ir.Program.instr_at program site_iid in
                  let site_pos = Ir.Program.position_of program site_iid in
                  let args =
                    match site.kind with
                    | Call (_, _, args) | Spawn (_, _, args) -> args
                    | _ -> []
                  in
                  match List.nth_opt args k with
                  | Some (Reg r) ->
                    let item = Item.Reg_item (site_pos.p_func, r) in
                    if not (ItemSet.mem item !needed) then begin
                      needed := ItemSet.add item !needed;
                      changed := true
                    end;
                    add_instr site_pos.p_func site
                  | Some _ -> add_instr site_pos.p_func site
                  | None -> ())
                (Analysis.Icfg.binding_sites_of icfg f.fname))
          f.params)
      program.funcs;
    let after = (ItemSet.cardinal !needed, IntSet.cardinal !in_slice) in
    if before <> after then changed := true
  done;
  (* Order entries closest-to-failure first: by discovery round, then,
     within the failing function, by backward textual distance from the
     failure; other functions after, by descending iid. *)
  let entries =
    IntSet.elements !in_slice
    |> List.map (fun iid ->
        { e_iid = iid; e_dist = Hashtbl.find dist iid })
    |> List.sort (fun a b ->
        if a.e_iid = failing then -1
        else if b.e_iid = failing then 1
        else
          let da = a.e_dist and db = b.e_dist in
          if da <> db then compare da db
          else
            (* Prefer statements textually before the failure, nearest
               first; then the ones after (loop-carried), nearest first. *)
            let key iid =
              if iid <= failing then (0, failing - iid) else (1, iid - failing)
            in
            compare (key a.e_iid) (key b.e_iid))
  in
  { failing; program; entries }

let iids t = List.map (fun e -> e.e_iid) t.entries

(* The sigma statements adaptive slice tracking monitors (§3.2.1):
   the closest [n] to the failure point. *)
let take t n =
  let rec first k = function
    | [] -> []
    | e :: tl -> if k = 0 then [] else e.e_iid :: first (k - 1) tl
  in
  first n t.entries

let instr_count t = List.length t.entries
let source_loc_count t = Ir.Program.source_loc_count t.program (iids t)

let pp ppf t =
  Fmt.pf ppf "@[<v>slice (failure at %d):@," t.failing;
  List.iter
    (fun e ->
      let i = Ir.Program.instr_at t.program e.e_iid in
      Fmt.pf ppf "  [d%d] %a@," e.e_dist Ir.Pp.pp_instr i)
    t.entries;
  Fmt.pf ppf "@]"
