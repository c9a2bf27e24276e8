(* The failure sketch (paper §1, Figs 1, 7, 8): per-thread columns of
   the statements leading to the failure, a global step order, and the
   highest-ranked failure predictors highlighted with data values. *)

open Ir.Types

type step = {
  step_no : int;
  tid : int;
  iid : iid;
  loc : loc;
  text : string;
  highlight : bool;        (* part of a top failure predictor *)
  value_note : string option; (* e.g. "f->mut = 0" *)
}

type t = {
  bug_name : string;
  failure_type : string;
  failure : Exec.Failure.report;
  steps : step list;           (* ordered by step_no *)
  threads : int list;          (* display order *)
  predictors : Predict.Stats.ranked list;
}

(* Statements the sketch contains, deduplicated. *)
let iids t = List.map (fun s -> s.iid) t.steps |> List.sort_uniq compare

(* First-occurrence statement order (for ordering accuracy). *)
let statement_order t =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun s ->
      if Hashtbl.mem seen s.iid then None
      else begin
        Hashtbl.replace seen s.iid ();
        Some s.iid
      end)
    t.steps

(* ------------------------------------------------------------------ *)
(* Construction.

   Inputs, all from the monitored failing run that Gist selected as
   representative:
   - [per_thread]: for each thread, the statements (from the refined
     slice) in that thread's PT-decoded execution order (first
     occurrence only);
   - [traps]: the watchpoint log, the only source of *cross-thread*
     order (PT streams are per-core partial orders, §6);
   - [ranked]: predictor ranking across all runs (best per kind is
     highlighted). *)

let build ~bug_name ~failure_type ~program ~(failure : Exec.Failure.report)
    ~(per_thread : (int * iid list) list)
    ~(traps : Hw.Watchpoint.trap list)
    ~(ranked : Predict.Stats.ranked list) : t =
  let best = Predict.Stats.best_per_kind ranked in
  let highlight_iids =
    List.concat_map
      (fun (r : Predict.Stats.ranked) ->
        match r.predictor with
        | Predict.Predictor.Branch_taken (i, _) -> [ i ]
        | Data_value (i, _) | Value_range (i, _) -> [ i ]
        | Race (_, a, b) -> [ a; b ]
        | Atomicity (_, a, b, c) -> [ a; b; c ])
      best
  in
  let value_note_for iid =
    List.find_map
      (fun (r : Predict.Stats.ranked) ->
        match r.predictor with
        | Predict.Predictor.Data_value (i, v) when i = iid -> Some v
        | Predict.Predictor.Value_range (i, p) when i = iid -> Some p
        | _ -> None)
      best
  in
  (* Anchor each per-thread element to the last watchpoint sequence
     number at or before it (watchpoints provide the cross-thread
     ordering, program order the rest), keep each statement's *last*
     occurrence per thread (the instances adjacent to the failure: a
     sketch shows the failing iteration, not the first one), then sort. *)
  (* Traps indexed by (tid, iid): the k-th occurrence of a statement in
     a thread's decoded sequence anchors to the k-th trap of that
     statement (clamped -- early occurrences may predate arming). *)
  let trap_index : (int * int, int array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (w : Hw.Watchpoint.trap) ->
      let key = (w.w_tid, w.w_iid) in
      let cur = Option.value ~default:[||] (Hashtbl.find_opt trap_index key) in
      Hashtbl.replace trap_index key (Array.append cur [| w.w_seq |]))
    traps;
  let elements = ref [] in
  List.iter
    (fun (tid, seq) ->
      let anchor = ref 0 in
      let occurrences = Hashtbl.create 16 in
      let last = Hashtbl.create 16 in
      List.iteri
        (fun pos iid ->
          let k = Option.value ~default:0 (Hashtbl.find_opt occurrences iid) in
          Hashtbl.replace occurrences iid (k + 1);
          (match Hashtbl.find_opt trap_index (tid, iid) with
           | Some seqs when Array.length seqs > 0 ->
             let j = min k (Array.length seqs - 1) in
             anchor := max !anchor seqs.(j)
           | _ -> ());
          Hashtbl.replace last iid (!anchor, tid, pos, iid))
        seq;
      Hashtbl.iter (fun _ e -> elements := e :: !elements) last)
    per_thread;
  let ordered =
    List.sort
      (fun (a1, t1, p1, _) (a2, t2, p2, _) -> compare (a1, t1, p1) (a2, t2, p2))
      !elements
  in
  (* Display text: the instruction's own source text, or (for helper
     instructions carrying no text) the text of a sibling on the same
     source line, falling back to raw IR. *)
  let text_for (i : instr) =
    if i.text <> "" then i.text
    else
      let sibling =
        List.find_opt
          (fun (j : instr) -> j.loc = i.loc && j.text <> "")
          (Ir.Program.all_instrs program)
      in
      match sibling with
      | Some j -> j.text
      | None -> Ir.Pp.instr_to_string i
  in
  let steps =
    List.mapi
      (fun k (_, tid, _, iid) ->
        let i = Ir.Program.instr_at program iid in
        {
          step_no = k + 1;
          tid;
          iid;
          loc = i.loc;
          text = text_for i;
          highlight = List.mem iid highlight_iids;
          value_note = value_note_for iid;
        })
      ordered
  in
  let threads = List.map fst per_thread in
  { bug_name; failure_type; failure; steps; threads; predictors = ranked }
