(* Dominators via the Cooper-Harvey-Kennedy iterative algorithm, plus
   postdominators on the reversed graph with a virtual exit node.
   Gist needs strict dominance (to elide redundant PT start points),
   immediate postdominators (to place PT stop points) and immediate
   dominators (to place watchpoint arming points). *)

(* [idom.(v)] is the immediate dominator of [v]; [idom.(entry) = entry];
   unreachable nodes carry [-1]. *)
type t = { entry : int; idom : int array }

let compute (g : Graph.t) entry =
  let rpo = Graph.reverse_postorder g entry in
  let rpo_index = Array.make g.n (-1) in
  List.iteri (fun k v -> rpo_index.(v) <- k) rpo;
  let idom = Array.make g.n (-1) in
  idom.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v <> entry then begin
          let processed_preds =
            List.filter (fun p -> idom.(p) <> -1) g.preds.(v)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(v) <> new_idom then begin
              idom.(v) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  { entry; idom }

let idom t v = if v = t.entry then None else
  match t.idom.(v) with -1 -> None | d -> Some d

let reachable t v = t.idom.(v) <> -1

(* Does [a] dominate [b]?  (Reflexive.) *)
let dominates t a b =
  if t.idom.(b) = -1 || t.idom.(a) = -1 then false
  else
    let rec up v = if v = a then true else if v = t.entry then false
      else up t.idom.(v)
    in
    up b

let strictly_dominates t a b = a <> b && dominates t a b

(* Postdominator analysis: reverse the graph and add a virtual exit node
   (index [g.n]) with edges from every natural exit (no successors).
   If there is no natural exit (e.g. an infinite loop), every node is
   connected to the virtual exit so the analysis stays total. *)
type post = { vexit : int; dom : t }

let compute_post (g : Graph.t) =
  let vexit = g.n in
  let exits =
    let l = ref [] in
    for v = 0 to g.n - 1 do
      if g.succs.(v) = [] then l := v :: !l
    done;
    if !l = [] then List.init g.n Fun.id else !l
  in
  let edges = ref [] in
  for v = 0 to g.n - 1 do
    List.iter (fun s -> edges := (v, s) :: !edges) g.succs.(v)
  done;
  List.iter (fun e -> edges := (e, vexit) :: !edges) exits;
  let g' = Graph.make (g.n + 1) !edges in
  let rg = Graph.reverse g' in
  { vexit; dom = compute rg vexit }

let postdominates p a b = dominates p.dom a b

(* Immediate postdominator; [None] when it is the virtual exit. *)
let ipdom p v =
  match idom p.dom v with
  | Some d when d <> p.vexit -> Some d
  | _ -> None
