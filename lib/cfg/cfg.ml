(* Per-function control-flow graph over basic blocks, with the
   dominance structures Gist's instrumentation placement needs. *)

open Ir.Types

type t = {
  func : func;
  graph : Graph.t;
  dom : Dom.t;
  post : Dom.post;
}

let of_func f =
  let n = Array.length f.blocks in
  let label_index = Hashtbl.create n in
  Array.iteri (fun i b -> Hashtbl.replace label_index b.label i) f.blocks;
  let idx l =
    match Hashtbl.find_opt label_index l with
    | Some i -> i
    | None -> invalid "unknown label %s in %s" l f.fname
  in
  let edges = ref [] in
  Array.iteri
    (fun bi b ->
      let last = b.instrs.(Array.length b.instrs - 1) in
      match last.kind with
      | Jmp l -> edges := (bi, idx l) :: !edges
      | Branch (_, t, e) -> edges := (bi, idx t) :: (bi, idx e) :: !edges
      | Ret _ -> ()
      | _ -> ())
    f.blocks;
  let graph = Graph.make n !edges in
  let dom = Dom.compute graph 0 in
  let post = Dom.compute_post graph in
  { func = f; graph; dom; post }

let n_blocks t = t.graph.Graph.n
let succs t b = t.graph.Graph.succs.(b)
let preds t b = t.graph.Graph.preds.(b)
let block t b = t.func.blocks.(b)

let exit_blocks t =
  let l = ref [] in
  for b = n_blocks t - 1 downto 0 do
    if succs t b = [] then l := b :: !l
  done;
  !l

(* A program point is (block, index). *)

let find_iid t iid =
  let found = ref None in
  Array.iteri
    (fun bi bl ->
      Array.iteri (fun k i -> if i.iid = iid then found := Some (bi, k)) bl.instrs)
    t.func.blocks;
  !found

(* Does instruction [a] strictly dominate instruction [b]?  Within a
   block this is textual order; across blocks it is block dominance. *)
let instr_strictly_dominates t (ba, ka) (bb, kb) =
  if ba = bb then ka < kb else Dom.strictly_dominates t.dom ba bb

(* Control dependence: block [b] is control-dependent on block [a] when
   [a] has a successor [x] such that [b] postdominates [x] but [b] does
   not strictly postdominate [a].  Computed by walking the
   postdominator tree from each edge target up to (exclusive) the
   ipdom of the edge source (Ferrante-Ottenstein-Warren). *)
let control_deps t =
  let deps = Array.make (n_blocks t) [] in
  for a = 0 to n_blocks t - 1 do
    if List.length (succs t a) > 1 then begin
      (* Walk each successor up the postdominator tree until (exclusive)
         the ipdom of [a]; every node passed is control-dependent on [a]. *)
      let stop = Dom.ipdom t.post a in
      List.iter
        (fun x ->
          let rec walk v =
            if stop <> Some v then begin
              if v <> a then deps.(v) <- a :: deps.(v);
              match Dom.ipdom t.post v with
              | Some p -> walk p
              | None -> ()
            end
          in
          walk x)
        (succs t a)
    end
  done;
  Array.map (List.sort_uniq compare) deps

(* The branch instructions that decide whether block [b] executes. *)
let controlling_branches t =
  let deps = control_deps t in
  Array.map
    (fun controllers ->
      List.filter_map
        (fun a ->
          let bl = block t a in
          let last = bl.instrs.(Array.length bl.instrs - 1) in
          match last.kind with Branch _ -> Some last | _ -> None)
        controllers)
    deps
