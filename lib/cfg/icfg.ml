(* Interprocedural CFG (call/return edges) extended with thread-creation
   and join edges: the paper's TICFG (§3.1, following Wu et al.).  A
   spawn edge is "a callsite with the thread start routine as the
   target"; a join edge returns from the routine's exits to the join
   site.  The slicer uses the site indexes; the explicit graph supports
   whole-program reachability and tests. *)

open Ir.Types

type node = string * int (* function name, block index *)

type edge_kind =
  | Intra
  | Call_edge of iid
  | Return_edge of iid
  | Spawn_edge of iid
  | Join_edge of iid

type t = {
  program : program;
  cfgs : (string, Cfg.t) Hashtbl.t;
  succs : (node, (node * edge_kind) list) Hashtbl.t;
  call_sites : (string, iid list) Hashtbl.t;  (* callee -> call iids *)
  spawn_sites : (string, iid list) Hashtbl.t; (* routine -> spawn iids *)
}

let cfg_of t fname =
  match Hashtbl.find_opt t.cfgs fname with
  | Some c -> c
  | None -> invalid "no CFG for function %s" fname

let add_edge tbl a b kind =
  let cur = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
  Hashtbl.replace tbl a ((b, kind) :: cur)

let add tbl key v =
  let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (v :: cur)

let build program =
  let cfgs = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace cfgs f.fname (Cfg.of_func f)) program.funcs;
  let succs = Hashtbl.create 64 in
  let call_sites = Hashtbl.create 16 and spawn_sites = Hashtbl.create 16 in
  let edge a b kind = add_edge succs a b kind in
  List.iter
    (fun f ->
      let cfg = Hashtbl.find cfgs f.fname in
      for b = 0 to Cfg.n_blocks cfg - 1 do
        let here = (f.fname, b) in
        List.iter (fun s -> edge here (f.fname, s) Intra) (Cfg.succs cfg b);
        Array.iter
          (fun i ->
            match i.kind with
            | Call (_, callee, _) ->
              add call_sites callee i.iid;
              edge here (callee, 0) (Call_edge i.iid);
              let callee_cfg = Hashtbl.find cfgs callee in
              List.iter
                (fun e -> edge (callee, e) here (Return_edge i.iid))
                (Cfg.exit_blocks callee_cfg)
            | Spawn (_, routine, _) ->
              add spawn_sites routine i.iid;
              edge here (routine, 0) (Spawn_edge i.iid)
            | Join _ ->
              (* Conservatively connect every spawned routine's exits to
                 every join site: TICFG overapproximates runtime
                 behaviour (§3.1). *)
              ()
            | _ -> ())
          (Cfg.block cfg b).instrs
      done)
    program.funcs;
  (* Join edges, now that all spawn sites are known. *)
  let t = { program; cfgs; succs; call_sites; spawn_sites } in
  List.iter
    (fun f ->
      let cfg = Hashtbl.find cfgs f.fname in
      for b = 0 to Cfg.n_blocks cfg - 1 do
        Array.iter
          (fun i ->
            match i.kind with
            | Join _ ->
              Hashtbl.iter
                (fun routine _ ->
                  let rcfg = Hashtbl.find cfgs routine in
                  List.iter
                    (fun e ->
                      add_edge succs (routine, e) (f.fname, b) (Join_edge i.iid))
                    (Cfg.exit_blocks rcfg))
                spawn_sites
            | _ -> ())
          (Cfg.block cfg b).instrs
      done)
    program.funcs;
  t

let successors t n = Option.value ~default:[] (Hashtbl.find_opt t.succs n)

let call_sites_of t callee =
  Option.value ~default:[] (Hashtbl.find_opt t.call_sites callee)

let spawn_sites_of t routine =
  Option.value ~default:[] (Hashtbl.find_opt t.spawn_sites routine)

(* All sites (calls and spawns) that bind the parameters of [fname]. *)
let binding_sites_of t fname = call_sites_of t fname @ spawn_sites_of t fname

(* Return instructions of a function. *)
let returns_of t fname =
  let f = Ir.Program.find_func t.program fname in
  List.filter (fun i -> match i.kind with Ret _ -> true | _ -> false)
    (Ir.Program.instrs_of_func f)

(* Whole-program reachable nodes from main's entry (over all edges). *)
let reachable_nodes t =
  let visited = Hashtbl.create 64 in
  let rec dfs n =
    if not (Hashtbl.mem visited n) then begin
      Hashtbl.replace visited n ();
      List.iter (fun (m, _) -> dfs m) (successors t n)
    end
  in
  dfs (t.program.main, 0);
  visited
