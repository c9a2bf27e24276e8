(* Graph, dominator/postdominator, control-dependence and ICFG/TICFG
   tests, including QCheck properties over random graphs. *)

module G = Analysis.Graph
module D = Analysis.Dom

(* diamond: 0 -> 1,2 -> 3 *)
let diamond_g = G.make 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* loop: 0 -> 1; 1 -> 2,3; 2 -> 1 *)
let loop_g = G.make 4 [ (0, 1); (1, 2); (1, 3); (2, 1) ]

let graph_tests =
  [
    Alcotest.test_case "make dedups edges" `Quick (fun () ->
        let g = G.make 2 [ (0, 1); (0, 1); (0, 1) ] in
        Alcotest.(check (list int)) "succs" [ 1 ] g.G.succs.(0);
        Alcotest.(check (list int)) "preds" [ 0 ] g.G.preds.(1));
    Alcotest.test_case "reverse swaps succs and preds" `Quick (fun () ->
        let g = G.reverse diamond_g in
        Alcotest.(check (list int)) "preds of 0" [ 1; 2 ] g.G.preds.(0));
    Alcotest.test_case "rpo starts at entry, ends at exit" `Quick (fun () ->
        match G.reverse_postorder diamond_g 0 with
        | 0 :: rest -> Alcotest.(check int) "last" 3 (List.nth rest 2)
        | _ -> Alcotest.fail "rpo must start at entry");
    Alcotest.test_case "reachable ignores disconnected nodes" `Quick (fun () ->
        let g = G.make 3 [ (0, 1) ] in
        let v = G.reachable g 0 in
        Alcotest.(check bool) "2 unreachable" false v.(2));
  ]

let dom_tests =
  [
    Alcotest.test_case "entry dominates everything (diamond)" `Quick (fun () ->
        let d = D.compute diamond_g 0 in
        List.iter
          (fun v -> Alcotest.(check bool) "dom" true (D.dominates d 0 v))
          [ 0; 1; 2; 3 ]);
    Alcotest.test_case "branch arms do not dominate the merge" `Quick (fun () ->
        let d = D.compute diamond_g 0 in
        Alcotest.(check bool) "1 !dom 3" false (D.dominates d 1 3);
        Alcotest.(check bool) "2 !dom 3" false (D.dominates d 2 3));
    Alcotest.test_case "idom of merge is the branch" `Quick (fun () ->
        let d = D.compute diamond_g 0 in
        Alcotest.(check (option int)) "idom 3" (Some 0) (D.idom d 3));
    Alcotest.test_case "strict dominance is irreflexive" `Quick (fun () ->
        let d = D.compute diamond_g 0 in
        Alcotest.(check bool) "0 !sdom 0" false (D.strictly_dominates d 0 0));
    Alcotest.test_case "loop header dominates body" `Quick (fun () ->
        let d = D.compute loop_g 0 in
        Alcotest.(check bool) "1 dom 2" true (D.dominates d 1 2);
        Alcotest.(check bool) "2 !dom 1" false (D.dominates d 2 1));
    Alcotest.test_case "postdominators: merge postdominates the arms" `Quick
      (fun () ->
        let p = D.compute_post diamond_g in
        Alcotest.(check bool) "3 pdom 1" true (D.postdominates p 3 1);
        Alcotest.(check bool) "3 pdom 0" true (D.postdominates p 3 0);
        Alcotest.(check bool) "1 !pdom 0" false (D.postdominates p 1 0));
    Alcotest.test_case "ipdom of the branch is the merge" `Quick (fun () ->
        let p = D.compute_post diamond_g in
        Alcotest.(check (option int)) "ipdom 0" (Some 3) (D.ipdom p 0));
    Alcotest.test_case "ipdom of exit is the virtual exit (None)" `Quick
      (fun () ->
        let p = D.compute_post diamond_g in
        Alcotest.(check (option int)) "ipdom 3" None (D.ipdom p 3));
    Alcotest.test_case "postdominators total on an infinite loop" `Quick
      (fun () ->
        let g = G.make 2 [ (0, 1); (1, 0) ] in
        let p = D.compute_post g in
        (* No natural exit: every node is connected to the virtual exit. *)
        Alcotest.(check bool) "reachable" true (D.reachable p.D.dom 0));
  ]

(* Random DAG-ish graphs for property testing: node k gets an edge from
   some earlier node, plus extra random edges (possibly back edges). *)
let random_graph_gen =
  QCheck.Gen.(
    sized_size (int_range 2 24) (fun n ->
        let* extra = list_size (int_range 0 (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
        let* spine =
          flatten_l (List.init (n - 1) (fun k -> map (fun p -> (p mod (k + 1), k + 1)) (int_bound k)))
        in
        return (n, spine @ extra)))

let arbitrary_graph =
  QCheck.make ~print:(fun (n, e) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) e)))
    random_graph_gen

let qcheck_dom =
  [
    QCheck.Test.make ~name:"entry dominates every reachable node" ~count:200
      arbitrary_graph (fun (n, edges) ->
        let g = G.make n edges in
        let d = D.compute g 0 in
        let reach = G.reachable g 0 in
        Array.to_list (Array.mapi (fun v r -> (v, r)) reach)
        |> List.for_all (fun (v, r) -> (not r) || D.dominates d 0 v));
    QCheck.Test.make ~name:"idom is a strict dominator" ~count:200
      arbitrary_graph (fun (n, edges) ->
        let g = G.make n edges in
        let d = D.compute g 0 in
        List.init n Fun.id
        |> List.for_all (fun v ->
            match D.idom d v with
            | None -> true
            | Some p -> D.strictly_dominates d p v));
    QCheck.Test.make ~name:"dominance is antisymmetric" ~count:200
      arbitrary_graph (fun (n, edges) ->
        let g = G.make n edges in
        let d = D.compute g 0 in
        List.init n Fun.id
        |> List.for_all (fun v ->
            List.init n Fun.id
            |> List.for_all (fun w ->
                v = w
                || not (D.dominates d v w && D.dominates d w v))));
    QCheck.Test.make ~name:"postdominator analysis never raises" ~count:200
      arbitrary_graph (fun (n, edges) ->
        let g = G.make n edges in
        let _ = D.compute_post g in
        true);
  ]

let cfg_tests =
  let prog = Tsupport.Programs.diamond in
  let f = Ir.Program.find_func prog "main" in
  let cfg = Analysis.Cfg.of_func f in
  [
    Alcotest.test_case "block structure of the diamond" `Quick (fun () ->
        Alcotest.(check int) "4 blocks" 4 (Analysis.Cfg.n_blocks cfg);
        Alcotest.(check (list int)) "entry succs" [ 1; 2 ] (Analysis.Cfg.succs cfg 0);
        Alcotest.(check (list int)) "merge preds" [ 1; 2 ] (Analysis.Cfg.preds cfg 3));
    Alcotest.test_case "exit blocks end in ret" `Quick (fun () ->
        Alcotest.(check (list int)) "exits" [ 3 ] (Analysis.Cfg.exit_blocks cfg));
    Alcotest.test_case "instruction-level strict dominance" `Quick (fun () ->
        (* within entry block: instr 0 sdom instr 1 *)
        Alcotest.(check bool) "in-block" true
          (Analysis.Cfg.instr_strictly_dominates cfg (0, 0) (0, 1));
        Alcotest.(check bool) "across arms" false
          (Analysis.Cfg.instr_strictly_dominates cfg (1, 0) (2, 0)));
    Alcotest.test_case "control deps: arms depend on the branch" `Quick
      (fun () ->
        let deps = Analysis.Cfg.control_deps cfg in
        Alcotest.(check (list int)) "pos dep" [ 0 ] deps.(1);
        Alcotest.(check (list int)) "neg dep" [ 0 ] deps.(2);
        Alcotest.(check (list int)) "merge has no dep" [] deps.(3));
    Alcotest.test_case "control deps in a loop: body depends on header" `Quick
      (fun () ->
        let lf = Ir.Program.find_func Tsupport.Programs.loop_sum "main" in
        let lcfg = Analysis.Cfg.of_func lf in
        let deps = Analysis.Cfg.control_deps lcfg in
        (* blocks: 0 entry, 1 loop, 2 body, 3 out *)
        Alcotest.(check (list int)) "body dep on loop" [ 1 ] deps.(2));
    Alcotest.test_case "find_iid locates instructions" `Quick (fun () ->
        List.iter
          (fun (x : Ir.Types.instr) ->
            let pos = Ir.Program.position_of prog x.iid in
            if pos.p_func = "main" then
              match Analysis.Cfg.find_iid cfg x.iid with
              | Some (b, k) ->
                Alcotest.(check int) "block" pos.p_block b;
                Alcotest.(check int) "index" pos.p_index k
              | None -> Alcotest.fail "not found")
          (Ir.Program.all_instrs prog));
  ]

let icfg_tests =
  let prog = Tsupport.Programs.call_chain in
  let icfg = Analysis.Icfg.build prog in
  [
    Alcotest.test_case "call sites recorded" `Quick (fun () ->
        Alcotest.(check int) "one call of g" 1
          (List.length (Analysis.Icfg.call_sites_of icfg "g"));
        Alcotest.(check int) "one call of f" 1
          (List.length (Analysis.Icfg.call_sites_of icfg "f")));
    Alcotest.test_case "returns_of finds ret instructions" `Quick (fun () ->
        Alcotest.(check int) "g has one ret" 1
          (List.length (Analysis.Icfg.returns_of icfg "g")));
    Alcotest.test_case "whole program reachable from main" `Quick (fun () ->
        let v = Analysis.Icfg.reachable_nodes icfg in
        Alcotest.(check bool) "g entry reachable" true (Hashtbl.mem v ("g", 0)));
    Alcotest.test_case "TICFG: spawn edges make thread routines reachable"
      `Quick (fun () ->
        let p = Tsupport.Programs.counter ~locked:true in
        let ti = Analysis.Icfg.build p in
        Alcotest.(check int) "spawn sites" 2
          (List.length (Analysis.Icfg.spawn_sites_of ti "worker"));
        let v = Analysis.Icfg.reachable_nodes ti in
        Alcotest.(check bool) "worker reachable" true
          (Hashtbl.mem v ("worker", 0)));
    Alcotest.test_case "binding sites include spawns" `Quick (fun () ->
        let p = Tsupport.Programs.counter ~locked:false in
        let ti = Analysis.Icfg.build p in
        Alcotest.(check int) "worker bound twice" 2
          (List.length (Analysis.Icfg.binding_sites_of ti "worker")));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("graph", graph_tests);
      ("dominators", dom_tests);
      ("dominators-qcheck", List.map QCheck_alcotest.to_alcotest qcheck_dom);
      ("cfg", cfg_tests);
      ("icfg", icfg_tests);
    ]
