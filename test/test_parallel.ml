(* The parallel execution layer: the domain pool's ordering and
   nesting guarantees, the bit-identical parallel [Server.diagnose],
   and the memoised analysis cache. *)

module Pool = Parallel.Pool

(* ------------------------------------------------------------------ *)
(* Pool semantics. *)

let squares n = List.init n (fun i -> i * i)

let pool_map =
  let case jobs =
    Alcotest.test_case
      (Printf.sprintf "map with %d domains equals sequential map" jobs)
      `Quick (fun () ->
        Pool.with_pool ~jobs (fun p ->
            Alcotest.(check (list int))
              "ordered results" (squares 40)
              (Pool.map p (fun i -> i * i) (List.init 40 Fun.id))))
  in
  [
    case 0;
    case 1;
    case 2;
    case 4;
    Alcotest.test_case "map_array keeps submission order under load" `Quick
      (fun () ->
        Pool.with_pool ~jobs:3 (fun p ->
            (* Unequal task costs: completion order differs from
               submission order, results must not. *)
            let xs = Array.init 24 (fun i -> i) in
            let out =
              Pool.map_array p
                (fun i ->
                  let spin = if i mod 3 = 0 then 20_000 else 10 in
                  let acc = ref 0 in
                  for k = 1 to spin do acc := (!acc + (k * i)) mod 65536 done;
                  ignore !acc;
                  i)
                xs
            in
            Alcotest.(check (list int))
              "identity preserved" (Array.to_list xs) (Array.to_list out)));
    Alcotest.test_case "first exception in submission order is re-raised"
      `Quick (fun () ->
        Pool.with_pool ~jobs:2 (fun p ->
            match
              Pool.map p
                (fun i -> if i >= 5 then failwith (string_of_int i) else i)
                (List.init 10 Fun.id)
            with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg ->
              Alcotest.(check string) "earliest failing index" "5" msg));
    Alcotest.test_case "nested maps on one pool do not deadlock" `Quick
      (fun () ->
        Pool.with_pool ~jobs:2 (fun p ->
            let out =
              Pool.map p
                (fun i ->
                  List.fold_left ( + ) 0
                    (Pool.map p (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
                [ 0; 1; 2; 3 ]
            in
            Alcotest.(check (list int))
              "nested results" [ 6; 36; 66; 96 ] out));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel diagnosis is bit-identical to sequential diagnosis. *)

let diagnose ?pool (bug : Bugbase.Common.t) =
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let config =
    { Gist.Config.default with Gist.Config.preempt_prob = bug.preempt_prob }
  in
  Gist.Server.diagnose ~config ?pool
    ~oracle:(Experiments.Oracle.for_bug bug)
    ~bug_name:bug.name ~failure_type:bug.failure_type ~program:bug.program
    ~workload_of:bug.workload_of ~failure ()

let check_identical name (a : Gist.Server.diagnosis) (b : Gist.Server.diagnosis)
    =
  Alcotest.(check (list int))
    (name ^ ": sketch statements")
    (Fsketch.Sketch.iids a.sketch)
    (Fsketch.Sketch.iids b.sketch);
  Alcotest.(check int) (name ^ ": recurrences") a.recurrences b.recurrences;
  Alcotest.(check int) (name ^ ": total runs") a.total_runs b.total_runs;
  Alcotest.(check int) (name ^ ": iterations") a.iterations b.iterations;
  Alcotest.(check int) (name ^ ": final sigma") a.final_sigma b.final_sigma;
  Alcotest.(check (list int)) (name ^ ": tracked") a.tracked b.tracked;
  List.iter2
    (fun (x : Gist.Server.iteration_info) (y : Gist.Server.iteration_info) ->
      Alcotest.(check int) (name ^ ": trace sigma") x.it_sigma y.it_sigma;
      Alcotest.(check int) (name ^ ": trace fails") x.it_fails y.it_fails;
      Alcotest.(check int) (name ^ ": trace succs") x.it_succs y.it_succs;
      Alcotest.(check int) (name ^ ": trace clients") x.it_clients y.it_clients)
    a.trace b.trace;
  Alcotest.(check (float 1e-9))
    (name ^ ": overhead")
    a.avg_overhead_pct b.avg_overhead_pct

let parallel_diagnose =
  let case (bug : Bugbase.Common.t) jobs =
    Alcotest.test_case
      (Printf.sprintf "%s with %d domains equals sequential" bug.name jobs)
      `Quick (fun () ->
        let seq = diagnose bug in
        Pool.with_pool ~jobs (fun pool ->
            check_identical bug.name seq (diagnose ~pool bug)))
  in
  [
    case Bugbase.Pbzip2.bug 2;
    case Bugbase.Curl.bug 2;
    case Bugbase.Transmission.bug 3;
    case Bugbase.Sqlite.bug 2;
  ]

(* ------------------------------------------------------------------ *)
(* The analysis cache. *)

let cache =
  [
    Alcotest.test_case "second lookup is a hit on the same graph" `Quick
      (fun () ->
        Analysis.Cache.clear ();
        let p = Bugbase.Pbzip2.bug.program in
        let g1 = Analysis.Cache.icfg p in
        let h0 = Analysis.Cache.hits () in
        let g2 = Analysis.Cache.icfg p in
        Alcotest.(check bool) "same graph instance" true (g1 == g2);
        Alcotest.(check int) "one more hit" (h0 + 1) (Analysis.Cache.hits ());
        Alcotest.(check int) "single miss" 1 (Analysis.Cache.misses ()));
    Alcotest.test_case "cached graphs equal a fresh build" `Quick (fun () ->
        let p = Bugbase.Curl.bug.program in
        let cached = Analysis.Cache.icfg p in
        let fresh = Analysis.Icfg.build p in
        List.iter
          (fun (f : Ir.Types.func) ->
            let c = Analysis.Icfg.cfg_of cached f.fname in
            let d = Analysis.Icfg.cfg_of fresh f.fname in
            Alcotest.(check int)
              (f.fname ^ ": block count")
              (Analysis.Cfg.n_blocks d) (Analysis.Cfg.n_blocks c);
            for b = 0 to Analysis.Cfg.n_blocks c - 1 do
              Alcotest.(check (list int))
                (Printf.sprintf "%s: succs of %d" f.fname b)
                (Analysis.Cfg.succs d b) (Analysis.Cfg.succs c b);
              Alcotest.(check (list int))
                (Printf.sprintf "%s: preds of %d" f.fname b)
                (Analysis.Cfg.preds d b) (Analysis.Cfg.preds c b)
            done)
          p.funcs;
        Alcotest.(check int)
          "reachable nodes"
          (Hashtbl.length (Analysis.Icfg.reachable_nodes fresh))
          (Hashtbl.length (Analysis.Icfg.reachable_nodes cached)));
    Alcotest.test_case "slicer and placer share one build per program"
      `Quick (fun () ->
        Analysis.Cache.clear ();
        let bug = Bugbase.Pbzip2.bug in
        let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
        let slice = Slicing.Slicer.compute bug.program failure in
        let tracked = Slicing.Slicer.take slice 4 in
        let _ = Instrument.Place.compute bug.program tracked in
        let _ = Instrument.Place.compute bug.program tracked in
        Alcotest.(check int) "one build" 1 (Analysis.Cache.misses ());
        Alcotest.(check bool) "hits accumulated" true
          (Analysis.Cache.hits () >= 2));
    Alcotest.test_case "concurrent lookups from pool workers are safe"
      `Quick (fun () ->
        Analysis.Cache.clear ();
        let programs =
          [
            Bugbase.Pbzip2.bug.program;
            Bugbase.Curl.bug.program;
            Bugbase.Sqlite.bug.program;
          ]
        in
        Pool.with_pool ~jobs:3 (fun p ->
            let counts =
              Pool.map p
                (fun prog ->
                  List.init 8 (fun _ ->
                      Hashtbl.length
                        (Analysis.Icfg.reachable_nodes
                           (Analysis.Cache.icfg prog)))
                  |> List.sort_uniq compare |> List.length)
                (programs @ programs)
            in
            List.iter
              (Alcotest.(check int) "stable reachable-node count" 1)
              counts);
        Alcotest.(check int) "three programs, three builds" 3
          (Analysis.Cache.misses ()));
  ]

let () =
  Alcotest.run "parallel"
    [
      ("pool-map", pool_map);
      ("parallel-diagnose", parallel_diagnose);
      ("analysis-cache", cache);
    ]
