(* Bugbase sanity: all 11 Table 1 bugs are well-formed, trigger their
   target failure under some production workload, and also run
   successfully under others (Gist needs both populations). *)

module I = Exec.Interp

let bugs = Bugbase.Registry.all

let registry =
  [
    Alcotest.test_case "eleven bugs, like Table 1" `Quick (fun () ->
        Alcotest.(check int) "count" 11 (List.length bugs));
    Alcotest.test_case "names are unique" `Quick (fun () ->
        let names = Bugbase.Registry.names in
        Alcotest.(check int) "unique" (List.length names)
          (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "find is case-insensitive" `Quick (fun () ->
        match Bugbase.Registry.find "pbzip2" with
        | Some b -> Alcotest.(check string) "name" "Pbzip2" b.name
        | None -> Alcotest.fail "not found");
    Alcotest.test_case "expected mix of bug classes" `Quick (fun () ->
        let seq, conc =
          List.partition
            (fun (b : Bugbase.Common.t) -> b.bug_class = Bugbase.Common.Sequential)
            bugs
        in
        Alcotest.(check int) "3 sequential" 3 (List.length seq);
        Alcotest.(check int) "8 concurrency" 8 (List.length conc));
  ]

let per_bug_case (bug : Bugbase.Common.t) =
  Alcotest.test_case bug.name `Quick (fun () ->
      (* Both populations exist among production workloads. *)
      let fails = ref 0 and succs = ref 0 and target = ref 0 in
      for c = 0 to 149 do
        let res =
          I.run ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of c)
        in
        match res.I.outcome with
        | I.Success -> incr succs
        | I.Failed rep ->
          incr fails;
          if Bugbase.Common.is_target_failure bug rep then incr target
      done;
      Alcotest.(check bool) "some successes" true (!succs > 0);
      Alcotest.(check bool) "some failures" true (!fails > 0);
      Alcotest.(check bool) "successes dominate (in-production bug)" true
        (!succs > !fails);
      (* The target failure manifests at the declared kind and line. *)
      (match Bugbase.Common.find_target_failure ~max_runs:2000 bug with
       | None -> Alcotest.fail "target failure unreachable"
       | Some (_, rep) ->
         Alcotest.(check string) "kind" bug.target_kind_tag
           (Exec.Failure.kind_tag rep.kind);
         Alcotest.(check int) "line" bug.target_line
           (Ir.Program.loc_of bug.program rep.pc).line);
      (* Ideal sketch is well-formed and contains the root cause. *)
      let ideal = Bugbase.Common.ideal bug in
      Alcotest.(check bool) "ideal non-empty" true (ideal.i_iids <> []);
      let root = Bugbase.Common.root_cause_iids bug in
      Alcotest.(check bool) "root non-empty" true (root <> []);
      List.iter
        (fun iid ->
          if not (List.mem iid ideal.i_iids) then
            Alcotest.failf "root iid %d not in ideal" iid)
        root)

let per_bug = List.map per_bug_case bugs

let determinism =
  [
    Alcotest.test_case "workloads are deterministic per client index" `Quick
      (fun () ->
        List.iter
          (fun (bug : Bugbase.Common.t) ->
            let a = bug.workload_of 7 and b = bug.workload_of 7 in
            Alcotest.(check int) "seed" a.I.seed b.I.seed)
          bugs);
    Alcotest.test_case "client seeds are spread" `Quick (fun () ->
        let seeds = List.init 100 Exec.Interp.seed_of_client in
        Alcotest.(check int) "distinct" 100
          (List.length (List.sort_uniq compare seeds)));
  ]

let () =
  Alcotest.run "bugbase"
    [
      ("registry", registry);
      ("per-bug", per_bug);
      ("determinism", determinism);
    ]
