(* Interpreter tests: evaluation, control flow, calls, memory-failure
   detection, threading, scheduling determinism, and the cost counters. *)

open Tsupport.Programs
module I = Exec.Interp
module V = Exec.Value

let arithmetic =
  let module B = Ir.Builder in
  let i = B.file "a.c" in
  let r = B.r and im = B.im in
  let prog expr =
    Ir.Program.make ~main:"main"
      [
        B.func "main" ~params:[ "a" ]
          [
            B.block "entry"
              [
                i 1 "" (Ir.Types.Assign ("x", expr));
                i 2 "" (Ir.Types.Builtin (None, "print", [ r "x" ]));
                i 3 "" (Ir.Types.Ret None);
              ];
          ];
      ]
  in
  let eval expr arg =
    let res = run ~args:[ V.VInt arg ] (prog expr) in
    match (res.I.outcome, res.I.output) with
    | I.Success, [ s ] -> s
    | I.Failed rep, _ -> Exec.Failure.kind_tag rep.kind
    | _ -> "?"
  in
  [
    Alcotest.test_case "add/sub/mul/div/mod" `Quick (fun () ->
        Alcotest.(check string) "add" "10" (eval (B.( +% ) (r "a") (im 3)) 7);
        Alcotest.(check string) "sub" "4" (eval (B.( -% ) (r "a") (im 3)) 7);
        Alcotest.(check string) "mul" "21" (eval (B.( *% ) (r "a") (im 3)) 7);
        Alcotest.(check string) "div" "2" (eval (B.( /% ) (r "a") (im 3)) 7);
        Alcotest.(check string) "mod" "1"
          (eval (Ir.Types.Bin (Ir.Types.Mod, r "a", im 3)) 7));
    Alcotest.test_case "division by zero fails with the right kind" `Quick
      (fun () ->
        Alcotest.(check string) "kind" "div-by-zero"
          (eval (B.( /% ) (r "a") (im 0)) 7));
    Alcotest.test_case "comparisons produce 0/1" `Quick (fun () ->
        Alcotest.(check string) "lt" "1" (eval (B.( <% ) (r "a") (im 10)) 7);
        Alcotest.(check string) "ge" "0" (eval (B.( >=% ) (r "a") (im 10)) 7);
        Alcotest.(check string) "eq" "1" (eval (B.( =% ) (r "a") (im 7)) 7));
    Alcotest.test_case "boolean operators use truthiness" `Quick (fun () ->
        Alcotest.(check string) "and" "1" (eval (B.( &&% ) (r "a") (im 5)) 7);
        Alcotest.(check string) "and0" "0" (eval (B.( &&% ) (r "a") (im 0)) 7);
        Alcotest.(check string) "or" "1" (eval (B.( ||% ) (im 0) (r "a")) 7);
        Alcotest.(check string) "not" "0" (eval (Ir.Types.Not (r "a")) 7));
    Alcotest.test_case "null equals integer zero (C semantics)" `Quick
      (fun () ->
        Alcotest.(check string) "eq" "1" (eval (B.( =% ) Ir.Types.Null (im 0)) 1));
  ]

let control_flow =
  [
    Alcotest.test_case "diamond takes both arms without failing" `Quick
      (fun () ->
        let res = run ~args:[ V.VInt 5 ] diamond in
        Alcotest.(check bool) "success" true (res.I.outcome = I.Success);
        let res2 = run ~args:[ V.VInt (-5) ] diamond in
        Alcotest.(check bool) "success" true (res2.I.outcome = I.Success));
    Alcotest.test_case "loop executes its trip count" `Quick (fun () ->
        let res = run ~args:[ V.VInt 10 ] loop_sum in
        Alcotest.(check bool) "success" true (res.I.outcome = I.Success);
        Alcotest.(check bool) "branches" true (res.I.counters.branches >= 10));
    Alcotest.test_case "call chain returns through frames" `Quick (fun () ->
        let res = run ~args:[ V.VInt 4 ] call_chain in
        Alcotest.(check bool) "success" true (res.I.outcome = I.Success));
    Alcotest.test_case "recursion (factorial) terminates" `Quick (fun () ->
        let res = run ~args:[ V.VInt 6 ] factorial in
        Alcotest.(check bool) "success" true (res.I.outcome = I.Success));
    Alcotest.test_case "hang detector fires on infinite loops" `Quick
      (fun () ->
        let res = run ~max_steps:5_000 infinite in
        Alcotest.(check string) "hang" "hang" (failure_kind_tag res));
  ]

let memory =
  [
    Alcotest.test_case "null dereference is a segfault at the load" `Quick
      (fun () ->
        let res = run null_deref in
        Alcotest.(check string) "kind" "segfault" (failure_kind_tag res);
        match res.I.outcome with
        | I.Failed rep ->
          let loc = Ir.Program.loc_of null_deref rep.pc in
          Alcotest.(check int) "line" 2 loc.line
        | _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "use after free detected" `Quick (fun () ->
        Alcotest.(check string) "kind" "use-after-free"
          (failure_kind_tag (run uaf)));
    Alcotest.test_case "double free detected" `Quick (fun () ->
        Alcotest.(check string) "kind" "double-free"
          (failure_kind_tag (run double_free)));
    Alcotest.test_case "memory module unit behaviour" `Quick (fun () ->
        let m = Exec.Memory.create () in
        let base = Exec.Memory.alloc m 3 in
        Alcotest.(check bool) "store ok" true
          (Exec.Memory.store m (base + 2) (V.VInt 9) = Ok ());
        Alcotest.(check bool) "load back" true
          (Exec.Memory.load m (base + 2) = Ok (V.VInt 9));
        Alcotest.(check bool) "red zone unmapped" true
          (Exec.Memory.load m (base + 3) = Error Exec.Memory.Fail_segv);
        Alcotest.(check bool) "free ok" true (Exec.Memory.free m base = Ok ());
        Alcotest.(check bool) "uaf" true
          (Exec.Memory.load m base = Error Exec.Memory.Fail_uaf);
        Alcotest.(check bool) "double free" true
          (Exec.Memory.free m base = Error Exec.Memory.Fail_dfree));
    Alcotest.test_case "failure report carries the stack trace" `Quick
      (fun () ->
        match (run ~args:[ V.VStr "{}{" ] Bugbase.Curl.program).I.outcome with
        | I.Failed rep ->
          Alcotest.(check (list string)) "stack"
            [ "next_url"; "operate"; "main" ] rep.stack
        | I.Success -> Alcotest.fail "expected the curl crash");
  ]

(* Last shared read of the run (used to recover main's final counter read). *)
let last_read (res : I.result) =
  List.fold_left
    (fun acc (a : I.access) -> if a.a_rw = I.Read then Some a.a_value else acc)
    None res.I.accesses

let threading =
  [
    Alcotest.test_case "locked counter never loses updates" `Quick (fun () ->
        let p = counter ~locked:true in
        for seed = 0 to 30 do
          let res =
            Exec.Interp.run ~record_gt:true p
              (I.workload ~args:[ V.VInt 6 ] seed)
          in
          match res.I.outcome with
          | I.Failed rep ->
            Alcotest.failf "seed %d failed: %s" seed
              (Exec.Failure.report_to_string rep)
          | I.Success ->
            Alcotest.(check bool) "12" true (last_read res = Some (V.VInt 12))
        done);
    Alcotest.test_case "unlocked counter loses updates for some seed" `Quick
      (fun () ->
        let p = counter ~locked:false in
        let lost = ref false in
        for seed = 0 to 60 do
          let res =
            Exec.Interp.run ~record_gt:true p
              (I.workload ~args:[ V.VInt 6 ] seed)
          in
          if last_read res <> Some (V.VInt 12) then lost := true
        done;
        Alcotest.(check bool) "a lost update was observed" true !lost);
    Alcotest.test_case "deadlock detected when locks cross" `Quick (fun () ->
        let hit = ref false in
        for seed = 0 to 40 do
          if failure_kind_tag (run ~seed deadlock) = "deadlock" then hit := true
        done;
        Alcotest.(check bool) "deadlock seen" true !hit);
    Alcotest.test_case "spawn assigns fresh thread ids" `Quick (fun () ->
        let p = counter ~locked:true in
        let res = run ~record_gt:true ~args:[ V.VInt 1 ] p in
        let tids = List.map fst res.I.executed |> List.sort_uniq compare in
        Alcotest.(check (list int)) "three threads" [ 0; 1; 2 ] tids);
    Alcotest.test_case "shared access log is globally ordered" `Quick
      (fun () ->
        let res = run ~record_gt:true ~args:[ V.VInt 3 ] (counter ~locked:false) in
        let seqs = List.map (fun (a : I.access) -> a.a_seq) res.I.accesses in
        Alcotest.(check (list int)) "monotone" (List.sort compare seqs) seqs);
  ]

let determinism =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"same seed, same execution" ~count:40
         QCheck.(pair (int_bound 1000) (int_range 1 6))
         (fun (seed, n) ->
           let p = counter ~locked:false in
           let go () =
             Exec.Interp.run ~record_gt:true p
               (I.workload ~args:[ V.VInt n ] seed)
           in
           let a = go () and b = go () in
           a.I.steps = b.I.steps
           && a.I.executed = b.I.executed
           && a.I.outcome = b.I.outcome));
    Alcotest.test_case "different seeds diversify schedules" `Quick (fun () ->
        let p = counter ~locked:false in
        let runs =
          List.init 20 (fun seed ->
              (Exec.Interp.run ~record_gt:true p
                 (I.workload ~args:[ V.VInt 4 ] seed))
                .I.executed)
        in
        Alcotest.(check bool) "several distinct schedules" true
          (List.sort_uniq compare runs |> List.length > 1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"rng: int bound respected" ~count:500
         QCheck.(pair int (int_range 1 1000))
         (fun (seed, bound) ->
           let rng = Exec.Rng.create seed in
           let v = Exec.Rng.int rng bound in
           v >= 0 && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"rng: float in [0,1)" ~count:500 QCheck.int
         (fun seed ->
           let rng = Exec.Rng.create seed in
           let f = Exec.Rng.float rng in
           f >= 0.0 && f < 1.0));
  ]

let builtins =
  let module B = Ir.Builder in
  let i = B.file "b.c" in
  let prog name args =
    Ir.Program.make ~main:"main"
      [
        B.func "main" ~params:[ "a" ]
          [
            B.block "entry"
              [
                i 1 "" (Ir.Types.Builtin (Some "x", name, args));
                i 2 "" (Ir.Types.Builtin (None, "print", [ B.r "x" ]));
                i 3 "" (Ir.Types.Ret None);
              ];
          ];
      ]
  in
  let eval name args arg =
    let res = run ~args:[ arg ] (prog name args) in
    match (res.I.outcome, res.I.output) with
    | I.Success, [ s ] -> s
    | I.Failed rep, _ -> Exec.Failure.kind_tag rep.kind
    | _ -> "?"
  in
  [
    Alcotest.test_case "strlen" `Quick (fun () ->
        Alcotest.(check string) "len" "5"
          (eval "strlen" [ B.r "a" ] (V.VStr "hello")));
    Alcotest.test_case "strlen(NULL) segfaults" `Quick (fun () ->
        Alcotest.(check string) "segv" "segfault"
          (eval "strlen" [ B.r "a" ] V.VNull));
    Alcotest.test_case "str_char in and out of range" `Quick (fun () ->
        Alcotest.(check string) "h" (string_of_int (Char.code 'h'))
          (eval "str_char" [ B.r "a"; B.im 0 ] (V.VStr "hi"));
        Alcotest.(check string) "oob" "-1"
          (eval "str_char" [ B.r "a"; B.im 99 ] (V.VStr "hi")));
    Alcotest.test_case "atoi" `Quick (fun () ->
        Alcotest.(check string) "42" "42" (eval "atoi" [ B.r "a" ] (V.VStr " 42"));
        Alcotest.(check string) "junk" "0" (eval "atoi" [ B.r "a" ] (V.VStr "x")));
    Alcotest.test_case "min/max/abs" `Quick (fun () ->
        Alcotest.(check string) "min" "3"
          (eval "min" [ B.r "a"; B.im 5 ] (V.VInt 3));
        Alcotest.(check string) "max" "5"
          (eval "max" [ B.r "a"; B.im 5 ] (V.VInt 3));
        Alcotest.(check string) "abs" "3" (eval "abs" [ B.r "a" ] (V.VInt (-3))));
  ]

let cost_model =
  [
    Alcotest.test_case "base work counted per instruction" `Quick (fun () ->
        let res = run ~args:[ V.VInt 10 ] loop_sum in
        Alcotest.(check int) "instrs = steps" res.I.steps res.I.counters.instrs);
    Alcotest.test_case "overhead percentages are zero without tracing" `Quick
      (fun () ->
        let res = run ~args:[ V.VInt 10 ] loop_sum in
        Alcotest.(check (float 0.001)) "gist" 0.0
          (Exec.Cost.gist_overhead_percent res.I.counters);
        Alcotest.(check (float 0.001)) "rr" 0.0
          (Exec.Cost.rr_overhead_percent res.I.counters));
    Alcotest.test_case "shared accesses counted" `Quick (fun () ->
        let res = run ~args:[ V.VInt 2 ] (counter ~locked:false) in
        Alcotest.(check bool) "some accesses" true
          (res.I.counters.mem_accesses > 4));
  ]

let forced_schedule =
  [
    Alcotest.test_case "pick callback reproduces a recorded schedule" `Quick
      (fun () ->
        let p = counter ~locked:true in
        let sched = ref [] in
        let hooks = I.no_hooks () in
        hooks.sched <- (fun ~choice -> sched := choice :: !sched);
        let a =
          Exec.Interp.run ~hooks ~record_gt:true p
            (I.workload ~args:[ V.VInt 3 ] 7)
        in
        let forced = Array.of_list (List.rev !sched) in
        let cursor = ref 0 in
        let pick ~eligible:_ =
          if !cursor >= Array.length forced then None
          else begin
            let t = forced.(!cursor) in
            incr cursor;
            Some t
          end
        in
        let b =
          Exec.Interp.run ~pick ~record_gt:true p
            (I.workload ~args:[ V.VInt 3 ] 999)
        in
        Alcotest.(check bool) "same execution" true (a.I.executed = b.I.executed));
  ]

(* The per-step observation hook must cost nothing beyond the call: a
   listening [pre_instr] allocates the same minor words as none at all,
   up to a small constant that does not grow with the step count. *)
let hook_allocation =
  [
    Alcotest.test_case "a pre_instr listener allocates nothing per step"
      `Quick (fun () ->
        List.iter
          (fun (bug : Bugbase.Common.t) ->
            let w = bug.workload_of 0 in
            let words hooks =
              (* The first run lowers the program into the cache. *)
              ignore (I.run ~hooks ~preempt_prob:bug.preempt_prob bug.program w);
              let before = Gc.minor_words () in
              let res =
                I.run ~hooks ~preempt_prob:bug.preempt_prob bug.program w
              in
              (Gc.minor_words () -. before, res.I.steps)
            in
            let calls = ref 0 in
            let listening = I.no_hooks () in
            listening.pre_instr <- (fun ~tid:_ ~instr:_ ~addr:_ -> incr calls);
            let bare, steps = words (I.no_hooks ()) in
            let heard, _ = words listening in
            Alcotest.(check int) (bug.name ^ ": one call per step")
              (2 * steps) !calls;
            if Float.abs (heard -. bare) > 16.0 then
              Alcotest.failf "%s: %.0f words with a listener, %.0f without \
                              (%d steps)"
                bug.name heard bare steps)
          Bugbase.Registry.all);
  ]

let () =
  Alcotest.run "exec"
    [
      ("arithmetic", arithmetic);
      ("control-flow", control_flow);
      ("memory", memory);
      ("threading", threading);
      ("determinism", determinism);
      ("builtins", builtins);
      ("cost-model", cost_model);
      ("forced-schedule", forced_schedule);
      ("hook-allocation", hook_allocation);
    ]
