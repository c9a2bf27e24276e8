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

module M = Exec.Memory

(* A heap operation's answer as the result it stands for. *)
let answer f = match f () with v -> Ok v | exception M.Fault e -> Error e

(* Both engines share [Memory], so the differential suite cannot catch
   a change in its answers: pin every one here. *)
let memory_edges =
  let segv = Error M.Fail_segv in
  [
    Alcotest.test_case "unmapped addresses are segfaults" `Quick (fun () ->
        let m = M.create () in
        let a = M.alloc m 2 in
        let b = M.alloc m 1 in
        List.iter
          (fun (what, addr) ->
            Alcotest.(check bool) (what ^ ": load") true
              (answer (fun () -> M.load m addr) = segv);
            Alcotest.(check bool) (what ^ ": store") true
              (answer (fun () -> M.store m addr V.VNull) = segv);
            Alcotest.(check bool) (what ^ ": check") true (M.check m addr = segv))
          [
            ("red zone", a + 2);
            ("last red zone", b + 1);
            ("below the first block", a - 1);
            ("address 0", 0);
            ("address 15", 15);
            ("negative", -3);
            ("past the heap", b + 2);
            ("far past the heap", 1_000_000);
          ]);
    Alcotest.test_case "fresh cells read zero" `Quick (fun () ->
        let m = M.create () in
        let a = M.alloc m 0 in
        Alcotest.(check bool) "a zero-size block has one cell" true
          (answer (fun () -> M.load m a) = Ok (V.VInt 0));
        Alcotest.(check bool) "then a red zone" true
          (answer (fun () -> M.load m (a + 1)) = segv));
    Alcotest.test_case "free needs a live block base" `Quick (fun () ->
        let m = M.create () in
        let a = M.alloc m 3 in
        Alcotest.(check bool) "interior cell" true
          (answer (fun () -> M.free m (a + 1)) = segv);
        Alcotest.(check bool) "red zone" true
          (answer (fun () -> M.free m (a + 3)) = segv);
        Alcotest.(check bool) "unmapped" true
          (answer (fun () -> M.free m 7) = segv);
        Alcotest.(check bool) "negative" true
          (answer (fun () -> M.free m (-1)) = segv);
        Alcotest.(check bool) "the base" true (answer (fun () -> M.free m a) = Ok ());
        Alcotest.(check bool) "twice" true
          (answer (fun () -> M.free m a) = Error M.Fail_dfree);
        Alcotest.(check bool) "interior after the free" true
          (answer (fun () -> M.free m (a + 1)) = segv));
    Alcotest.test_case "every cell of a freed block is use-after-free" `Quick
      (fun () ->
        let m = M.create () in
        let a = M.alloc m 3 in
        let b = M.alloc m 1 in
        M.store m b (V.VInt 5);
        M.free m a;
        for k = 0 to 2 do
          Alcotest.(check bool) "load" true
            (answer (fun () -> M.load m (a + k)) = Error M.Fail_uaf);
          Alcotest.(check bool) "store" true
            (answer (fun () -> M.store m (a + k) V.VUnit) = Error M.Fail_uaf);
          Alcotest.(check bool) "check" true (M.check m (a + k) = Error M.Fail_uaf)
        done;
        Alcotest.(check bool) "the neighbour survives" true
          (answer (fun () -> M.load m b) = Ok (V.VInt 5)));
    Alcotest.test_case "valid agrees with check" `Quick (fun () ->
        let m = M.create () in
        let a = M.alloc m 2 in
        let b = M.alloc m 4 in
        M.free m a;
        for addr = -2 to b + 8 do
          Alcotest.(check bool) (string_of_int addr) (M.check m addr = Ok ())
            (M.valid m addr)
        done);
    Alcotest.test_case "the heap grows and keeps every value" `Quick (fun () ->
        let m = M.create () in
        let small = List.init 300 (fun k -> (M.alloc m 1, k)) in
        List.iter (fun (a, k) -> M.store m a (V.VInt k)) small;
        let big = M.alloc m 5000 in
        M.store m (big + 4999) (V.VStr "end");
        let after = M.alloc m 2 in
        List.iter
          (fun (a, k) ->
            Alcotest.(check bool) "kept" true
              (answer (fun () -> M.load m a) = Ok (V.VInt k)))
          small;
        Alcotest.(check bool) "big block's first cell" true
          (answer (fun () -> M.load m big) = Ok (V.VInt 0));
        Alcotest.(check bool) "big block's last cell" true
          (answer (fun () -> M.load m (big + 4999)) = Ok (V.VStr "end"));
        Alcotest.(check bool) "its red zone" true
          (answer (fun () -> M.load m (big + 5000)) = segv);
        Alcotest.(check bool) "a block after it" true
          (answer (fun () -> M.load m after) = Ok (V.VInt 0)));
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
        let m = M.create () in
        let base = M.alloc m 3 in
        Alcotest.(check bool) "store ok" true
          (answer (fun () -> M.store m (base + 2) (V.VInt 9)) = Ok ());
        Alcotest.(check bool) "load back" true
          (answer (fun () -> M.load m (base + 2)) = Ok (V.VInt 9));
        Alcotest.(check bool) "red zone unmapped" true
          (answer (fun () -> M.load m (base + 3)) = Error M.Fail_segv);
        Alcotest.(check bool) "free ok" true
          (answer (fun () -> M.free m base) = Ok ());
        Alcotest.(check bool) "uaf" true
          (answer (fun () -> M.load m base) = Error M.Fail_uaf);
        Alcotest.(check bool) "double free" true
          (answer (fun () -> M.free m base) = Error M.Fail_dfree));
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

(* Both engines share [Rng], so the differential suite cannot catch a
   change in its sequence: pin the first splitmix64 outputs of a few
   seeds, and [chance] against [float] on a twin generator. *)
let rng_vectors =
  [
      ( 0,
        [
          -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
          -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
          3207296026000306913L; -4214222208109204676L; 4532161160992623299L;
          -884877559730491226L; 7313543279846440201L; -4408136866661146890L;
          -8781561602181964933L; -8205710985559103185L; -5382347917484077799L;
          -8882435919750266709L;
        ] );
      ( 1,
        [
          -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
          8196980753821780235L; 8195237237126968761L; -4373826470845021568L;
          -2262517385565684571L; -8797857673641491083L; 5266705631892356520L;
          -3800091893662914666L; 7455107161863376737L; -7278709470210847746L;
          8392123148533390784L; -8668512467949215094L; 8042142155559163816L;
          3081251696030599739L;
        ] );
      ( 42,
        [
          -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
          6349198060258255764L; 701532786141963250L; -2430762948046562554L;
          4028864712777624925L; -3677692746721775708L; 6270620877612482005L;
          -7037763681458882642L; 3779771651426294207L; 9094045341461139646L;
          -8976257307478440218L; -8854191821003330121L; -6176718654468026660L;
          3752715396868486130L;
        ] );
      ( (-1),
        [
          -1956407806741107680L; -1612297016619662647L; 4048727598324417001L;
          7862637804313477842L; -5431262886246717010L; -3234237927366542541L;
          -1058577943711170651L; 4638043754431676516L; -4251777345030058876L;
          224706085343030812L; 266333147328794389L; -3569848917358912089L;
          128728123335686875L; -2481235938269979510L; 3840741419012094145L;
          -5985669572966075160L;
        ] );
      ( max_int,
        [
          4890637089070741670L; 1157452369933151741L; -643383930175548127L;
          7976771587059178518L; -5092280845031213240L; -2271687024784822601L;
          -4834145098101050242L; 571570269043650935L; 2248756305882784531L;
          4249374333724668194L; 7127797772459821446L; 5019922818526568649L;
          4189865611740122186L; 9187498658810167874L; -6043254574774199899L;
          5525715937901616142L;
        ] );
  ]

(* [mix a b] for a few pairs, the values the fault draws, tamper salts
   and plan ids were built on.  [mix 42 7] is the seventh splitmix64
   output of seed 42 (the table above), masked to 62 bits. *)
let mix_vectors =
  [
    (0, 0, 0);
    (1, 0, 1626386729513190885);
    (0, 1, 2459150361376443823);
    (42, 7, 4028864712777624925);
    (-1, 1, 2655278211686280224);
    (max_int, max_int, 4164207340144875544);
    (min_int, -1, 2504404743792796575);
    (0x5EC1, 3, 2687363046669408054);
  ]

let rng =
  [
    Alcotest.test_case "the first 16 outputs of five seeds" `Quick (fun () ->
        List.iter
          (fun (seed, expected) ->
            let g = Exec.Rng.create seed in
            List.iteri
              (fun k want ->
                Alcotest.(check int64)
                  (Printf.sprintf "seed %d, output %d" seed k)
                  want (Exec.Rng.next g))
              expected)
          rng_vectors);
    Alcotest.test_case "chance t p is float t < p" `Quick (fun () ->
        List.iter
          (fun seed ->
            let a = Exec.Rng.create seed and b = Exec.Rng.create seed in
            for k = 0 to 399 do
              let p = float_of_int (k mod 21) /. 20.0 in
              let p = if k mod 7 = 0 then p -. 0.001 else p in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d, draw %d, p %g" seed k p)
                (Exec.Rng.float b < p) (Exec.Rng.chance a p)
            done)
          [ 0; 1; 42; -1; max_int ]);
    Alcotest.test_case "mix of eight pairs" `Quick (fun () ->
        List.iter
          (fun (a, b, want) ->
            Alcotest.(check int)
              (Printf.sprintf "mix %d %d" a b)
              want (Exec.Rng.mix a b))
          mix_vectors);
  ]

(* The per-step observation hook must cost nothing beyond the call: a
   listening [pre_instr] allocates the same minor words as none at all,
   up to a small constant that does not grow with the step count.  A
   bare step, and the plan-executing hooks on top of it, allocate
   almost nothing either. *)
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
    (* The whole client-side instrumentation at each bug's
       first-iteration plan, over the cost ledger's clients. *)
    Alcotest.test_case "a step allocates at most 2 words, Runtime.hooks 1 more"
      `Quick (fun () ->
        List.iter
          (fun (b : Tsupport.Costs.bug) ->
            let l = Tsupport.Costs.measure b in
            let per w = w /. float_of_int l.steps in
            let name = b.spec.sp_name in
            if per l.bare_w > 2.0 then
              Alcotest.failf "%s: a bare step allocates %.2f words" name
                (per l.bare_w);
            if per (l.hooked_w -. l.bare_w) > 1.0 then
              Alcotest.failf "%s: Runtime.hooks add %.2f words per step" name
                (per (l.hooked_w -. l.bare_w)))
          (Lazy.force Tsupport.Costs.bugs));
  ]

let () =
  Alcotest.run "exec"
    [
      ("arithmetic", arithmetic);
      ("control-flow", control_flow);
      ("memory", memory);
      ("memory-edges", memory_edges);
      ("threading", threading);
      ("determinism", determinism);
      ("builtins", builtins);
      ("cost-model", cost_model);
      ("forced-schedule", forced_schedule);
      ("rng", rng);
      ("hook-allocation", hook_allocation);
    ]
