(* Small IR programs shared by the test suites. *)

open Ir.Types
module B = Ir.Builder

let file = "test.c"
let i = B.file file
let r = B.r
let im = B.im

(* return (a + 3) * 2 *)
let straight =
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[ "a" ]
        [
          B.block "entry"
            [
              i 1 "x = a + 3" (Assign ("x", B.( +% ) (r "a") (im 3)));
              i 2 "y = x * 2" (Assign ("y", B.( *% ) (r "x") (im 2)));
              i 3 "return y" (Ret (Some (r "y")));
            ];
        ];
    ]

(* if (a > 0) return 1 else return -1 *)
let diamond =
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[ "a" ]
        [
          B.block "entry"
            [
              i 1 "c = a > 0" (Assign ("c", B.( >% ) (r "a") (im 0)));
              i 2 "if (c)" (Branch (r "c", "pos", "neg"));
            ];
          B.block "pos"
            [
              i 3 "r = 1" (Assign ("res", Mov (im 1)));
              i 3 "" (Jmp "out");
            ];
          B.block "neg"
            [
              i 4 "r = -1" (Assign ("res", Mov (im (-1))));
              i 4 "" (Jmp "out");
            ];
          B.block "out" [ i 5 "return r" (Ret (Some (r "res"))) ];
        ];
    ]

(* sum 0..n-1 *)
let loop_sum =
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[ "n" ]
        [
          B.block "entry"
            [
              i 1 "s = 0" (Assign ("s", Mov (im 0)));
              i 1 "k = 0" (Assign ("k", Mov (im 0)));
              i 1 "" (Jmp "loop");
            ];
          B.block "loop"
            [
              i 2 "k < n" (Assign ("c", B.( <% ) (r "k") (r "n")));
              i 2 "" (Branch (r "c", "body", "out"));
            ];
          B.block "body"
            [
              i 3 "s += k" (Assign ("s", B.( +% ) (r "s") (r "k")));
              i 3 "k++" (Assign ("k", B.( +% ) (r "k") (im 1)));
              i 3 "" (Jmp "loop");
            ];
          B.block "out" [ i 4 "return s" (Ret (Some (r "s"))) ];
        ];
    ]

(* main -> f -> g, values flowing through returns *)
let call_chain =
  Ir.Program.make ~main:"main"
    [
      B.func "g" ~params:[ "x" ]
        [
          B.block "entry"
            [
              i 10 "return x * x" (Assign ("y", B.( *% ) (r "x") (r "x")));
              i 10 "" (Ret (Some (r "y")));
            ];
        ];
      B.func "f" ~params:[ "x" ]
        [
          B.block "entry"
            [
              i 20 "v = g(x + 1)" (Assign ("x1", B.( +% ) (r "x") (im 1)));
              i 20 "v = g(x + 1)" (Call (Some "v", "g", [ r "x1" ]));
              i 21 "return v + 2" (Assign ("v2", B.( +% ) (r "v") (im 2)));
              i 21 "" (Ret (Some (r "v2")));
            ];
        ];
      B.func "main" ~params:[ "a" ]
        [
          B.block "entry"
            [
              i 30 "return f(a)" (Call (Some "res", "f", [ r "a" ]));
              i 30 "" (Ret (Some (r "res")));
            ];
        ];
    ]

(* recursive factorial *)
let factorial =
  Ir.Program.make ~main:"main"
    [
      B.func "fact" ~params:[ "n" ]
        [
          B.block "entry"
            [
              i 1 "n <= 1" (Assign ("c", B.( <=% ) (r "n") (im 1)));
              i 1 "" (Branch (r "c", "base", "rec"));
            ];
          B.block "base" [ i 2 "return 1" (Ret (Some (im 1))) ];
          B.block "rec"
            [
              i 3 "fact(n-1)" (Assign ("n1", B.( -% ) (r "n") (im 1)));
              i 3 "fact(n-1)" (Call (Some "sub", "fact", [ r "n1" ]));
              i 4 "n * sub" (Assign ("res", B.( *% ) (r "n") (r "sub")));
              i 4 "" (Ret (Some (r "res")));
            ];
        ];
      B.func "main" ~params:[ "a" ]
        [
          B.block "entry"
            [
              i 10 "fact(a)" (Call (Some "res", "fact", [ r "a" ]));
              i 10 "" (Ret (Some (r "res")));
            ];
        ];
    ]

(* Two threads incrementing a shared global [iters] times each.
   [locked] decides whether the read-modify-write holds the lock. *)
let counter ~locked =
  let incr_body =
    if locked then
      [
        i 40 "lock" (Load_global ("m", "mutex"));
        i 40 "lock" (Lock (r "m"));
        i 41 "read" (Load_global ("v", "count"));
        i 42 "write" (Assign ("v1", B.( +% ) (r "v") (im 1)));
        i 42 "write" (Store_global ("count", r "v1"));
        i 43 "unlock" (Unlock (r "m"));
        i 44 "k++" (Assign ("k", B.( +% ) (r "k") (im 1)));
        i 44 "" (Jmp "loop");
      ]
    else
      [
        i 41 "read" (Load_global ("v", "count"));
        i 42 "write" (Assign ("v1", B.( +% ) (r "v") (im 1)));
        i 42 "write" (Store_global ("count", r "v1"));
        i 44 "k++" (Assign ("k", B.( +% ) (r "k") (im 1)));
        i 44 "" (Jmp "loop");
      ]
  in
  Ir.Program.make
    ~globals:[ B.global "count"; B.global "mutex" ]
    ~main:"main"
    [
      B.func "worker" ~params:[ "iters" ]
        [
          B.block "entry"
            [ i 39 "k = 0" (Assign ("k", Mov (im 0))); i 39 "" (Jmp "loop") ];
          B.block "loop"
            [
              i 40 "k < iters" (Assign ("c", B.( <% ) (r "k") (r "iters")));
              i 40 "" (Branch (r "c", "body", "out"));
            ];
          B.block "body" incr_body;
          B.block "out" [ i 45 "return" (Ret (Some (im 0))) ];
        ];
      B.func "main" ~params:[ "iters" ]
        [
          B.block "entry"
            [
              i 50 "mutex init" (Malloc ("m", 1));
              i 50 "mutex init" (Store_global ("mutex", r "m"));
              i 51 "spawn" (Spawn ("t1", "worker", [ r "iters" ]));
              i 52 "spawn" (Spawn ("t2", "worker", [ r "iters" ]));
              i 53 "join" (Join (r "t1"));
              i 53 "join" (Join (r "t2"));
              i 54 "final" (Load_global ("final", "count"));
              i 54 "" (Ret (Some (r "final")));
            ];
        ];
    ]

(* Immediate null dereference. *)
let null_deref =
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[]
        [
          B.block "entry"
            [
              i 1 "p = NULL" (Assign ("p", Mov Null));
              i 2 "*p" (Load ("v", r "p", 0));
              i 3 "" (Ret (Some (im 0)));
            ];
        ];
    ]

(* Use after free. *)
let uaf =
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[]
        [
          B.block "entry"
            [
              i 1 "p = malloc" (Malloc ("p", 2));
              i 2 "free(p)" (Free (r "p"));
              i 3 "*p" (Load ("v", r "p", 0));
              i 4 "" (Ret (Some (im 0)));
            ];
        ];
    ]

(* Double free. *)
let double_free =
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[]
        [
          B.block "entry"
            [
              i 1 "p = malloc" (Malloc ("p", 1));
              i 2 "free(p)" (Free (r "p"));
              i 3 "free(p)" (Free (r "p"));
              i 4 "" (Ret (Some (im 0)));
            ];
        ];
    ]

(* Classic lock-order deadlock. *)
let deadlock =
  let grab a b lines =
    [
      i lines "la" (Load_global ("x", a));
      i lines "la" (Lock (r "x"));
      i lines "yield" (Builtin (None, "yield", []));
      i (lines + 1) "lb" (Load_global ("y", b));
      i (lines + 1) "lb" (Lock (r "y"));
      i (lines + 2) "ret" (Ret (Some (im 0)));
    ]
  in
  Ir.Program.make
    ~globals:[ B.global "m1"; B.global "m2" ]
    ~main:"main"
    [
      B.func "w1" ~params:[] [ B.block "entry" (grab "m1" "m2" 10) ];
      B.func "w2" ~params:[] [ B.block "entry" (grab "m2" "m1" 20) ];
      B.func "main" ~params:[]
        [
          B.block "entry"
            [
              i 1 "init" (Malloc ("a", 1));
              i 1 "init" (Store_global ("m1", r "a"));
              i 2 "init" (Malloc ("b", 1));
              i 2 "init" (Store_global ("m2", r "b"));
              i 3 "spawn" (Spawn ("t1", "w1", []));
              i 4 "spawn" (Spawn ("t2", "w2", []));
              i 5 "join" (Join (r "t1"));
              i 5 "join" (Join (r "t2"));
              i 6 "" (Ret (Some (im 0)));
            ];
        ];
    ]

(* Infinite loop (hang detector test). *)
let infinite =
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[]
        [
          B.block "entry" [ i 1 "" (Jmp "entry2") ];
          B.block "entry2"
            [
              i 2 "x = 1" (Assign ("x", Mov (im 1)));
              i 2 "" (Jmp "entry2");
            ];
        ];
    ]

(* Known-diagnosable fuzz (pattern, seed) pairs: the seeds behind the
   checked-in corpus, one per taxonomy entry. *)
let viable_seeds =
  Fuzz.Gen.
    [
      (RWR, 91052412); (WWR, 187278384); (RWW, 801216856);
      (WRW, 207472549); (WW, 856513169); (WR, 293615293);
      (RW, 783676841); (Branch_bug, 591480616); (Value_bug, 489017093);
    ]

let run ?hooks ?counters ?max_steps ?record_gt ?preempt_prob ?(args = [])
    ?(seed = 42) program =
  Exec.Interp.run ?hooks ?counters ?max_steps ?record_gt ?preempt_prob program
    (Exec.Interp.workload ~args seed)

let expect_value = function
  | { Exec.Interp.outcome = Exec.Interp.Success; _ } as res -> res.output
  | { Exec.Interp.outcome = Exec.Interp.Failed rep; _ } ->
    Alcotest.failf "unexpected failure: %s" (Exec.Failure.report_to_string rep)

let failure_kind_tag (res : Exec.Interp.result) =
  match res.outcome with
  | Exec.Interp.Failed rep -> Exec.Failure.kind_tag rep.kind
  | Exec.Interp.Success -> "success"

(* Per-thread executed sequence from the interpreter's ground truth,
   with consecutive duplicates collapsed (blocked instructions are
   retried and so appear repeatedly). *)
let per_thread_executed (res : Exec.Interp.result) =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (tid, iid) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl tid) in
      match cur with
      | last :: _ when last = iid -> ()
      | _ -> Hashtbl.replace tbl tid (iid :: cur))
    res.executed;
  Hashtbl.fold (fun tid l acc -> (tid, List.rev l) :: acc) tbl []
  |> List.sort compare

(* Every stream of a finished recorder decoded against [program], by
   thread id; a decode fault fails the test. *)
let decode_streams pt program =
  List.map
    (fun tid ->
      match Hw.Pt.decode program (Hw.Pt.wire_of pt tid) with
      | d, None -> (tid, d)
      | _, Some e ->
        Alcotest.failf "thread %d: %s" tid (Hw.Pt.error_to_string e))
    (Hw.Pt.all_tids pt)
