(* Pbzip2 bug #1 (paper Fig. 1): the main thread frees the queue's
   mutex and NULLs the field while the consumer thread is exiting its
   processing loop; the consumer's final release then re-reads f->mut
   and calls mutex_unlock(NULL) -- a segmentation fault.

   Queue layout: [0] head item, [1] mut, [2] count, [3] done.

   Failure modes reachable (schedule-dependent), as in the real bug:
   - segfault at the final mutex_unlock (line 51): the Table 1 target;
   - use-after-free at the same unlock (free landed, NULL not yet);
   - segfault / use-after-free at the loop-head lock (the consumer
     missed the done flag and iterated once more). *)

open Ir.Types
module B = Ir.Builder

let file = "pbzip2.c"
let i = B.file file
let r = B.r
let im = B.im

(* CPU-bound work: compressing one block.  Keeps the production runs
   realistic so fixed tracing costs (arming, toggling) amortise as they
   do on real workloads. *)
let compress =
  B.func "compress" ~params:[ "block" ]
    [
      B.block "entry"
        [
          i 60 "unsigned h = block * 2654435761u;"
            (Assign ("h", B.( *% ) (r "block") (im 2654435761)));
          i 61 "for (int k = 0; k < ROUNDS; k++) {"
            (Assign ("k", Mov (im 0)));
          i 61 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 61 "for (int k = 0; k < ROUNDS; k++) {"
            (Assign ("more", B.( <% ) (r "k") (im 120)));
          i 61 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 62 "h = h * 31 + k;" (Assign ("h1", B.( *% ) (r "h") (im 31)));
          i 62 "h = h * 31 + k;" (Assign ("h", B.( +% ) (r "h1") (r "k")));
          i 63 "h ^= h >> 7;" (Assign ("h", B.( +% ) (r "h") (im 13)));
          i 64 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 64 "" (Jmp "loop");
        ];
      B.block "done" [ i 65 "return h;" (Ret (Some (r "h"))) ];
    ]

let queue_init =
  B.func "queue_init" ~params:[ "size" ]
    [
      B.block "entry"
        [
          i 10 "queue* f = malloc(sizeof(queue));" (Malloc ("f", 4));
          i 11 "f->mut = mutex_init();" (Malloc ("m", 1));
          i 11 "f->mut = mutex_init();" (Store (r "f", 1, r "m"));
          i 12 "f->count = 0;" (Store (r "f", 2, im 0));
          i 13 "f->done = 0;" (Store (r "f", 3, im 0));
          i 14 "f->head = 0;" (Store (r "f", 0, im 0));
          i 15 "return f;" (Ret (Some (r "f")));
        ];
    ]

let cons =
  B.func "cons" ~params:[ "f" ]
    [
      B.block "loop"
        [
          i 42 "mutex* m = f->mut;" (Load ("m", r "f", 1));
          i 43 "mutex_lock(m);" (Lock (r "m"));
          i 44 "int c = f->count;" (Load ("c", r "f", 2));
          i 45 "if (c > 0) {" (Assign ("cgt", B.( >% ) (r "c") (im 0)));
          i 45 "if (c > 0) {" (Branch (r "cgt", "consume", "check"));
        ];
      B.block "consume"
        [
          i 46 "item = f->head;" (Load ("v", r "f", 0));
          i 47 "compress(item);" (Call (Some "w", "compress", [ r "v" ]));
          i 48 "f->count = c - 1;" (Assign ("cm1", B.( -% ) (r "c") (im 1)));
          i 48 "f->count = c - 1;" (Store (r "f", 2, r "cm1"));
          i 48 "}" (Jmp "check");
        ];
      B.block "check"
        [
          i 49 "done = f->done; left = f->count; mutex_unlock(m);"
            (Load ("d", r "f", 3));
          i 49 "done = f->done; left = f->count; mutex_unlock(m);"
            (Load ("c3", r "f", 2));
          i 49 "done = f->done; left = f->count; mutex_unlock(m);"
            (Unlock (r "m"));
          i 52 "if (done && left == 0) break;"
            (Assign ("z", B.( <=% ) (r "c3") (im 0)));
          i 52 "if (done && left == 0) break;"
            (Assign ("fin", B.( &&% ) (r "d") (r "z")));
          i 52 "if (done && left == 0) break;"
            (Branch (r "fin", "exit", "loop"));
        ];
      B.block "exit"
        [
          i 50 "mutex* m2 = f->mut;" (Load ("m2", r "f", 1));
          i 51 "mutex_unlock(m2);  /* final release */" (Unlock (r "m2"));
          i 53 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let main =
  B.func "main" ~params:[ "n" ]
    [
      B.block "entry"
        [
          i 20 "queue* f = queue_init(size);"
            (Call (Some "f", "queue_init", [ r "n" ]));
          i 21 "create_thread(cons, f);" (Spawn ("t", "cons", [ r "f" ]));
          i 22 "mutex* pm = f->mut;" (Load ("pm", r "f", 1));
          i 23 "int i = 0;" (Assign ("i", Mov (im 0)));
          i 23 "" (Jmp "produce");
        ];
      B.block "produce"
        [
          i 24 "for (; i < n; i++) {" (Assign ("more", B.( <% ) (r "i") (r "n")));
          i 24 "for (; i < n; i++) {" (Branch (r "more", "produce_body", "drain"));
        ];
      B.block "produce_body"
        [
          i 25 "mutex_lock(pm);" (Lock (r "pm"));
          i 26 "f->head = read_block(i);" (Call (Some "blk", "compress", [ r "i" ]));
          i 26 "f->head = read_block(i);" (Store (r "f", 0, r "blk"));
          i 27 "f->count++;" (Load ("pc", r "f", 2));
          i 27 "f->count++;" (Assign ("pc1", B.( +% ) (r "pc") (im 1)));
          i 27 "f->count++;" (Store (r "f", 2, r "pc1"));
          i 28 "mutex_unlock(pm);" (Unlock (r "pm"));
          i 29 "}" (Assign ("i", B.( +% ) (r "i") (im 1)));
          i 29 "" (Jmp "produce");
        ];
      B.block "drain"
        [
          i 31 "while (f->count > 0) sched_yield();" (Load ("c2", r "f", 2));
          i 31 "while (f->count > 0) sched_yield();" (Builtin (None, "yield", []));
          i 31 "while (f->count > 0) sched_yield();"
            (Assign ("busy", B.( >% ) (r "c2") (im 0)));
          i 31 "while (f->count > 0) sched_yield();"
            (Branch (r "busy", "drain", "finish"));
        ];
      B.block "finish"
        [
          i 33 "f->done = 1;" (Store (r "f", 3, im 1));
          i 34 "flush_output();" (Assign ("k2", Mov (im 0)));
          i 34 "" (Jmp "flush");
        ];
      B.block "flush"
        [
          i 34 "flush_output();" (Builtin (None, "yield", []));
          i 34 "flush_output();" (Assign ("k2", B.( +% ) (r "k2") (im 1)));
          i 34 "flush_output();" (Assign ("kcond", B.( <% ) (r "k2") (im 2)));
          i 34 "flush_output();" (Branch (r "kcond", "flush", "teardown"));
        ];
      B.block "teardown"
        [
          i 35 "free(f->mut);" (Load ("mf", r "f", 1));
          i 35 "free(f->mut);" (Free (r "mf"));
          i 36 "f->mut = NULL;" (Store (r "f", 1, Null));
          i 37 "join(t);" (Join (r "t"));
          i 38 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~main:"main" [ compress; queue_init; cons; main ]

(* The target failure: segfault at the final unlock, line 51. *)
let bug : Common.t =
  {
    name = "Pbzip2";
    software = "Pbzip2";
    version = "0.9.4";
    bug_id = "pbzip2-1";
    description =
      "main frees f->mut and sets it to NULL while the consumer thread is \
       exiting its loop; the consumer's final release calls \
       mutex_unlock(NULL).";
    failure_type = "Concurrency bug, segmentation fault";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (2 + (c mod 3)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 20; 21; 35; 36; 50; 51 ];
    root_lines = [ 21; 35; 36; 50; 51 ];
    target_kind_tag = "segfault";
    target_line = 51;
    claimed_loc = 1_492;
    preempt_prob = 0.22;
  }
