(* Apache bug #21285 ("Apache-4", httpd 2.0.46): a pool-lifetime race.
   The cleanup thread destroys a sub-pool (frees its backing block and
   NULLs the pointer) while a worker that already passed the liveness
   check is still allocating from it.

   pool layout: [0] alive flag, [1] backing block ptr, [2] generation. *)

open Ir.Types
module B = Ir.Builder

let file = "apache4.c"
let i = B.file file
let r = B.r
let im = B.im

let work =
  B.func "work" ~params:[ "x" ]
    [
      B.block "entry"
        [
          i 90 "" (Assign ("acc", Mov (r "x")));
          i 90 "" (Assign ("k", Mov (im 0)));
          i 90 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 91 "process_request_body();"
            (Assign ("more", B.( <% ) (r "k") (im 200)));
          i 91 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 92 "" (Assign ("acc", B.( +% ) (r "acc") (im 3)));
          i 92 "" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 92 "" (Jmp "loop");
        ];
      B.block "done" [ i 93 "return acc;" (Ret (Some (r "acc"))) ];
    ]

let palloc =
  B.func "palloc" ~params:[ "pool" ]
    [
      B.block "entry"
        [
          i 70 "if (pool->alive) {" (Load ("alive", r "pool", 0));
          i 70 "if (pool->alive) {" (Branch (r "alive", "alloc", "dead"));
        ];
      B.block "alloc"
        [
          i 71 "block_t* b = pool->block;" (Load ("b", r "pool", 1));
          i 72 "int sz = b->size;       /* crash */" (Load ("sz", r "b", 0));
          i 73 "b->size = sz + 16;" (Assign ("sz1", B.( +% ) (r "sz") (im 16)));
          i 73 "b->size = sz + 16;" (Store (r "b", 0, r "sz1"));
          i 74 "return b;" (Ret (Some (r "b")));
        ];
      B.block "dead" [ i 75 "return NULL;" (Ret (Some Null)) ];
    ]

let request_thread =
  B.func "request_thread" ~params:[ "pool"; "reqs" ]
    [
      B.block "entry"
        [
          i 60 "for (int k = 0; k < reqs; k++) {" (Assign ("k", Mov (im 0)));
          i 60 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 60 "for (int k = 0; k < reqs; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "reqs")));
          i 60 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 61 "block_t* b = palloc(pool);" (Call (Some "b", "palloc", [ r "pool" ]));
          i 62 "if (!b) break;" (Assign ("got", B.( <>% ) (r "b") Null));
          i 62 "if (!b) break;" (Branch (r "got", "use", "done"));
        ];
      B.block "use"
        [
          i 63 "serve(b);" (Call (Some "w", "work", [ r "k" ]));
          i 64 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 64 "" (Jmp "loop");
        ];
      B.block "done" [ i 65 "return 0;" (Ret (Some (im 0))) ];
    ]

let cleaner_thread =
  B.func "cleaner_thread" ~params:[ "pool" ]
    [
      B.block "entry"
        [
          i 50 "wait_for_graceful_restart();" (Call (Some "w", "work", [ im 5 ]));
          i 51 "pool->alive = 0;" (Store (r "pool", 0, im 0));
          i 53 "free(pool->block);" (Load ("bc", r "pool", 1));
          i 53 "free(pool->block);" (Free (r "bc"));
          i 54 "pool->block = NULL;" (Store (r "pool", 1, Null));
          i 55 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let main =
  B.func "main" ~params:[ "reqs" ]
    [
      B.block "entry"
        [
          i 10 "pool_t* pool = make_pool();" (Malloc ("pool", 3));
          i 11 "pool->block = malloc(BLOCK);" (Malloc ("blk", 2));
          i 11 "pool->block = malloc(BLOCK);" (Store (r "pool", 1, r "blk"));
          i 12 "pool->alive = 1;" (Store (r "pool", 0, im 1));
          i 13 "t1 = spawn(request_thread, pool, reqs);"
            (Spawn ("t1", "request_thread", [ r "pool"; r "reqs" ]));
          i 14 "t2 = spawn(cleaner_thread, pool);"
            (Spawn ("t2", "cleaner_thread", [ r "pool" ]));
          i 15 "join(t1); join(t2);" (Join (r "t1"));
          i 15 "join(t1); join(t2);" (Join (r "t2"));
          i 16 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~main:"main"
    [ work; palloc; request_thread; cleaner_thread; main ]

let bug : Common.t =
  {
    name = "Apache-4";
    software = "Apache httpd";
    version = "2.0.46";
    bug_id = "21285";
    description =
      "The cleanup thread destroys the request pool between a worker's \
       liveness check and its allocation: the worker reads the freed \
       backing block (use after free at the size read).";
    failure_type = "Concurrency bug, use after free";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (3 + (c mod 4)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 10; 13; 73; 62; 64; 60; 61; 70; 51; 53; 71; 72 ];
    root_lines = [ 70; 51; 53; 72 ];
    target_kind_tag = "use-after-free";
    target_line = 72;
    claimed_loc = 168_574;
    preempt_prob = 0.3;
  }
