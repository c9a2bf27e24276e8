(* Memcached bug #127 (v1.4.4): item reference counts are updated with
   plain read-modify-write from multiple worker threads.  A lost
   increment makes the matching decrements drive the count below zero,
   and the release path's assert(it->refcount >= 0) fires.

   item layout: [0] refcount, [1] value. *)

open Ir.Types
module B = Ir.Builder

let file = "memcached.c"
let i = B.file file
let r = B.r
let im = B.im

let serve_get =
  B.func "serve_get" ~params:[ "v" ]
    [
      B.block "entry"
        [
          i 90 "" (Assign ("acc", Mov (r "v")));
          i 90 "" (Assign ("k", Mov (im 0)));
          i 90 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 91 "write_response(conn, it);"
            (Assign ("more", B.( <% ) (r "k") (im 130)));
          i 91 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 92 "" (Assign ("acc", B.( +% ) (r "acc") (im 11)));
          i 92 "" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 92 "" (Jmp "loop");
        ];
      B.block "done" [ i 93 "return acc;" (Ret (Some (r "acc"))) ];
    ]

let item_get =
  B.func "item_get" ~params:[ "it" ]
    [
      B.block "entry"
        [
          i 40 "it->refcount++;" (Load ("rc", r "it", 0));
          i 40 "it->refcount++;" (Assign ("rc1", B.( +% ) (r "rc") (im 1)));
          i 40 "it->refcount++;" (Store (r "it", 0, r "rc1"));
          i 41 "return it->value;" (Load ("v", r "it", 1));
          i 41 "return it->value;" (Ret (Some (r "v")));
        ];
    ]

let item_release =
  B.func "item_release" ~params:[ "it" ]
    [
      B.block "entry"
        [
          i 44 "it->refcount--;" (Load ("rc", r "it", 0));
          i 44 "it->refcount--;" (Assign ("rc1", B.( -% ) (r "rc") (im 1)));
          i 44 "it->refcount--;" (Store (r "it", 0, r "rc1"));
          i 45 "assert(it->refcount >= 0);" (Load ("rc2", r "it", 0));
          i 45 "assert(it->refcount >= 0);"
            (Assign ("okp", B.( >=% ) (r "rc2") (im 0)));
          i 45 "assert(it->refcount >= 0);"
            (Assert (r "okp", "item refcount went negative"));
          i 46 "return;" (Ret (Some (im 0)));
        ];
    ]

let conn_worker =
  B.func "conn_worker" ~params:[ "it"; "gets" ]
    [
      B.block "entry"
        [
          i 20 "for (int k = 0; k < gets; k++) {" (Assign ("k", Mov (im 0)));
          i 20 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 20 "for (int k = 0; k < gets; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "gets")));
          i 20 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 21 "char* v = item_get(it);" (Call (Some "v", "item_get", [ r "it" ]));
          i 22 "serve_get(v);" (Call (Some "w", "serve_get", [ r "v" ]));
          i 23 "item_release(it);" (Call (None, "item_release", [ r "it" ]));
          i 24 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 24 "" (Jmp "loop");
        ];
      B.block "done" [ i 25 "return 0;" (Ret (Some (im 0))) ];
    ]

let main =
  B.func "main" ~params:[ "gets" ]
    [
      B.block "entry"
        [
          i 10 "item_t* it = item_alloc(key);" (Malloc ("it", 2));
          i 11 "it->refcount = 0;" (Store (r "it", 0, im 0));
          i 12 "it->value = 42;" (Store (r "it", 1, im 42));
          i 13 "t1 = spawn(conn_worker, it, gets);"
            (Spawn ("t1", "conn_worker", [ r "it"; r "gets" ]));
          i 14 "t2 = spawn(conn_worker, it, gets);"
            (Spawn ("t2", "conn_worker", [ r "it"; r "gets" ]));
          i 15 "join(t1); join(t2);" (Join (r "t1"));
          i 15 "join(t1); join(t2);" (Join (r "t2"));
          i 16 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~main:"main"
    [ serve_get; item_get; item_release; conn_worker; main ]

let bug : Common.t =
  {
    name = "Memcached";
    software = "Memcached";
    version = "1.4.4";
    bug_id = "127";
    description =
      "item_get/item_release update it->refcount with plain \
       read-modify-write; a lost increment lets the count go negative \
       and the release-path assertion fires.";
    failure_type = "Concurrency bug, assertion failure";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (2 + (c mod 3)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 20; 40; 44; 45 ];
    root_lines = [ 40; 44; 45 ];
    target_kind_tag = "assert";
    target_line = 45;
    claimed_loc = 8_182;
    preempt_prob = 0.2;
  }
