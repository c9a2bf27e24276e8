(* SQLite bug #1672 (v3.3.3): a database handle is closed by one thread
   while another thread is still inside a query.  The query path checks
   db->magic on entry, but the handle can be invalidated between that
   check and the post-query sanity assertion, which then fires.

   db layout: [0] magic (OPEN = 11, CLOSED = 22), [1] inVdbe. *)

open Ir.Types
module B = Ir.Builder

let file = "sqlite.c"
let i = B.file file
let r = B.r
let im = B.im

let magic_open = 11
let magic_closed = 22

let vdbe_exec =
  B.func "vdbe_exec" ~params:[ "prog" ]
    [
      B.block "entry"
        [
          i 90 "" (Assign ("pc", Mov (im 0)));
          i 90 "" (Assign ("acc", Mov (r "prog")));
          i 90 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 91 "while (rc == SQLITE_ROW) step();"
            (Assign ("more", B.( <% ) (r "pc") (im 170)));
          i 91 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 92 "" (Assign ("acc", B.( +% ) (r "acc") (r "pc")));
          i 92 "" (Assign ("pc", B.( +% ) (r "pc") (im 1)));
          i 92 "" (Jmp "loop");
        ];
      B.block "done" [ i 93 "return acc;" (Ret (Some (r "acc"))) ];
    ]

let exec_query =
  B.func "exec_query" ~params:[ "db"; "q" ]
    [
      B.block "entry"
        [
          i 30 "if (db->magic != SQLITE_MAGIC_OPEN) return MISUSE;"
            (Load ("m", r "db", 0));
          i 30 "if (db->magic != SQLITE_MAGIC_OPEN) return MISUSE;"
            (Assign ("isopen", B.( =% ) (r "m") (im magic_open)));
          i 30 "if (db->magic != SQLITE_MAGIC_OPEN) return MISUSE;"
            (Branch (r "isopen", "run", "misuse"));
        ];
      B.block "run"
        [
          i 31 "db->inVdbe++;" (Load ("iv", r "db", 1));
          i 31 "db->inVdbe++;" (Assign ("iv1", B.( +% ) (r "iv") (im 1)));
          i 31 "db->inVdbe++;" (Store (r "db", 1, r "iv1"));
          i 32 "rc = sqlite3VdbeExec(q);" (Call (Some "rc", "vdbe_exec", [ r "q" ]));
          i 34 "int m2 = db->magic;" (Load ("m2", r "db", 0));
          i 35 "assert(m2 == SQLITE_MAGIC_OPEN);"
            (Assign ("okp", B.( =% ) (r "m2") (im magic_open)));
          i 35 "assert(m2 == SQLITE_MAGIC_OPEN);"
            (Assert (r "okp", "db closed during query"));
          i 36 "db->inVdbe--;" (Load ("iv2", r "db", 1));
          i 36 "db->inVdbe--;" (Assign ("iv3", B.( -% ) (r "iv2") (im 1)));
          i 36 "db->inVdbe--;" (Store (r "db", 1, r "iv3"));
          i 37 "return rc;" (Ret (Some (r "rc")));
        ];
      B.block "misuse" [ i 38 "return SQLITE_MISUSE;" (Ret (Some (im 21))) ];
    ]

let app_thread =
  B.func "app_thread" ~params:[ "db"; "queries" ]
    [
      B.block "entry"
        [
          i 20 "for (int k = 0; k < queries; k++) {" (Assign ("k", Mov (im 0)));
          i 20 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 20 "for (int k = 0; k < queries; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "queries")));
          i 20 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 21 "exec_query(db, stmts[k]);"
            (Call (Some "rc", "exec_query", [ r "db"; r "k" ]));
          i 22 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 22 "" (Jmp "loop");
        ];
      B.block "done" [ i 23 "return 0;" (Ret (Some (im 0))) ];
    ]

let closer_thread =
  B.func "closer_thread" ~params:[ "db" ]
    [
      B.block "entry"
        [
          i 50 "wait_for_idle_signal();" (Call (Some "w", "vdbe_exec", [ im 9 ]));
          i 50 "wait_for_idle_signal();" (Call (Some "w2", "vdbe_exec", [ im 9 ]));
          i 50 "wait_for_idle_signal();" (Call (Some "w3", "vdbe_exec", [ im 9 ]));
          i 51 "db->magic = SQLITE_MAGIC_CLOSED;"
            (Store (r "db", 0, im magic_closed));
          i 52 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let main =
  B.func "main" ~params:[ "queries" ]
    [
      B.block "entry"
        [
          i 10 "sqlite3* db = sqlite3_open(path);" (Malloc ("db", 2));
          i 11 "db->magic = SQLITE_MAGIC_OPEN;" (Store (r "db", 0, im magic_open));
          i 12 "db->inVdbe = 0;" (Store (r "db", 1, im 0));
          i 13 "t1 = spawn(app_thread, db, queries);"
            (Spawn ("t1", "app_thread", [ r "db"; r "queries" ]));
          i 14 "t2 = spawn(closer_thread, db);"
            (Spawn ("t2", "closer_thread", [ r "db" ]));
          i 15 "join(t1); join(t2);" (Join (r "t1"));
          i 15 "join(t1); join(t2);" (Join (r "t2"));
          i 16 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~main:"main"
    [ vdbe_exec; exec_query; app_thread; closer_thread; main ]

let bug : Common.t =
  {
    name = "SQLite";
    software = "SQLite";
    version = "3.3.3";
    bug_id = "1672";
    description =
      "sqlite3_close invalidates db->magic while another thread is \
       inside a query: the entry check passed, the post-query \
       assert(db->magic == SQLITE_MAGIC_OPEN) fires (an RWR atomicity \
       violation on db->magic).";
    failure_type = "Concurrency bug, assertion failure";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (1 + (c mod 3)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 20; 21; 30; 51; 34; 35 ];
    root_lines = [ 30; 51; 34; 35 ];
    target_kind_tag = "assert";
    target_line = 35;
    claimed_loc = 47_150;
    preempt_prob = 0.3;
  }
