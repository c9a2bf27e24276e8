(* Apache bug #45605 ("Apache-1", httpd 2.2.9): a TOCTOU race in the
   lockless fast path of the worker-MPM connection queue.  Two workers
   can both observe count == 1, both compute idx = count - 1 = 0, and
   both pop slot 0; the second reads the NULL the first one stored and
   crashes dereferencing conn.

   queue layout: [0] count, [1..6] slots. *)

open Ir.Types
module B = Ir.Builder

let file = "apache1.c"
let i = B.file file
let r = B.r
let im = B.im

let handle =
  B.func "handle" ~params:[ "conn" ]
    [
      B.block "entry"
        [
          i 40 "int fd = conn->fd;" (Load ("fd", r "conn", 0));
          i 40 "int len = 400 + fd * 173;" (Assign ("fl", B.( *% ) (r "fd") (im 173)));
          i 40 "int len = 400 + fd * 173;" (Assign ("len", B.( +% ) (r "fl") (im 400)));
          i 41 "int acc = 0;" (Assign ("acc", Mov (im 0)));
          i 41 "" (Assign ("k", Mov (im 0)));
          i 41 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 42 "while (read(fd, buf, SZ) > 0)"
            (Assign ("more", B.( <% ) (r "k") (r "len")));
          i 42 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 43 "acc = acc * 31 + buf[0];"
            (Assign ("acc", B.( +% ) (r "acc") (r "fd")));
          i 43 "acc = acc * 31 + buf[0];"
            (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 43 "" (Jmp "loop");
        ];
      B.block "done" [ i 44 "return acc;" (Ret (Some (r "acc"))) ];
    ]

let pop =
  B.func "pop" ~params:[ "q" ]
    [
      B.block "entry"
        [
          i 20 "int c = q->count;" (Load ("c", r "q", 0));
          i 21 "if (c > 0) {" (Assign ("cgt", B.( >% ) (r "c") (im 0)));
          i 21 "if (c > 0) {" (Branch (r "cgt", "take", "empty"));
        ];
      B.block "take"
        [
          i 23 "int idx = c - 1;" (Assign ("idx", B.( -% ) (r "c") (im 1)));
          i 24 "conn_t* conn = q->slots[idx];"
            (Assign ("off", B.( +% ) (r "idx") (im 1)));
          i 24 "conn_t* conn = q->slots[idx];"
            (Assign ("slot", B.( +% ) (r "q") (r "off")));
          i 24 "conn_t* conn = q->slots[idx];" (Load ("conn", r "slot", 0));
          i 25 "q->slots[idx] = NULL;" (Store (r "slot", 0, Null));
          i 26 "ap_log(conn->id);     /* segfault */" (Load ("cid", r "conn", 0));
          i 27 "q->count = idx;" (Store (r "q", 0, r "idx"));
          i 28 "return conn;" (Ret (Some (r "conn")));
        ];
      B.block "empty" [ i 29 "return NULL;" (Ret (Some Null)) ];
    ]

(* slot = q + idx + 1 needs left-assoc adds; precompute. *)

let worker =
  B.func "worker" ~params:[ "q" ]
    [
      B.block "loop"
        [
          i 30 "conn_t* conn = pop(q);" (Call (Some "conn", "pop", [ r "q" ]));
          i 31 "if (!conn) break;" (Assign ("go", B.( <>% ) (r "conn") Null));
          i 31 "if (!conn) break;" (Branch (r "go", "serve", "out"));
        ];
      B.block "serve"
        [
          i 32 "handle(conn);" (Call (Some "h", "handle", [ r "conn" ]));
          i 32 "" (Jmp "loop");
        ];
      B.block "out" [ i 33 "return 0;" (Ret (Some (im 0))) ];
    ]

let main =
  B.func "main" ~params:[ "n" ]
    [
      B.block "entry"
        [
          i 10 "queue_t* q = queue_create();" (Malloc ("q", 7));
          i 11 "q->count = 0;" (Store (r "q", 0, im 0));
          i 12 "int j = 0;" (Assign ("j", Mov (im 0)));
          i 12 "" (Jmp "fill");
        ];
      B.block "fill"
        [
          i 13 "for (; j < n; j++) {" (Assign ("more", B.( <% ) (r "j") (r "n")));
          i 13 "for (; j < n; j++) {" (Branch (r "more", "fill_body", "go"));
        ];
      B.block "fill_body"
        [
          i 14 "conn_t* conn = accept();" (Malloc ("conn", 1));
          i 14 "conn_t* conn = accept();" (Store (r "conn", 0, r "j"));
          i 15 "q->slots[j] = conn;" (Assign ("joff", B.( +% ) (r "j") (im 1)));
          i 15 "q->slots[j] = conn;" (Assign ("slot", B.( +% ) (r "q") (r "joff")));
          i 15 "q->slots[j] = conn;" (Store (r "slot", 0, r "conn"));
          i 16 "q->count = j + 1;" (Assign ("j1", B.( +% ) (r "j") (im 1)));
          i 16 "q->count = j + 1;" (Store (r "q", 0, r "j1"));
          i 16 "" (Assign ("j", Mov (r "j1")));
          i 16 "" (Jmp "fill");
        ];
      B.block "go"
        [
          i 17 "t1 = spawn(worker, q);" (Spawn ("t1", "worker", [ r "q" ]));
          i 18 "t2 = spawn(worker, q);" (Spawn ("t2", "worker", [ r "q" ]));
          i 19 "join(t1); join(t2);" (Join (r "t1"));
          i 19 "join(t1); join(t2);" (Join (r "t2"));
          i 19 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program = Ir.Program.make ~main:"main" [ handle; pop; worker; main ]

let bug : Common.t =
  {
    name = "Apache-1";
    software = "Apache httpd";
    version = "2.2.9";
    bug_id = "45605";
    description =
      "Two workers race on the lockless connection-queue fast path: \
       both observe count == 1, both pop slot 0, and the loser \
       dereferences the NULL the winner left behind.";
    failure_type = "Concurrency bug, segmentation fault";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (2 + (c mod 4)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 20; 21; 23; 24; 25; 26 ];
    root_lines = [ 20; 24; 25; 26 ];
    target_kind_tag = "segfault";
    target_line = 26;
    claimed_loc = 224_533;
    preempt_prob = 0.2;
  }
