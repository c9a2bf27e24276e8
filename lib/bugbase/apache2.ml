(* Apache bug #25520 ("Apache-2", httpd 2.0.48): concurrent access-log
   writes corrupt the shared log buffer.  Each writer does

       pos = log_pos; buf[pos] = msg; log_pos = pos + 1;

   without holding the buffer lock, so two threads can read the same
   position and one entry overwrites the other; the flush-time
   consistency check then fails.

   Globals: log_pos (index), logbuf (pointer to the entry array). *)

open Ir.Types
module B = Ir.Builder

let file = "apache2.c"
let i = B.file file
let r = B.r
let im = B.im

(* Formatting a log entry: CPU work per request. *)
let format_entry =
  B.func "format_entry" ~params:[ "req" ]
    [
      B.block "entry"
        [
          i 50 "char* p = fmt_begin(req);" (Assign ("h", B.( *% ) (r "req") (im 17)));
          i 51 "" (Assign ("k", Mov (im 0)));
          i 51 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 51 "while (*src) *dst++ = *src++;"
            (Assign ("more", B.( <% ) (r "k") (im 160)));
          i 51 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 52 "" (Assign ("h", B.( +% ) (r "h") (r "k")));
          i 52 "" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 52 "" (Jmp "loop");
        ];
      B.block "done" [ i 53 "return p;" (Ret (Some (r "h"))) ];
    ]

let log_write =
  B.func "log_write" ~params:[ "msg" ]
    [
      B.block "entry"
        [
          i 30 "int pos = log_pos;" (Load_global ("pos", "log_pos"));
          i 31 "entry_t* buf = logbuf;" (Load_global ("buf", "logbuf"));
          i 32 "buf[pos] = msg;"
            (Assign ("slot", B.( +% ) (r "buf") (r "pos")));
          i 32 "buf[pos] = msg;" (Store (r "slot", 0, r "msg"));
          i 33 "log_pos = pos + 1;" (Assign ("p1", B.( +% ) (r "pos") (im 1)));
          i 33 "log_pos = pos + 1;" (Store_global ("log_pos", r "p1"));
          i 34 "return;" (Ret (Some (im 0)));
        ];
    ]

let request_worker =
  B.func "request_worker" ~params:[ "n" ]
    [
      B.block "entry"
        [
          i 20 "for (int k = 0; k < n; k++) {" (Assign ("k", Mov (im 0)));
          i 20 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 20 "for (int k = 0; k < n; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "n")));
          i 20 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 21 "entry_t e = format_entry(k);"
            (Call (Some "e", "format_entry", [ r "k" ]));
          i 22 "log_write(e);" (Call (None, "log_write", [ r "e" ]));
          i 23 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 23 "" (Jmp "loop");
        ];
      B.block "done" [ i 24 "return 0;" (Ret (Some (im 0))) ];
    ]

let main =
  B.func "main" ~params:[ "n" ]
    [
      B.block "entry"
        [
          i 10 "logbuf = malloc(LOG_CAPACITY);" (Malloc ("buf", 32));
          i 10 "logbuf = malloc(LOG_CAPACITY);" (Store_global ("logbuf", r "buf"));
          i 11 "t1 = spawn(request_worker, n);"
            (Spawn ("t1", "request_worker", [ r "n" ]));
          i 12 "t2 = spawn(request_worker, n);"
            (Spawn ("t2", "request_worker", [ r "n" ]));
          i 13 "join(t1); join(t2);" (Join (r "t1"));
          i 13 "join(t1); join(t2);" (Join (r "t2"));
          i 14 "int written = log_pos;" (Load_global ("written", "log_pos"));
          i 15 "expected = 2 * n;" (Assign ("exp", B.( *% ) (r "n") (im 2)));
          i 16 "ap_assert(written == expected);"
            (Assign ("okp", B.( =% ) (r "written") (r "exp")));
          i 16 "ap_assert(written == expected);"
            (Assert (r "okp", "log entries lost"));
          i 17 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make
    ~globals:[ B.global "log_pos"; B.global "logbuf" ]
    ~main:"main"
    [ format_entry; log_write; request_worker; main ]

let bug : Common.t =
  {
    name = "Apache-2";
    software = "Apache httpd";
    version = "2.0.48";
    bug_id = "25520";
    description =
      "Two request workers race on the shared access-log position: a \
       read-increment-write without the buffer lock loses entries, and \
       the flush-time consistency assert fails.";
    failure_type = "Concurrency bug, assertion failure";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (3 + (c mod 3)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 30; 33; 14; 16 ];
    root_lines = [ 30; 33; 14; 16 ];
    target_kind_tag = "assert";
    target_line = 16;
    claimed_loc = 169_747;
    preempt_prob = 0.15;
  }
