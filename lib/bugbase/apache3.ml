(* Apache bug #21287 (paper Fig. 8, "Apache-3"): a double free in the
   mod_mem_cache object cache.  decrement_refcount() does

       dec(&obj->refcnt);
       if (!obj->refcnt) free(obj);

   without atomicity: two threads can both observe refcnt == 0 and
   both call free(obj).  Developers fixed it by making the
   decrement-check-free triplet atomic (paper §5.1).

   obj layout: [0] refcnt, [1] complete, [2] data. *)

open Ir.Types
module B = Ir.Builder

let file = "apache3.c"
let i = B.file file
let r = B.r
let im = B.im

(* Serving the cached object: CPU work proportional to the request. *)
let process =
  B.func "process" ~params:[ "obj" ]
    [
      B.block "entry"
        [
          i 90 "char* data = obj->data;" (Load ("data", r "obj", 2));
          i 91 "int acc = 0;" (Assign ("acc", Mov (im 0)));
          i 91 "" (Assign ("k", Mov (im 0)));
          i 91 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 92 "for (k = 0; k < len; k++)"
            (Assign ("more", B.( <% ) (r "k") (im 220)));
          i 92 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 93 "acc += data[k] * 31;" (Assign ("x", B.( *% ) (r "data") (im 31)));
          i 93 "acc += data[k] * 31;" (Assign ("acc", B.( +% ) (r "acc") (r "k")));
          i 94 "" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 94 "" (Jmp "loop");
        ];
      B.block "done" [ i 95 "return acc;" (Ret (Some (r "acc"))) ];
    ]

let decrement_refcount =
  B.func "decrement_refcount" ~params:[ "obj" ]
    [
      B.block "entry"
        [
          i 80 "if (!obj->complete) {" (Load ("cm", r "obj", 1));
          i 80 "if (!obj->complete) {" (Assign ("notc", Not (r "cm")));
          i 80 "if (!obj->complete) {" (Branch (r "notc", "body", "out"));
        ];
      B.block "body"
        [
          i 81 "object_t *mobj = (object_t*) obj->data;"
            (Load ("mobj", r "obj", 2));
          i 82 "dec(&obj->refcnt);" (Load ("rc", r "obj", 0));
          i 82 "dec(&obj->refcnt);" (Assign ("rc1", B.( -% ) (r "rc") (im 1)));
          i 82 "dec(&obj->refcnt);" (Store (r "obj", 0, r "rc1"));
          i 82 "dec(&obj->refcnt);" (Assign ("lg", B.( *% ) (r "rc1") (im 2)));
          i 82 "dec(&obj->refcnt);" (Assign ("lg2", B.( +% ) (r "lg") (im 1)));
          i 83 "if (!obj->refcnt) {" (Load ("rc2", r "obj", 0));
          i 83 "if (!obj->refcnt) {" (Assign ("z", B.( =% ) (r "rc2") (im 0)));
          i 83 "if (!obj->refcnt) {" (Branch (r "z", "fr", "out"));
        ];
      B.block "fr"
        [
          i 84 "free(obj);" (Free (r "obj"));
          i 84 "}" (Jmp "out");
        ];
      B.block "out" [ i 85 "return;" (Ret (Some (im 0))) ];
    ]

let worker =
  B.func "worker" ~params:[ "obj" ]
    [
      B.block "entry"
        [
          i 70 "serve_request(obj);" (Call (Some "w", "process", [ r "obj" ]));
          i 71 "decrement_refcount(obj);"
            (Call (None, "decrement_refcount", [ r "obj" ]));
          i 72 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let main =
  B.func "main" ~params:[ "n" ]
    [
      B.block "entry"
        [
          i 60 "cache_object_t* obj = malloc(sizeof(*obj));" (Malloc ("obj", 3));
          i 61 "obj->refcnt = 2;" (Store (r "obj", 0, im 2));
          i 62 "obj->complete = 0;" (Store (r "obj", 1, im 0));
          i 63 "obj->data = payload;" (Store (r "obj", 2, r "n"));
          i 64 "t1 = spawn(worker, obj);" (Spawn ("t1", "worker", [ r "obj" ]));
          i 65 "t2 = spawn(worker, obj);" (Spawn ("t2", "worker", [ r "obj" ]));
          i 66 "join(t1);" (Join (r "t1"));
          i 67 "join(t2);" (Join (r "t2"));
          i 68 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~main:"main" [ process; decrement_refcount; worker; main ]

let bug : Common.t =
  {
    name = "Apache-3";
    software = "Apache httpd";
    version = "2.0.48";
    bug_id = "21287";
    description =
      "decrement_refcount's dec / zero-check / free triplet is not \
       atomic; two threads can both observe refcnt == 0 and free the \
       cache object twice.";
    failure_type = "Concurrency bug, double free";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (1 + (c mod 5)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 80; 82; 83; 84 ];
    root_lines = [ 82; 83; 84 ];
    target_kind_tag = "double-free";
    target_line = 84;
    claimed_loc = 169_747;
    preempt_prob = 0.3;
  }
