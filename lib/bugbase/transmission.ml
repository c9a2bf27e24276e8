(* Transmission bug #1818 (v1.42): the tr_bandwidth accounting is
   updated from several threads without synchronisation.  Allocation
   and release both do read-modify-write on the shared byte counter;
   a lost update leaves the counter non-zero after all transfers have
   been returned, and the invariant assertion in the shutdown path
   fires.

   Global: band_used (bytes currently allocated to peers). *)

open Ir.Types
module B = Ir.Builder

let file = "transmission.c"
let i = B.file file
let r = B.r
let im = B.im

let transfer_piece =
  B.func "transfer_piece" ~params:[ "sz" ]
    [
      B.block "entry"
        [
          i 90 "" (Assign ("acc", Mov (r "sz")));
          i 90 "" (Assign ("k", Mov (im 0)));
          i 90 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 91 "memcpy(dst, src, sz);" (Assign ("more", B.( <% ) (r "k") (im 140)));
          i 91 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 92 "" (Assign ("acc", B.( +% ) (r "acc") (im 7)));
          i 92 "" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 92 "" (Jmp "loop");
        ];
      B.block "done" [ i 93 "return acc;" (Ret (Some (r "acc"))) ];
    ]

let peer_loop =
  B.func "peer_loop" ~params:[ "pieces"; "sz" ]
    [
      B.block "entry"
        [
          i 20 "for (int k = 0; k < pieces; k++) {" (Assign ("k", Mov (im 0)));
          i 20 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 20 "for (int k = 0; k < pieces; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "pieces")));
          i 20 "" (Branch (r "more", "alloc", "done"));
        ];
      B.block "alloc"
        [
          i 21 "int used = band->used;" (Load_global ("used", "band_used"));
          i 22 "band->used = used + sz;"
            (Assign ("u1", B.( +% ) (r "used") (r "sz")));
          i 22 "band->used = used + sz;" (Store_global ("band_used", r "u1"));
          i 23 "transfer_piece(sz);"
            (Call (Some "w", "transfer_piece", [ r "sz" ]));
          i 24 "int used2 = band->used;" (Load_global ("used2", "band_used"));
          i 25 "band->used = used2 - sz;"
            (Assign ("u2", B.( -% ) (r "used2") (r "sz")));
          i 25 "band->used = used2 - sz;" (Store_global ("band_used", r "u2"));
          i 26 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 26 "" (Jmp "loop");
        ];
      B.block "done" [ i 27 "return 0;" (Ret (Some (im 0))) ];
    ]

let main =
  B.func "main" ~params:[ "pieces" ]
    [
      B.block "entry"
        [
          i 10 "t1 = spawn(peer_loop, pieces, 4);"
            (Spawn ("t1", "peer_loop", [ r "pieces"; im 4 ]));
          i 11 "t2 = spawn(peer_loop, pieces, 4);"
            (Spawn ("t2", "peer_loop", [ r "pieces"; im 4 ]));
          i 12 "join(t1); join(t2);" (Join (r "t1"));
          i 12 "join(t1); join(t2);" (Join (r "t2"));
          i 13 "int leftover = band->used;" (Load_global ("left", "band_used"));
          i 14 "tr_assert(leftover == 0);"
            (Assign ("okp", B.( =% ) (r "left") (im 0)));
          i 14 "tr_assert(leftover == 0);"
            (Assert (r "okp", "bandwidth accounting leaked"));
          i 15 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make
    ~globals:[ B.global "band_used" ]
    ~main:"main"
    [ transfer_piece; peer_loop; main ]

let bug : Common.t =
  {
    name = "Transmission";
    software = "Transmission";
    version = "1.42";
    bug_id = "1818";
    description =
      "Unsynchronised read-modify-write on the shared bandwidth counter \
       loses updates; the shutdown invariant assert(used == 0) fails.";
    failure_type = "Concurrency bug, assertion failure";
    bug_class = Common.Concurrency;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VInt (2 + (c mod 3)) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 10; 11; 21; 22; 24; 25; 13; 14 ];
    root_lines = [ 21; 22; 13; 14 ];
    target_kind_tag = "assert";
    target_line = 14;
    claimed_loc = 59_977;
    preempt_prob = 0.18;
  }
