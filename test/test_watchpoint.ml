(* Hardware watchpoint unit tests: the 4-slot budget, trap logging and
   total ordering. *)

module W = Hw.Watchpoint

let mk () = W.create (Exec.Cost.create ())

let tests =
  [
    Alcotest.test_case "default capacity is four debug registers" `Quick
      (fun () ->
        let w = mk () in
        Alcotest.(check int) "free" 4 (W.free_slots w));
    Alcotest.test_case "arming beyond capacity fails" `Quick (fun () ->
        let w = mk () in
        List.iter (fun a -> Alcotest.(check bool) "armed" true (W.arm w a))
          [ 10; 20; 30; 40 ];
        Alcotest.(check bool) "fifth rejected" false (W.arm w 50));
    Alcotest.test_case "double arming the same address is rejected" `Quick
      (fun () ->
        let w = mk () in
        Alcotest.(check bool) "first" true (W.arm w 10);
        Alcotest.(check bool) "second" false (W.arm w 10);
        Alcotest.(check int) "one slot used" 3 (W.free_slots w));
    Alcotest.test_case "only watched addresses trap" `Quick (fun () ->
        let w = mk () in
        ignore (W.arm w 10);
        W.on_access w ~tid:0 ~iid:1 ~addr:10 ~rw:Exec.Interp.Read
          ~value:(Exec.Value.VInt 7);
        W.on_access w ~tid:0 ~iid:2 ~addr:11 ~rw:Exec.Interp.Write
          ~value:(Exec.Value.VInt 8);
        Alcotest.(check int) "one trap" 1 (List.length (W.traps w)));
    Alcotest.test_case "traps record tid, pc, kind and value in order" `Quick
      (fun () ->
        let w = mk () in
        ignore (W.arm w 10);
        W.on_access w ~tid:1 ~iid:5 ~addr:10 ~rw:Exec.Interp.Write
          ~value:(Exec.Value.VInt 1);
        W.on_access w ~tid:2 ~iid:6 ~addr:10 ~rw:Exec.Interp.Read
          ~value:(Exec.Value.VInt 1);
        match W.traps w with
        | [ a; b ] ->
          Alcotest.(check int) "seq order" 1 a.W.w_seq;
          Alcotest.(check int) "tid" 1 a.W.w_tid;
          Alcotest.(check int) "pc" 5 a.W.w_iid;
          Alcotest.(check bool) "write" true (a.W.w_rw = Exec.Interp.Write);
          Alcotest.(check int) "second seq" 2 b.W.w_seq
        | _ -> Alcotest.fail "expected two traps");
    Alcotest.test_case "arm and trap counters feed the cost model" `Quick
      (fun () ->
        let c = Exec.Cost.create () in
        let w = W.create c in
        ignore (W.arm w 10);
        W.on_access w ~tid:0 ~iid:1 ~addr:10 ~rw:Exec.Interp.Read
          ~value:(Exec.Value.VInt 0);
        Alcotest.(check int) "arms" 1 c.Exec.Cost.wp_arms;
        Alcotest.(check int) "traps" 1 c.Exec.Cost.wp_traps;
        Alcotest.(check bool) "extra cycles > 0" true
          (Exec.Cost.wp_extra_cycles c > 0.0));
    Alcotest.test_case "custom capacity respected" `Quick (fun () ->
        let w = W.create ~capacity:2 (Exec.Cost.create ()) in
        ignore (W.arm w 1);
        ignore (W.arm w 2);
        Alcotest.(check bool) "third rejected" false (W.arm w 3));
  ]

let () = Alcotest.run "watchpoint" [ ("watchpoint", tests) ]
