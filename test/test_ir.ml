(* IR construction, validation, indexing and helper tests. *)

open Ir.Types
module B = Ir.Builder

let i = B.file "t.c"
let r = B.r
let im = B.im

let mk_main blocks = B.func "main" ~params:[ "a" ] blocks

let check_invalid name thunk =
  Alcotest.test_case name `Quick (fun () ->
      match thunk () with
      | exception Invalid_program _ -> ()
      | _ -> Alcotest.fail "expected Invalid_program")

let simple_block = B.block "entry" [ i 1 "ret" (Ret (Some (r "a"))) ]

let construction =
  [
    Alcotest.test_case "iids are unique and sequential" `Quick (fun () ->
        let p = Tsupport.Programs.call_chain in
        let iids =
          Ir.Program.all_instrs p |> List.map (fun (x : instr) -> x.iid)
        in
        Alcotest.(check (list int)) "sequential" (List.init p.n_instrs (fun k -> k + 1))
          iids);
    Alcotest.test_case "by_iid index is complete" `Quick (fun () ->
        let p = Tsupport.Programs.diamond in
        List.iter
          (fun (x : instr) ->
            let x', _ = Hashtbl.find p.by_iid x.iid in
            Alcotest.(check int) "same instr" x.iid x'.iid)
          (Ir.Program.all_instrs p));
    Alcotest.test_case "position_of points at the instruction" `Quick (fun () ->
        let p = Tsupport.Programs.loop_sum in
        List.iter
          (fun (x : instr) ->
            let pos = Ir.Program.position_of p x.iid in
            let f = Ir.Program.find_func p pos.p_func in
            let y = f.blocks.(pos.p_block).instrs.(pos.p_index) in
            Alcotest.(check int) "roundtrip" x.iid y.iid)
          (Ir.Program.all_instrs p));
    Alcotest.test_case "source_loc_count counts distinct lines" `Quick
      (fun () ->
        let p = Tsupport.Programs.straight in
        let iids =
          Ir.Program.all_instrs p |> List.map (fun (x : instr) -> x.iid)
        in
        Alcotest.(check int) "3 lines" 3 (Ir.Program.source_loc_count p iids));
    Alcotest.test_case "find_func raises for unknown" `Quick (fun () ->
        match Ir.Program.find_func Tsupport.Programs.straight "nope" with
        | exception Invalid_program _ -> ()
        | _ -> Alcotest.fail "expected Invalid_program");
  ]

let validation =
  [
    check_invalid "empty block rejected" (fun () ->
        Ir.Program.make ~main:"main" [ mk_main [ B.block "entry" [] ] ]);
    check_invalid "missing terminator rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [ mk_main [ B.block "entry" [ i 1 "" (Assign ("x", Mov (im 1))) ] ] ]);
    check_invalid "terminator mid-block rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [
            mk_main
              [
                B.block "entry"
                  [ i 1 "" (Ret None); i 2 "" (Assign ("x", Mov (im 1))) ];
              ];
          ]);
    check_invalid "duplicate label rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [
            mk_main
              [
                B.block "entry" [ i 1 "" (Jmp "entry") ];
                B.block "entry" [ i 2 "" (Ret None) ];
              ];
          ]);
    check_invalid "unknown jump label rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [ mk_main [ B.block "entry" [ i 1 "" (Jmp "nowhere") ] ] ]);
    check_invalid "unknown callee rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [
            mk_main
              [ B.block "entry" [ i 1 "" (Call (None, "ghost", [])); i 2 "" (Ret None) ] ];
          ]);
    check_invalid "unknown builtin rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [
            mk_main
              [
                B.block "entry"
                  [ i 1 "" (Builtin (None, "frobnicate", [])); i 2 "" (Ret None) ];
              ];
          ]);
    check_invalid "unknown spawn routine rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [
            mk_main
              [
                B.block "entry"
                  [ i 1 "" (Spawn ("t", "ghost", [])); i 2 "" (Ret None) ];
              ];
          ]);
    check_invalid "unknown global rejected" (fun () ->
        Ir.Program.make ~main:"main"
          [
            mk_main
              [
                B.block "entry"
                  [ i 1 "" (Load_global ("x", "ghost")); i 2 "" (Ret None) ];
              ];
          ]);
    check_invalid "missing main rejected" (fun () ->
        Ir.Program.make ~main:"main" [ B.func "not_main" [ simple_block ] ]);
    Alcotest.test_case "valid program accepted" `Quick (fun () ->
        let p = Ir.Program.make ~main:"main" [ mk_main [ simple_block ] ] in
        Alcotest.(check int) "one instr" 1 p.n_instrs);
  ]

let uses_def =
  let instr_of k = { iid = 0; kind = k; loc = no_loc; text = "" } in
  [
    Alcotest.test_case "uses of store" `Quick (fun () ->
        let u = Ir.Program.uses (instr_of (Store (r "p", 1, r "v"))) in
        Alcotest.(check int) "two operands" 2 (List.length u));
    Alcotest.test_case "def of load" `Quick (fun () ->
        Alcotest.(check (option string))
          "dst" (Some "x")
          (Ir.Program.def (instr_of (Load ("x", r "p", 0)))));
    Alcotest.test_case "def of store is none" `Quick (fun () ->
        Alcotest.(check (option string))
          "none" None
          (Ir.Program.def (instr_of (Store (r "p", 0, im 1)))));
    Alcotest.test_case "call def is its destination" `Quick (fun () ->
        Alcotest.(check (option string))
          "dst" (Some "v")
          (Ir.Program.def (instr_of (Call (Some "v", "f", [ r "a" ])))));
    Alcotest.test_case "memory access classification" `Quick (fun () ->
        Alcotest.(check bool) "load" true
          (Ir.Program.is_memory_access (instr_of (Load ("x", r "p", 0))));
        Alcotest.(check bool) "global store" true
          (Ir.Program.is_memory_access (instr_of (Store_global ("g", im 1))));
        Alcotest.(check bool) "assign" false
          (Ir.Program.is_memory_access (instr_of (Assign ("x", Mov (im 1))))));
    Alcotest.test_case "branch uses its condition" `Quick (fun () ->
        let u = Ir.Program.uses (instr_of (Branch (r "c", "a", "b"))) in
        Alcotest.(check int) "one" 1 (List.length u));
  ]

let printing =
  [
    Alcotest.test_case "program pretty-print mentions functions" `Quick
      (fun () ->
        let s = Fmt.str "%a" Ir.Pp.pp_program Tsupport.Programs.call_chain in
        List.iter
          (fun f ->
            if not (Astring.String.is_infix ~affix:f s) then
              Alcotest.failf "missing %s in pp output" f)
          [ "func main"; "func f"; "func g" ]);
    Alcotest.test_case "instr pretty-print shows location" `Quick (fun () ->
        let p = Tsupport.Programs.straight in
        let x = Ir.Program.instr_at p 1 in
        let s = Ir.Pp.instr_to_string x in
        if not (Astring.String.is_infix ~affix:"test.c:1" s) then
          Alcotest.failf "no location in %S" s);
  ]

let () =
  Alcotest.run "ir"
    [
      ("construction", construction);
      ("validation", validation);
      ("uses-def", uses_def);
      ("printing", printing);
    ]
