(* Differential testing of the two execution engines.

   [Exec.Interp] runs the lowered form ([Ir.Lowered], PR 2);
   [Tsupport.Refinterp] preserves the original engine that interprets
   [Ir.Types.program] directly.  The lowering pass is only a valid
   optimisation if the two are bit-identical on every observable:
   outcome (including the full failure report), printed output, step
   count, the ground-truth access and execution logs, every cost
   counter, every [pre_instr] call with the address it hands out, the
   PT packet streams produced under full tracing, and the traps and
   packets of the client runtime at a Bugbase bug's first-iteration
   plan.  This suite asserts exactly that over the whole Bugbase --
   whose entries exercise every failure kind, locks, spawns and
   preemption -- plus generated random programs, across several
   scheduling seeds, and the fuzz kernels on the clients the fuzz
   pipeline runs first. *)

module I = Exec.Interp

let seeds = [ 0; 1; 2; 7; 42 ]

let check_counters name (a : Exec.Cost.t) (b : Exec.Cost.t) =
  let ck field x y = Alcotest.(check int) (name ^ ": " ^ field) x y in
  ck "instrs" a.instrs b.instrs;
  ck "branches" a.branches b.branches;
  ck "mem_accesses" a.mem_accesses b.mem_accesses;
  ck "sched_switches" a.sched_switches b.sched_switches;
  ck "pt_packets" a.pt_packets b.pt_packets;
  ck "pt_bytes" a.pt_bytes b.pt_bytes;
  ck "pt_toggles" a.pt_toggles b.pt_toggles;
  ck "wp_traps" a.wp_traps b.wp_traps;
  ck "wp_arms" a.wp_arms b.wp_arms;
  ck "rr_events" a.rr_events b.rr_events;
  ck "sw_trace_events" a.sw_trace_events b.sw_trace_events

let outcome_str = function
  | I.Success -> "success"
  | I.Failed r -> Exec.Failure.report_to_string r

(* Which hooks a differential run installs: none, full PT tracing, or
   the client runtime interpreting an instrumentation plan (PT toggles
   and watchpoint arms at pre-points, every plan target allowed). *)
type tracing = Bare | Full | Plan of Instrument.Plan.t

(* First position where two [pre_instr] streams differ, if any. *)
let rec diverge k = function
  | x :: xs, y :: ys -> if x = y then diverge (k + 1) (xs, ys) else Some k
  | [], [] -> None
  | _ -> Some k

(* Run [program] on both engines with identical parameters and assert
   every observable equal, including every [pre_instr] call as
   (tid, iid, addr).  Under [Full] or [Plan] the PT packet streams must
   match packet for packet too; under [Plan], the watchpoint traps. *)
let check_engines ?(tracing = Bare) name ?preempt_prob program workload =
  let run engine =
    let counters = Exec.Cost.create () in
    let pt = if tracing = Bare then None else Some (Hw.Pt.create counters) in
    let wp = Hw.Watchpoint.create counters in
    let hooks =
      match (tracing, pt) with
      | Full, Some pt -> Instrument.Runtime.full_tracing_hooks ~pt
      | Plan plan, Some pt ->
        Instrument.Runtime.hooks ~data_via_pt:false ~plan ~pt ~wp
          ~wp_allowed:plan.Instrument.Plan.wp_targets
      | _ -> I.no_hooks ()
    in
    let pre = ref [] in
    let listen = hooks.pre_instr in
    hooks.pre_instr <-
      (fun ~tid ~instr ~addr ->
        pre := (tid, instr.Ir.Types.iid, addr) :: !pre;
        listen ~tid ~instr ~addr);
    let res =
      engine ~hooks ~counters ?preempt_prob ~record_gt:true program workload
    in
    Option.iter Hw.Pt.finish pt;
    let packets =
      match pt with
      | None -> []
      | Some pt ->
        List.map (fun tid -> (tid, Hw.Pt.packets_of pt tid)) (Hw.Pt.all_tids pt)
    in
    (res, counters, List.rev !pre, packets, Hw.Watchpoint.traps wp)
  in
  let r_ref, c_ref, pre_ref, p_ref, w_ref =
    run (fun ~hooks ~counters ?preempt_prob ~record_gt p w ->
        Tsupport.Refinterp.run ~hooks ~counters ?preempt_prob ~record_gt p w)
  in
  let r_low, c_low, pre_low, p_low, w_low =
    run (fun ~hooks ~counters ?preempt_prob ~record_gt p w ->
        I.run ~hooks ~counters ?preempt_prob ~record_gt p w)
  in
  Alcotest.(check string)
    (name ^ ": outcome")
    (outcome_str r_ref.I.outcome)
    (outcome_str r_low.I.outcome);
  Alcotest.(check bool)
    (name ^ ": outcome (full report)")
    true
    (r_ref.I.outcome = r_low.I.outcome);
  Alcotest.(check (list string)) (name ^ ": output") r_ref.I.output r_low.I.output;
  Alcotest.(check int) (name ^ ": steps") r_ref.I.steps r_low.I.steps;
  Alcotest.(check bool)
    (name ^ ": access log")
    true
    (r_ref.I.accesses = r_low.I.accesses);
  Alcotest.(check bool)
    (name ^ ": executed log")
    true
    (r_ref.I.executed = r_low.I.executed);
  (match diverge 0 (pre_ref, pre_low) with
   | None -> ()
   | Some k -> Alcotest.failf "%s: pre_instr streams diverge at call %d" name k);
  check_counters name c_ref c_low;
  Alcotest.(check bool) (name ^ ": PT packet streams") true (p_ref = p_low);
  Alcotest.(check bool) (name ^ ": watchpoint traps") true (w_ref = w_low)

(* ------------------------------------------------------------------ *)
(* Every Bugbase entry, several seeds, bare and under full tracing. *)

let bugbase_cases =
  List.map
    (fun (bug : Bugbase.Common.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s across %d seeds" bug.name (List.length seeds))
        `Quick
        (fun () ->
          List.iter
            (fun seed ->
              let name = Printf.sprintf "%s/seed %d" bug.name seed in
              let w = bug.workload_of seed in
              check_engines name ~preempt_prob:bug.preempt_prob bug.program w;
              check_engines ~tracing:Full (name ^ "/traced")
                ~preempt_prob:bug.preempt_prob bug.program w)
            seeds))
    Bugbase.Registry.all

(* ------------------------------------------------------------------ *)
(* Every Bugbase entry under the client runtime's hooks at the
   first-iteration plan: the watchpoint arms depend on the address each
   engine hands [pre_instr], so the traps and counters pin it. *)

let first_plan (bug : Bugbase.Common.t) =
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let slice = Slicing.Slicer.compute bug.program failure in
  Instrument.Place.compute bug.program
    (Slicing.Slicer.take slice Gist.Config.default.sigma0)

let plan_cases =
  List.map
    (fun (bug : Bugbase.Common.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s under its first-iteration plan" bug.name)
        `Quick
        (fun () ->
          let plan = first_plan bug in
          List.iter
            (fun seed ->
              check_engines ~tracing:(Plan plan)
                (Printf.sprintf "%s/seed %d/plan" bug.name seed)
                ~preempt_prob:bug.preempt_prob bug.program
                (bug.workload_of seed))
            seeds))
    Bugbase.Registry.all
  @ [
      (* Not every first-iteration plan arms a watchpoint (a tracked
         lock or assert has no address), so check that enough of them
         do for the cases above to pin the armed address. *)
      Alcotest.test_case "first-iteration plans arm and trap watchpoints"
        `Quick (fun () ->
          let armed =
            List.filter
              (fun (bug : Bugbase.Common.t) ->
                let plan = first_plan bug in
                let r =
                  Gist.Client.run_one ~preempt_prob:bug.preempt_prob ~plan
                    ~wp_allowed:plan.Instrument.Plan.wp_targets bug.program
                    (bug.workload_of 0)
                in
                r.r_counters.wp_arms > 0 && r.r_counters.wp_traps > 0)
              Bugbase.Registry.all
          in
          Alcotest.(check bool)
            "at least 4 bugs arm and trap" true
            (List.length armed >= 4));
    ]

(* ------------------------------------------------------------------ *)
(* Generated random programs: single-threaded and racy two-worker; and
   the fuzz kernels.  The kernels are every case of the seed-42
   campaign (a superset of the cases the fuzz campaigns of
   [dune build @check] check) and the corpus seeds, each run on
   clients 0 and 1 under the case's preemption probability. *)

let fuzz_kernels () =
  Fuzz.Runner.cases ~seed:42 ~count:50 ()
  @ List.map
      (fun (pat, seed) -> Fuzz.Gen.generate pat seed)
      Tsupport.Programs.viable_seeds

let gen_cases =
  [
    Alcotest.test_case "random single-thread programs" `Quick (fun () ->
        List.iter
          (fun pseed ->
            let program = Fuzz.Gen.random pseed in
            List.iter
              (fun seed ->
                check_engines
                  (Printf.sprintf "gen %d/seed %d" pseed seed)
                  program
                  (I.workload ~args:[ Exec.Value.VInt (pseed + seed) ] seed))
              seeds)
          [ 3; 17; 99; 256 ]);
    Alcotest.test_case "random multithreaded programs, traced" `Quick
      (fun () ->
        List.iter
          (fun pseed ->
            let program = Fuzz.Gen.random_threaded pseed in
            List.iter
              (fun seed ->
                check_engines ~tracing:Full
                  (Printf.sprintf "gen-mt %d/seed %d" pseed seed)
                  program
                  (I.workload ~args:[ Exec.Value.VInt 3 ] seed))
              seeds)
          [ 5; 21; 77 ]);
    Alcotest.test_case "fuzz kernels, traced" `Quick (fun () ->
        List.iter
          (fun (case : Fuzz.Gen.case) ->
            List.iter
              (fun c ->
                check_engines ~tracing:Full
                  (Printf.sprintf "%s/client %d" case.c_name c)
                  ~preempt_prob:case.c_preempt case.c_program
                  (Fuzz.Gen.workload_of case c))
              [ 0; 1 ])
          (fuzz_kernels ()));
  ]

(* ------------------------------------------------------------------ *)
(* Unknown labels are a load-time [Lower_error], not a runtime crash. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [Ir.Program.make] rejects unknown labels itself, so a program
   containing one can only be hand-assembled behind its back -- which
   is exactly the hole the old engine's runtime [Type_error "unknown
   label ..."] in [goto] covered.  The lowering pass must close it at
   load time instead. *)
(* Hand-rolled program records that bypass [Program.make]'s validation:
   the lowering pass must reject these on its own, at lowering time,
   wherever the bad name hides. *)
let bad_funcs ?(main = "main") funcs =
  let open Ir.Types in
  let counter = ref 0 in
  let funcs =
    List.map
      (fun (fname, params, blocks) ->
        let blocks =
          Array.of_list
            (List.map
               (fun (label, kinds) ->
                 let instrs =
                   Array.of_list
                     (List.map
                        (fun kind ->
                          incr counter;
                          {
                            iid = !counter;
                            kind;
                            loc = { file = "bad.c"; line = !counter };
                            text = "";
                          })
                        kinds)
                 in
                 { label; instrs })
               blocks)
        in
        { fname; params; blocks })
      funcs
  in
  let by_iid = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Array.iteri
        (fun bi b ->
          Array.iteri
            (fun k ins ->
              Hashtbl.replace by_iid ins.iid
                (ins, { p_func = f.fname; p_block = bi; p_index = k }))
            b.instrs)
        f.blocks)
    funcs;
  let func_tbl = Hashtbl.create 4 in
  List.iter (fun f -> Hashtbl.replace func_tbl f.fname f) funcs;
  { globals = []; funcs; main; by_iid; func_tbl; n_instrs = !counter }

let bad_program kinds = bad_funcs [ ("main", [], [ ("entry", kinds) ]) ]

let expect_lower_error ~sub bad =
  match Ir.Lowered.lower bad with
  | exception Ir.Lowered.Lower_error msg ->
    if not (contains ~sub msg) then
      Alcotest.failf "message %S does not mention %S" msg sub
  | _ -> Alcotest.fail "expected Lower_error"

let lower_errors =
  [
    Alcotest.test_case "jump to unknown label fails at lowering time"
      `Quick (fun () ->
        let bad = bad_program [ Ir.Types.Jmp "nowhere" ] in
        match Ir.Lowered.lower bad with
        | exception Ir.Lowered.Lower_error msg ->
          Alcotest.(check bool)
            "message names the label" true
            (contains ~sub:"nowhere" msg && contains ~sub:"label" msg)
        | _ -> Alcotest.fail "expected Lower_error");
    Alcotest.test_case "running such a program raises before execution"
      `Quick (fun () ->
        let bad =
          bad_program
            Ir.Types.
              [
                Assign ("x", Mov (Imm 1));
                Branch (Reg "x", "gone", "entry");
              ]
        in
        match I.run bad (I.workload 0) with
        | exception Ir.Lowered.Lower_error _ -> ()
        | _ -> Alcotest.fail "expected Lower_error from run");
    Alcotest.test_case "branch with an unknown then-label" `Quick (fun () ->
        expect_lower_error ~sub:"nowhere"
          (bad_program
             Ir.Types.
               [
                 Assign ("x", Mov (Imm 1));
                 Branch (Reg "x", "nowhere", "entry");
               ]));
    Alcotest.test_case "branch with an unknown else-label" `Quick (fun () ->
        expect_lower_error ~sub:"nowhere"
          (bad_program
             Ir.Types.
               [
                 Assign ("x", Mov (Imm 1));
                 Branch (Reg "x", "entry", "nowhere");
               ]));
    Alcotest.test_case "bad label behind a jump chain" `Quick (fun () ->
        (* entry -> mid -> (bad): the bad jump sits in a block only
           reachable through another jump. *)
        expect_lower_error ~sub:"nowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ("entry", [ Jmp "mid" ]);
                     ("mid", [ Jmp "nowhere" ]);
                   ] );
               ]));
    Alcotest.test_case "bad label behind a branch arm" `Quick (fun () ->
        expect_lower_error ~sub:"nowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ( "entry",
                       [
                         Assign ("c", Mov (Imm 0));
                         Branch (Reg "c", "t", "f");
                       ] );
                     ("t", [ Jmp "nowhere" ]);
                     ("f", [ Ret None ]);
                   ] );
               ]));
    Alcotest.test_case "bad label in an unreachable block" `Quick (fun () ->
        (* no control flow reaches [dead], but lowering is eager *)
        expect_lower_error ~sub:"nowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ("entry", [ Ret None ]);
                     ("dead", [ Jmp "nowhere" ]);
                   ] );
               ]));
    Alcotest.test_case "bad label in a spawned thread routine" `Quick
      (fun () ->
        (* the routine is entered only indirectly, through Spawn *)
        expect_lower_error ~sub:"wnowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ( "entry",
                       [
                         Spawn ("t", "worker", []);
                         Join (Reg "t");
                         Ret None;
                       ] );
                   ] );
                 ( "worker", [],
                   [
                     ("entry", [ Jmp "wnowhere" ]);
                     ("w2", [ Ret None ]);
                   ] );
               ]));
    Alcotest.test_case "spawn of an undefined routine" `Quick (fun () ->
        expect_lower_error ~sub:"ghost"
          (bad_program
             Ir.Types.[ Spawn ("t", "ghost", []); Ret None ]));
    Alcotest.test_case "call to an undefined function" `Quick (fun () ->
        expect_lower_error ~sub:"ghost"
          (bad_program
             Ir.Types.[ Call (Some "x", "ghost", []); Ret None ]));
    Alcotest.test_case "unknown global" `Quick (fun () ->
        expect_lower_error ~sub:"gmissing"
          (bad_program
             Ir.Types.[ Load_global ("x", "gmissing"); Ret None ]));
    Alcotest.test_case "unknown builtin" `Quick (fun () ->
        expect_lower_error ~sub:"frobnicate"
          (bad_program
             Ir.Types.[ Builtin (None, "frobnicate", []); Ret None ]));
    Alcotest.test_case "undefined main function" `Quick (fun () ->
        expect_lower_error ~sub:"nomain"
          (bad_funcs ~main:"nomain"
             Ir.Types.[ ("main", [], [ ("entry", [ Ret None ]) ]) ]));
  ]

let () =
  Alcotest.run "differential"
    [
      ("bugbase", bugbase_cases);
      ("plan", plan_cases);
      ("generated", gen_cases);
      ("lower-errors", lower_errors);
    ]
