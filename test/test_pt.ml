(* Intel PT simulator tests: the central property is the record/decode
   round trip -- what [Hw.Pt.decode] reconstructs from a thread's ring
   bytes must equal what the thread actually executed while tracing was
   on. *)

open Tsupport.Programs
module I = Exec.Interp

(* Run [program] under full tracing and compare each thread's decoded
   sequence with the interpreter's ground truth. *)
let round_trip ?(args = []) ?(seed = 1) program =
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
  let res =
    Exec.Interp.run ~hooks ~counters ~record_gt:true program
      (I.workload ~args seed)
  in
  Hw.Pt.finish pt;
  (res, decode_streams pt program)

let check_round_trip ?(args = []) ?(seed = 1) name program =
  Alcotest.test_case name `Quick (fun () ->
      let res, decoded = round_trip ~args ~seed program in
      (match res.I.outcome with
       | I.Failed rep ->
         Alcotest.failf "program failed: %s" (Exec.Failure.report_to_string rep)
       | I.Success -> ());
      let truth = per_thread_executed res in
      List.iter
        (fun (tid, expected) ->
          match List.assoc_opt tid decoded with
          | None -> Alcotest.failf "no stream for thread %d" tid
          | Some (d : Hw.Pt.decoded) ->
            Alcotest.(check (list int))
              (Printf.sprintf "thread %d" tid)
              expected d.d_iids)
        truth)

let round_trips =
  [
    check_round_trip "straight-line code" ~args:[ Exec.Value.VInt 5 ] straight;
    check_round_trip "diamond, taken arm" ~args:[ Exec.Value.VInt 5 ] diamond;
    check_round_trip "diamond, fallthrough arm" ~args:[ Exec.Value.VInt (-5) ]
      diamond;
    check_round_trip "loop" ~args:[ Exec.Value.VInt 13 ] loop_sum;
    check_round_trip "calls and returns" ~args:[ Exec.Value.VInt 4 ] call_chain;
    check_round_trip "recursion" ~args:[ Exec.Value.VInt 7 ] factorial;
    check_round_trip "multithreaded (locked counter)"
      ~args:[ Exec.Value.VInt 4 ] (counter ~locked:true);
  ]

let qcheck_round_trip =
  QCheck.Test.make ~name:"round trip over random seeds and workloads"
    ~count:60
    QCheck.(pair (int_bound 5000) (int_range 1 5))
    (fun (seed, n) ->
      let program = counter ~locked:true in
      let res, decoded = round_trip ~args:[ Exec.Value.VInt n ] ~seed program in
      res.I.outcome = I.Success
      && List.for_all
           (fun (tid, expected) ->
             match List.assoc_opt tid decoded with
             | None -> expected = []
             | Some (d : Hw.Pt.decoded) -> d.d_iids = expected)
           (per_thread_executed res))

let branch_outcomes =
  Alcotest.test_case "decoded branch outcomes match ground truth" `Quick
    (fun () ->
      let outcomes = ref [] in
      let counters = Exec.Cost.create () in
      let pt = Hw.Pt.create counters in
      let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
      let base_branch = hooks.branch in
      hooks.branch <-
        (fun ~tid ~instr ~taken ->
          outcomes := (instr.Ir.Types.iid, taken) :: !outcomes;
          base_branch ~tid ~instr ~taken);
      let _ =
        Exec.Interp.run ~hooks ~counters loop_sum
          (I.workload ~args:[ Exec.Value.VInt 6 ] 3)
      in
      Hw.Pt.finish pt;
      let d = List.assoc 0 (decode_streams pt loop_sum) in
      Alcotest.(check (list (pair int bool)))
        "outcomes" (List.rev !outcomes) d.d_branches)

let packets =
  [
    Alcotest.test_case "trace volume is accounted in bytes" `Quick (fun () ->
        let res, _ = round_trip ~args:[ Exec.Value.VInt 10 ] loop_sum in
        ignore res;
        ());
    Alcotest.test_case "TNT bits are grouped into at most 8-bit packets"
      `Quick (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
        let _ =
          Exec.Interp.run ~hooks ~counters loop_sum
            (I.workload ~args:[ Exec.Value.VInt 30 ] 3)
        in
        Hw.Pt.finish pt;
        List.iter
          (function
            | Hw.Pt.TNT bits ->
              if List.length bits > 8 then Alcotest.fail "oversized TNT"
            | _ -> ())
          (Hw.Pt.packets_of pt 0));
    Alcotest.test_case "disable/enable produce PGD/PGE pairs" `Quick (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        Hw.Pt.enable pt ~tid:0 ~pc:1;
        Hw.Pt.on_branch pt ~tid:0 ~taken:true;
        Hw.Pt.disable pt ~tid:0 ~pc:3;
        Hw.Pt.enable pt ~tid:0 ~pc:5;
        Hw.Pt.disable pt ~tid:0 ~pc:7;
        match Hw.Pt.packets_of pt 0 with
        | [ PGE 1; TNT [ true ]; PGD 3; PGE 5; PGD 7 ] -> ()
        | ps -> Alcotest.failf "unexpected packets (%d)" (List.length ps));
    Alcotest.test_case "enable is idempotent" `Quick (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        Hw.Pt.enable pt ~tid:0 ~pc:1;
        Hw.Pt.enable pt ~tid:0 ~pc:2;
        Hw.Pt.disable pt ~tid:0 ~pc:3;
        Alcotest.(check int) "packets" 2
          (List.length (Hw.Pt.packets_of pt 0)));
    Alcotest.test_case "per-thread streams are independent" `Quick (fun () ->
        let res, decoded =
          round_trip ~args:[ Exec.Value.VInt 3 ] (counter ~locked:true)
        in
        ignore res;
        Alcotest.(check bool) "three streams" true (List.length decoded >= 3));
    Alcotest.test_case "crash truncation: decode stops at the last pc" `Quick
      (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
        let res =
          Exec.Interp.run ~hooks ~counters uaf (I.workload 1)
        in
        Hw.Pt.finish pt;
        let d = List.assoc 0 (decode_streams pt uaf) in
        (match res.I.outcome with
         | I.Failed rep ->
           (* everything up to (excluding) the crash pc is decodable *)
           Alcotest.(check bool) "prefix decoded" true
             (List.length d.d_iids >= 2);
           Alcotest.(check bool) "crash pc not beyond" true
             (List.for_all (fun i -> i <= rep.pc) d.d_iids)
         | I.Success -> Alcotest.fail "expected crash"));
  ]

(* Damaged streams: whatever a fault does to the ring, the decoder must
   return a typed error or a clean prefix — never an out-of-bounds
   access and never an exception.  Packet-level damage is encoded back
   into ring bytes first, the only form the decoder reads. *)

let healthy_packets ?(args = [ Exec.Value.VInt 4 ]) ?(seed = 1) program =
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
  let _ = Exec.Interp.run ~hooks ~counters program (I.workload ~args seed) in
  Hw.Pt.finish pt;
  Hw.Pt.packets_of pt 0

(* iids are 1-based: the exclusive bound is max iid + 1. *)
let iid_bound program =
  1
  + List.fold_left
      (fun m (i : Ir.Types.instr) -> max m i.iid)
      0
      (Ir.Program.all_instrs program)

let decode_packets program packets =
  Hw.Pt.decode program (Hw.Pt.Wire.encode packets)

let in_bounds program (d : Hw.Pt.decoded) =
  let n = iid_bound program in
  List.for_all (fun i -> i >= 0 && i < n) d.d_iids
  && List.for_all (fun (i, _) -> i >= 0 && i < n) d.d_branches

let damaged =
  [
    Alcotest.test_case "truncated stream: typed error or clean prefix" `Quick
      (fun () ->
        let program = loop_sum in
        let pkts = healthy_packets program in
        let full, _ = decode_packets program pkts in
        for k = 0 to List.length pkts - 1 do
          let cut = List.filteri (fun i _ -> i < k) pkts in
          let d, err = decode_packets program cut in
          Alcotest.(check bool) "bounds" true (in_bounds program d);
          Alcotest.(check bool) "prefix of the full decode" true
            (List.length d.d_iids <= List.length full.d_iids
            && List.for_all2
                 (fun a b -> a = b)
                 d.d_iids
                 (List.filteri
                    (fun i _ -> i < List.length d.d_iids)
                    full.d_iids));
          (* a cut that does not land on a packet boundary of meaning
             is flagged; a clean-prefix cut may decode silently *)
          match err with
          | Some e -> ignore (Hw.Pt.error_to_string e)
          | None -> ()
        done);
    Alcotest.test_case "mid-stream truncation is flagged as Truncated" `Quick
      (fun () ->
        let program = loop_sum in
        let pkts = healthy_packets program in
        (* drop just the terminator: decodes but cannot be complete *)
        let n = List.length pkts in
        let cut = List.filteri (fun i _ -> i < n - 1) pkts in
        match decode_packets program cut with
        | _, Some Hw.Pt.Truncated -> ()
        | _, Some e ->
          Alcotest.failf "expected Truncated, got %s" (Hw.Pt.error_to_string e)
        | _, None -> Alcotest.fail "truncation went unnoticed");
    Alcotest.test_case "corrupted stream: never out of bounds, never raises"
      `Quick (fun () ->
        let program = loop_sum in
        let pkts = healthy_packets program in
        let n_instrs = iid_bound program in
        for salt = 0 to 60 do
          let bad = Faults.Tamper.corrupt_packets ~salt ~n_instrs pkts in
          let d, _err = decode_packets program bad in
          Alcotest.(check bool) "bounds" true (in_bounds program d)
        done);
    Alcotest.test_case "an out-of-range transfer target is typed" `Quick
      (fun () ->
        let program = straight in
        let n = iid_bound program in
        match decode_packets program Hw.Pt.[ PGE (n + 5); PGD (-2) ] with
        | _, Some (Hw.Pt.Bad_target pc) ->
          Alcotest.(check int) "the bogus pc" (n + 5) pc
        | _, Some e ->
          Alcotest.failf "expected Bad_target, got %s"
            (Hw.Pt.error_to_string e)
        | _, None -> Alcotest.fail "bad target went unnoticed");
    Alcotest.test_case "empty stream is Empty_stream, for zero bytes only"
      `Quick (fun () ->
        (* A dropped ring must not be booked as corruption by
           fleet-health counters. *)
        let d, err = Hw.Pt.decode straight "" in
        Alcotest.(check (list int)) "no iids" [] d.d_iids;
        Alcotest.(check bool)
          "Empty_stream, not Truncated" true
          (err = Some Hw.Pt.Empty_stream));
    Alcotest.test_case "a well-formed ring with no packets decodes clean"
      `Quick (fun () ->
        let clean what bytes =
          match Hw.Pt.decode straight bytes with
          | { d_iids = []; d_branches = []; d_data = [] }, None -> ()
          | _ -> Alcotest.failf "%s: not a clean empty trace" what
        in
        clean "Wire.encode []" (Hw.Pt.Wire.encode []);
        (* A thread that never enabled tracing. *)
        let pt = Hw.Pt.create (Exec.Cost.create ()) in
        Hw.Pt.on_branch pt ~tid:0 ~taken:true;
        Hw.Pt.finish pt;
        clean "never-enabled stream" (Hw.Pt.wire_of pt 0));
  ]

let qcheck_damaged =
  QCheck.Test.make
    ~name:"decode is total over truncations and corruptions"
    ~count:120
    QCheck.(pair (int_bound 10_000) bool)
    (fun (salt, truncate) ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt 3 ] program in
      let n_instrs = iid_bound program in
      let bad =
        if truncate then
          List.filteri (fun i _ -> i < salt mod List.length pkts) pkts
        else Faults.Tamper.corrupt_packets ~salt ~n_instrs pkts
      in
      let d, _err = decode_packets program bad in
      in_bounds program d)

(* The binary wire codec: encoding a packed stream and decoding the
   bytes must reproduce the packet list exactly, and damaged bytes
   must never crash the decoder or escape undetected when truncated. *)

let qcheck_wire_round_trip =
  QCheck.Test.make ~name:"wire bytes round-trip the packet stream"
    ~count:120
    QCheck.(pair (int_bound 5000) (int_range 1 5))
    (fun (seed, n) ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt n ] ~seed program in
      match Hw.Pt.Wire.decode (Hw.Pt.Wire.encode pkts) with
      | pkts', None -> pkts' = pkts
      | _, Some _ -> false)

let qcheck_wire_truncation =
  QCheck.Test.make
    ~name:"any wire truncation is detected (never a silent prefix)"
    ~count:120
    QCheck.(int_bound 10_000)
    (fun salt ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt 3 ] program in
      let bytes = Hw.Pt.Wire.encode pkts in
      let cut = Faults.Tamper.truncate_wire ~salt bytes in
      String.length cut < String.length bytes
      && snd (Hw.Pt.Wire.decode cut) <> None)

let qcheck_wire_damage_total =
  QCheck.Test.make
    ~name:"decode is total over ring byte damage"
    ~count:120
    QCheck.(pair (int_bound 10_000) bool)
    (fun (salt, flip) ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt 3 ] program in
      let n_instrs = iid_bound program in
      let bytes = Hw.Pt.Wire.encode pkts in
      let bad =
        if flip then Faults.Tamper.flip_wire_byte ~salt bytes
        else Faults.Tamper.corrupt_wire_packets ~salt ~n_instrs bytes
      in
      let d, _err = Hw.Pt.decode program bad in
      in_bounds program d)

(* The recorder writes its ring directly as bytes.  A model of the
   recorder predicts each stream's packet list and the cost counters
   from a random event sequence over several threads; the recorded
   ring must be exactly [Wire.encode] of that list. *)

type event =
  | Enable of int * int
  | Disable of int * int
  | Note_pc of int * int
  | Branches of int * bool list
  | Ret of int * int option
  | Data of int * int * int * bool * Exec.Value.t

let n_tids = 4

let gen_events =
  let open QCheck.Gen in
  let tid = int_bound (n_tids - 1) and pc = int_range (-2) 300 in
  let value =
    oneof
      [
        map (fun i -> Exec.Value.VInt i) (int_range (-1000) 1000);
        map (fun a -> Exec.Value.VPtr a) (int_bound 5000);
        map (fun s -> Exec.Value.VStr s) (string_size ~gen:printable (int_bound 4));
        map (fun t -> Exec.Value.VTid t) (int_bound 9);
        return Exec.Value.VNull;
        return Exec.Value.VUnit;
      ]
  in
  list_size (int_bound 60)
    (frequency
       [
         (3, map2 (fun t p -> Enable (t, p)) tid pc);
         (2, map2 (fun t p -> Disable (t, p)) tid pc);
         (2, map2 (fun t p -> Note_pc (t, p)) tid pc);
         (4, map2 (fun t bs -> Branches (t, bs)) tid (list_size (int_range 1 20) bool));
         (2, map2 (fun t r -> Ret (t, r)) tid (opt (int_range 1 300)));
         ( 2,
           fun st ->
             let t = tid st in
             let iid = int_range 1 300 st in
             let addr = int_bound 1000 st in
             let write = bool st in
             Data (t, iid, addr, write, value st) );
       ])

let print_event = function
  | Enable (t, p) -> Printf.sprintf "enable %d %d" t p
  | Disable (t, p) -> Printf.sprintf "disable %d %d" t p
  | Note_pc (t, p) -> Printf.sprintf "note_pc %d %d" t p
  | Branches (t, bs) ->
    Printf.sprintf "branches %d [%s]" t
      (String.concat "" (List.map (fun b -> if b then "T" else "N") bs))
  | Ret (t, r) ->
    Printf.sprintf "ret %d %s" t
      (match r with None -> "exit" | Some i -> string_of_int i)
  | Data (t, i, a, w, v) ->
    Printf.sprintf "data %d %d %d %b %s" t i a w (Exec.Value.to_string v)

let record events =
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  List.iter
    (function
      | Enable (tid, pc) -> Hw.Pt.enable pt ~tid ~pc
      | Disable (tid, pc) -> Hw.Pt.disable pt ~tid ~pc
      | Note_pc (tid, pc) -> Hw.Pt.note_pc pt ~tid ~pc
      | Branches (tid, bs) ->
        List.iter (fun taken -> Hw.Pt.on_branch pt ~tid ~taken) bs
      | Ret (tid, resume) -> Hw.Pt.on_ret pt ~tid ~resume
      | Data (tid, iid, addr, write, value) ->
        Hw.Pt.on_data pt ~tid ~iid ~addr
          ~rw:(if write then I.Write else I.Read)
          ~value)
    events;
  (* The run may end with streams still tracing, as after a crash. *)
  Hw.Pt.finish pt;
  (pt, counters)

type mstream = {
  mutable on : bool;
  mutable bits : bool list; (* pending, oldest first *)
  mutable out : Hw.Pt.packet list; (* newest first *)
  mutable last_pc : int;
}

(* Per-thread packet lists, packets, trace volume and toggles. *)
let model events =
  let st =
    Array.init n_tids (fun _ -> { on = false; bits = []; out = []; last_pc = -1 })
  in
  let packets = ref 0 and volume = ref 0 and toggles = ref 0 and tsc = ref 0 in
  let emit s (p : Hw.Pt.packet) =
    s.out <- p :: s.out;
    incr packets;
    volume :=
      !volume + (match p with PGE _ -> 8 | PGD _ -> 2 | TNT _ -> 1 | TIP _ -> 5 | PTW _ -> 10)
  in
  let flush s =
    if s.bits <> [] then begin
      emit s (TNT s.bits);
      s.bits <- []
    end
  in
  let step = function
    | Enable (t, pc) ->
      let s = st.(t) in
      if not s.on then begin
        s.on <- true;
        emit s (PGE pc);
        incr toggles
      end
    | Disable (t, pc) ->
      let s = st.(t) in
      if s.on then begin
        flush s;
        emit s (PGD pc);
        s.on <- false;
        incr toggles
      end
    | Note_pc (t, pc) -> if st.(t).on then st.(t).last_pc <- pc
    | Branches (t, bs) ->
      let s = st.(t) in
      List.iter
        (fun b ->
          if s.on then begin
            s.bits <- s.bits @ [ b ];
            if List.length s.bits = 8 then flush s
          end)
        bs
    | Ret (t, resume) ->
      let s = st.(t) in
      if s.on then begin
        flush s;
        match resume with
        | Some i -> emit s (TIP i)
        | None ->
          emit s (TIP 0);
          emit s (PGD (-2));
          s.on <- false
      end
    | Data (t, iid, addr, write, value) ->
      let s = st.(t) in
      if s.on then begin
        flush s;
        incr tsc;
        emit s
          (PTW
             { p_tsc = !tsc; p_iid = iid; p_addr = addr; p_write = write;
               p_value = value })
      end
  in
  List.iter step events;
  Array.iter
    (fun s ->
      if s.on then begin
        flush s;
        emit s (PGD s.last_pc);
        s.on <- false
      end)
    st;
  (Array.map (fun s -> List.rev s.out) st, !packets, !volume, !toggles)

let qcheck_recorder =
  QCheck.Test.make ~name:"the recorded ring is Wire.encode of the model's packets"
    ~count:300
    (QCheck.make
       ~print:(fun evs -> String.concat "; " (List.map print_event evs))
       gen_events)
    (fun events ->
      let pt, counters = record events in
      let expected, packets, volume, toggles = model events in
      let named =
        List.sort_uniq compare
          (List.map
             (function
               | Enable (t, _) | Disable (t, _) | Note_pc (t, _)
               | Branches (t, _) | Ret (t, _) | Data (t, _, _, _, _) -> t)
             events)
      in
      Hw.Pt.all_tids pt = named
      && List.for_all
           (fun tid ->
             let ring = Hw.Pt.wire_of pt tid in
             ring = Hw.Pt.Wire.encode expected.(tid)
             && Hw.Pt.Wire.decode ring = (expected.(tid), None))
           named
      && counters.Exec.Cost.pt_packets = packets
      && counters.pt_bytes = volume
      && counters.pt_toggles = toggles)

let () =
  Alcotest.run "pt"
    [
      ("round-trip", round_trips);
      ("round-trip-qcheck", [ QCheck_alcotest.to_alcotest qcheck_round_trip ]);
      ("branch-outcomes", [ branch_outcomes ]);
      ("packets", packets);
      ("recorder-qcheck", [ QCheck_alcotest.to_alcotest qcheck_recorder ]);
      ("damaged", damaged);
      ("damaged-qcheck", [ QCheck_alcotest.to_alcotest qcheck_damaged ]);
      ( "wire-qcheck",
        [
          QCheck_alcotest.to_alcotest qcheck_wire_round_trip;
          QCheck_alcotest.to_alcotest qcheck_wire_truncation;
          QCheck_alcotest.to_alcotest qcheck_wire_damage_total;
        ] );
    ]
