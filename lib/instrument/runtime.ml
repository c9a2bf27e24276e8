(* Assemble interpreter hooks that execute an instrumentation plan's
   compiled table: toggling the PT recorder, arming watchpoints at
   access pre-points (on the address the engine says the upcoming
   instruction will touch), and routing memory accesses through the
   watchpoint unit.  A step costs one table load and allocates
   nothing. *)

open Ir.Types

(* The actions [bits] holds, in the order the plan lists them: a stop
   before a co-located start, then the arm. *)
let fire bits ~pt ~wp ~wp_allowed ~tid ~iid ~addr =
  if bits land Plan.stop <> 0 then Hw.Pt.disable pt ~tid ~pc:iid;
  if bits land Plan.start <> 0 then Hw.Pt.enable pt ~tid ~pc:iid;
  if bits land Plan.arm <> 0 && addr <> Exec.Interp.no_addr
     && List.mem iid wp_allowed
  then ignore (Hw.Watchpoint.arm wp addr)

(* [wp_allowed] restricts which plan watchpoint targets this particular
   client arms: the cooperative rotation of §3.2.3 when the tracked
   slice touches more addresses than the 4 debug registers.  It holds
   at most the watchpoint capacity, and is only walked at an armed
   iid. *)
let hooks ~data_via_pt ~(plan : Plan.t) ~(pt : Hw.Pt.recorder)
    ~(wp : Hw.Watchpoint.t) ~wp_allowed =
  let h = Exec.Interp.no_hooks () in
  h.pre_instr <-
    (fun ~tid ~instr ~addr ->
      let iid = instr.iid in
      let bits = Plan.bits plan iid in
      if bits <> 0 then fire bits ~pt ~wp ~wp_allowed ~tid ~iid ~addr;
      Hw.Pt.note_pc pt ~tid ~pc:iid);
  h.mem_access <-
    (fun ~tid ~instr ~addr ~rw ~value ->
      (* PTWRITE extension: instrumented accesses emit data packets in
         the PT stream instead of (or alongside) trapping a watchpoint;
         no debug-register budget, no cooperative rotation. *)
      if data_via_pt && Plan.bits plan instr.iid land Plan.ptw <> 0 then
        Hw.Pt.on_data pt ~tid ~iid:instr.iid ~addr ~rw ~value;
      Hw.Watchpoint.on_access wp ~tid ~iid:instr.iid ~addr ~rw ~value);
  h.branch <- (fun ~tid ~instr:_ ~taken -> Hw.Pt.on_branch pt ~tid ~taken);
  h.ret <- (fun ~tid ~instr:_ ~resume -> Hw.Pt.on_ret pt ~tid ~resume);
  h

(* Full-tracing hooks (no plan): PT enabled for every thread from its
   first instruction -- the Fig. 13 "Intel PT full tracing" setup. *)
let full_tracing_hooks ~(pt : Hw.Pt.recorder) =
  let h = Exec.Interp.no_hooks () in
  h.pre_instr <-
    (fun ~tid ~instr ~addr:_ ->
      if not (Hw.Pt.enabled pt tid) then Hw.Pt.enable pt ~tid ~pc:instr.iid;
      Hw.Pt.note_pc pt ~tid ~pc:instr.iid);
  h.branch <- (fun ~tid ~instr:_ ~taken -> Hw.Pt.on_branch pt ~tid ~taken);
  h.ret <- (fun ~tid ~instr:_ ~resume -> Hw.Pt.on_ret pt ~tid ~resume);
  h
