(* The Gist client: one production endpoint executing one run under the
   instrumentation plan the server shipped, then reporting back the
   decoded control-flow trace, watchpoint log, and outcome (paper
   Fig. 2, steps 2 and 4).  Each thread's PT ring is decoded with one
   [Hw.Pt.decode] call. *)

open Ir.Types

type report = {
  r_seed : int;
  r_outcome : Exec.Interp.outcome;
  r_signature : Exec.Failure.signature option;
  r_executed : (int * iid list) list; (* per thread, PT-decoded order *)
  r_branches : (iid * bool) list;     (* PT-decoded branch outcomes *)
  r_traps : Hw.Watchpoint.trap list;
  r_counters : Exec.Cost.t;
  r_overhead_pct : float;
  r_base_cycles : float;   (* un-instrumented work, cost-model cycles *)
  r_extra_cycles : float;  (* PT + watchpoint cycles added by Gist *)
  r_steps : int;
  r_pt_errors : (int * Hw.Pt.error) list; (* per-tid decode faults *)
}

let failing r = r.r_signature <> None

(* Privacy extension (paper §6: "quantify and anonymize the information
   Gist ships from production runs at user endpoints"): string values
   are replaced by a stable hash before leaving the client, so value
   predictors still discriminate but user data never does. *)
let redact_value (v : Exec.Value.t) =
  match v with
  | Exec.Value.VStr s ->
    let h = Hw.Codec.digest ~key:[] s land 0xFFFFFFFF in
    Exec.Value.VStr (Printf.sprintf "str#%08x" h)
  | other -> other

let redact_trap (t : Hw.Watchpoint.trap) =
  { t with Hw.Watchpoint.w_value = redact_value t.w_value }

(* Run one client.  [wp_allowed] is this client's share of the
   cooperative watchpoint rotation.  [data_source] selects between the
   paper's hardware watchpoints and the §6 PTWRITE extension (data
   packets in the PT stream: no register budget, no rotation). *)
let run_one ?(wp_capacity = 4) ?(preempt_prob = 0.35) ?(max_steps = 400_000)
    ?(data_source = Config.Watchpoints) ?(redact = false) ?tamper
    ~(plan : Instrument.Plan.t) ~wp_allowed program
    (w : Exec.Interp.workload) : report =
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let wp = Hw.Watchpoint.create ~capacity:wp_capacity counters in
  let data_via_pt = data_source = Config.Ptwrite in
  let wp_allowed = if data_via_pt then [] else wp_allowed in
  let hooks =
    Instrument.Runtime.hooks ~data_via_pt ~plan ~pt ~wp ~wp_allowed
  in
  let result =
    Exec.Interp.run ~hooks ~counters ~max_steps ~preempt_prob program w
  in
  Hw.Pt.finish pt;
  (* Each thread's ring leaves the recorder as bytes and is decoded
     against the program -- the path a real client's PT ring pages
     take.  The fault layer's [tamper] hook damages those bytes
     (in-ring harm, before the report is sealed); a damaged ring
     yields its clean decoded prefix plus a typed error the server
     validates against. *)
  let decoded =
    List.map
      (fun tid ->
        let bytes = Hw.Pt.wire_of pt tid in
        let bytes =
          match tamper with None -> bytes | Some f -> f ~tid bytes
        in
        (tid, Hw.Pt.decode program bytes))
      (Hw.Pt.all_tids pt)
  in
  let pt_errors =
    List.filter_map
      (fun (tid, (_, err)) -> Option.map (fun e -> (tid, e)) err)
      decoded
  in
  let signature =
    match result.outcome with
    | Exec.Interp.Failed rep -> Some (Exec.Failure.signature rep)
    | Exec.Interp.Success -> None
  in
  (* PT truncation at a crash drops the failing statement's final
     instance (nothing after the last packet is decodable); the failure
     report pins it down, so append it to the failing thread's sequence
     -- unconditionally: earlier successful executions of the same
     statement may already appear, but the *crash instance* is the one
     the sketch must order. *)
  let executed =
    List.map (fun (tid, ((d : Hw.Pt.decoded), _)) -> (tid, d.d_iids)) decoded
  in
  let executed =
    match result.outcome with
    | Exec.Interp.Failed rep ->
      let patched = ref false in
      let l =
        List.map
          (fun (tid, iids) ->
            if tid = rep.tid then begin
              patched := true;
              (tid, iids @ [ rep.pc ])
            end
            else (tid, iids))
          executed
      in
      if !patched then l else (rep.tid, [ rep.pc ]) :: l
    | Exec.Interp.Success -> executed
  in
  let branches =
    List.concat_map
      (fun (_, ((d : Hw.Pt.decoded), _)) -> d.d_branches)
      decoded
  in
  let traps =
    if data_via_pt then
      (* PTWRITE mode: data arrives as timestamped packets inside the
         per-thread streams; TSC gives the cross-thread total order the
         watchpoint unit used to provide. *)
      List.concat_map
        (fun (tid, ((d : Hw.Pt.decoded), _)) ->
          List.map
            (fun (w : Hw.Pt.ptw) ->
              Hw.Watchpoint.
                {
                  w_seq = w.Hw.Pt.p_tsc;
                  w_tid = tid;
                  w_iid = w.Hw.Pt.p_iid;
                  w_addr = w.Hw.Pt.p_addr;
                  w_rw =
                    (if w.Hw.Pt.p_write then Exec.Interp.Write
                     else Exec.Interp.Read);
                  w_value = w.Hw.Pt.p_value;
                })
            d.d_data)
        decoded
      |> List.sort (fun a b ->
          compare a.Hw.Watchpoint.w_seq b.Hw.Watchpoint.w_seq)
    else Hw.Watchpoint.traps wp
  in
  let traps = if redact then List.map redact_trap traps else traps in
  {
    r_seed = w.seed;
    r_outcome = result.outcome;
    r_signature = signature;
    r_executed = executed;
    r_branches = branches;
    r_traps = traps;
    r_counters = counters;
    r_overhead_pct = Exec.Cost.gist_overhead_percent counters;
    r_base_cycles = Exec.Cost.base_cycles counters;
    r_extra_cycles =
      Exec.Cost.pt_extra_cycles counters +. Exec.Cost.wp_extra_cycles counters;
    r_steps = result.steps;
    r_pt_errors = pt_errors;
  }
