(* The fuzz accuracy gate, through the multiplexed path: the same
   campaign [Fuzz.Runner.run] checks one-shot — same cases, same
   fault stamping, same probe stages, same oracle, same verdict
   scoring — but every diagnosable case is diagnosed as one session
   of a shared {!Service}, tens in flight at a time, driven by
   {!Chaos.drive}.

   Because a multiplexed diagnosis is bit-identical to its one-shot
   counterpart, and zero chaos rates never kill or poison, the report
   at [Faults.Chaos.zero] (minus shrinking, which this gate skips)
   matches [Fuzz.Runner.run ~shrink:false] verdict for verdict — so
   the worst-pattern accuracy bar holds through the service exactly
   when it holds one-shot. *)

module G = Fuzz.Gen
module C = Fuzz.Check
module R = Fuzz.Runner
module FC = Faults.Chaos

type chaos_summary = { cs_poisoned : int; cs_contained : int }

let run_chaos ?(jobs = 0) ?faults ~rates ~seed ~count () =
  let cases =
    List.map
      (fun case ->
        match faults with
        | None -> case
        | Some _ -> { case with G.c_faults = faults })
      (R.cases ~seed ~count ())
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      (* Pre-service probes fan out across the pool; order preserved. *)
      let stages =
        Parallel.Pool.map_array pool C.prepare (Array.of_list cases)
      in
      (* Every diagnosable case's spec, poison applied up front:
         recovery must replay a poisoned session poisoned. *)
      let specs =
        List.concat
          (List.mapi
             (fun i case ->
               match stages.(i) with
               | C.Decided _ -> []
               | C.Diagnose failure ->
                 [
                   Chaos.poison_spec ~rates ~seed
                     (Stream.case_spec ~early_exit:false
                        ~oracle:(C.oracle case) ~name:case.G.c_name case
                        failure);
                 ])
             cases)
      in
      let oc =
        Chaos.drive ~pool
          ~kills:(fun round -> FC.draw rates ~seed ~round)
          ~specs (Service.create ~pool ())
      in
      let poisoned = ref 0 in
      let contained = ref 0 in
      let reports =
        List.concat
          (List.mapi
             (fun i case ->
               match stages.(i) with
               | C.Decided o -> [ R.case_report case o ]
               | C.Diagnose _ ->
                 let name = case.G.c_name in
                 let completion = List.assoc_opt name oc.Chaos.o_done in
                 if FC.poisoned rates ~seed ~name then begin
                   incr poisoned;
                   (match completion with
                    | Some { Service.c_result = Error _; _ } ->
                      incr contained
                    | Some _ | None -> ());
                   (* Destroyed by design: containment is the check,
                      not accuracy — keep it out of the statistics. *)
                   []
                 end
                 else
                   [
                     R.case_report case
                       (match completion with
                        | Some { Service.c_result = Ok d; _ } ->
                          C.of_diagnosis case d
                        | Some { Service.c_result = Error f; _ } ->
                          (* Contained session failure: booked as a
                             crash verdict, never as a missing case. *)
                          C.decided
                            (C.Crash (Service.session_failure_to_string f))
                        | None ->
                          C.decided (C.Crash "session never completed"));
                   ])
             cases)
      in
      ( {
          R.r_seed = seed;
          r_count = count;
          r_cases = reports;
          r_stats = R.stats_of reports;
          r_faults = faults;
        },
        oc,
        { cs_poisoned = !poisoned; cs_contained = !contained } ))
