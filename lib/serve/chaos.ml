(* The service driver: submit, step, harvest, kill and recover.  See
   chaos.mli for the policy. *)

module FC = Faults.Chaos

type outcome = {
  o_done : (string * Service.completion) list;
  o_shed : Service.shed_notice list;
  o_kills : int;
  o_torn : int;
  o_corrupted : int;
  o_resubmitted : int;
  o_failed_recoveries : int;
  o_service : Service.t;
}

let poison_spec ~rates ~seed (sp : Service.spec) =
  if not (FC.poisoned rates ~seed ~name:sp.Service.sp_name) then sp
  else
    {
      sp with
      Service.sp_workload_of =
        (fun _client -> failwith ("chaos poison: " ^ sp.Service.sp_name));
    }

let drive ?(pool = Parallel.Pool.sequential) ?(kills = fun _ -> FC.no_plan)
    ?(on_round = fun _ _ -> ()) ~specs svc =
  let specs = Array.of_list specs in
  let by_name = Hashtbl.create (Array.length specs) in
  Array.iter
    (fun (sp : Service.spec) -> Hashtbl.replace by_name sp.Service.sp_name sp)
    specs;
  let resolve name = Hashtbl.find_opt by_name name in
  let svc = ref svc in
  let done_ = Hashtbl.create 64 in
  let order = ref [] in
  let sheds = ref [] in
  let harvest () =
    List.iter
      (fun (c : Service.completion) ->
        if not (Hashtbl.mem done_ c.Service.c_name) then begin
          Hashtbl.replace done_ c.Service.c_name ();
          order := c :: !order
        end)
      (Service.take_completions !svc);
    sheds := List.rev_append (Service.take_shed !svc) !sheds
  in
  (* [number.(i)]: [st_submitted] just after spec [i]'s last
     submission; 0 before the first, -1 once a recovery lost it. *)
  let number = Array.make (Array.length specs) 0 in
  let killed = ref 0 in
  let torn = ref 0 in
  let corrupted = ref 0 in
  let resubmitted = ref 0 in
  let failed_recoveries = ref 0 in
  let kill (plan : FC.plan) =
    incr killed;
    (* This incarnation is dead; all that survives is whatever prefix
       of the journal made it to "disk" -- possibly torn and possibly
       bit-rotted. *)
    let bytes = Service.journal_bytes !svc in
    let bytes =
      match plan.FC.p_torn with
      | Some n ->
        incr torn;
        Journal.tear ~n bytes
      | None -> bytes
    in
    let bytes =
      match plan.FC.p_ckpt_corrupt with
      | Some salt -> (
        match Journal.corrupt_last_checkpoint ~salt bytes with
        | Some damaged ->
          incr corrupted;
          damaged
        | None -> bytes)
      | None -> bytes
    in
    match Service.recover ~pool ~resolve bytes with
    | Ok svc' ->
      svc := svc';
      let survived = (Service.stats svc').Service.st_submitted in
      Array.iteri (fun i n -> if n > survived then number.(i) <- -1) number;
      harvest ()
    | Error _ ->
      (* E.g. the tear ate every checkpoint of a nearly empty journal:
         the kill did not take, and the drive goes on with the live
         object. *)
      incr failed_recoveries
  in
  (* The campaign clock the kill plan is keyed by.  NOT the service's
     round counter: a torn tail rewinds the recovered service, and a
     plan keyed by its rounds would deal the same kill at the same
     round forever. *)
  let tick = ref 0 in
  let round () =
    Service.step !svc
    && begin
      harvest ();
      incr tick;
      on_round !tick !svc;
      let plan = kills !tick in
      if plan.FC.p_kill then kill plan;
      true
    end
  in
  let rec submit i =
    let res = Service.submit !svc specs.(i) in
    number.(i) <- (Service.stats !svc).Service.st_submitted;
    match res with
    | Error (Service.Busy _) when round () -> submit i
    | Ok _ | Error (Service.Busy _ | Service.Shed _) -> ()
  in
  Array.iteri (fun i _ -> submit i) specs;
  let rec finish () =
    while round () do () done;
    harvest ();
    let before = !resubmitted in
    Array.iteri
      (fun i (sp : Service.spec) ->
        if number.(i) < 0 && not (Hashtbl.mem done_ sp.Service.sp_name)
        then begin
          incr resubmitted;
          submit i
        end)
      specs;
    if !resubmitted > before then finish ()
  in
  finish ();
  {
    o_done =
      List.rev_map
        (fun (c : Service.completion) -> (c.Service.c_name, c))
        !order;
    o_shed = List.rev !sheds;
    o_kills = !killed;
    o_torn = !torn;
    o_corrupted = !corrupted;
    o_resubmitted = !resubmitted;
    o_failed_recoveries = !failed_recoveries;
    o_service = !svc;
  }
