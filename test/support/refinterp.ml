(* The reference interpreter: the original nominal engine, executing
   [Ir.Types.program] directly — string-keyed register Hashtbls, label
   scans in [goto], string-matched builtins.

   [Interp.run] now executes the lowered form ([Ir.Lowered]); this
   module preserves the pre-lowering semantics verbatim so the
   differential test (test/test_differential.ml) can prove the two
   engines bit-identical — outcomes, outputs, access sequences, RNG
   draws, scheduler choices, hook firings (with the address each
   [pre_instr] call hands out) and counters — on every
   Bugbase program, on randomly generated ones and on the fuzz
   kernels.  It lives in the test support library: no production
   library links it, and it is not used on any production path. *)

open Ir.Types
open Exec
open Value
open Interp
(* [Interp] provides the shared observable types and constants: [rw],
   [no_addr], [hooks], [workload], [access], [outcome], [result]. *)

(* ------------------------------------------------------------------ *)

type frame = {
  func : func;
  mutable blk : int;
  mutable idx : int;
  regs : (string, Value.t) Hashtbl.t;
  ret_dst : reg option;
}

type status =
  | Runnable
  | Blocked_lock of int
  | Blocked_join of int
  | Finished

type thread = {
  tid : int;
  mutable frames : frame list; (* innermost first *)
  mutable status : status;
}

exception Crash of Failure.kind * string
exception Crash_report of Failure.report

type state = {
  program : program;
  mem : Memory.t;
  globals : (string, int) Hashtbl.t; (* name -> address *)
  locks : (int, int option) Hashtbl.t; (* lock addr -> holder tid *)
  threads : (int, thread) Hashtbl.t;
  mutable next_tid : int;
  rng : Rng.t;
  counters : Cost.t;
  mutable out : string list;
  mutable seq : int;
  mutable gt_accesses : access list;
  mutable gt_executed : (int * iid) list;
  record_gt : bool;
  hooks : hooks;
  preempt_prob : float;
}

let crash kind msg = raise (Crash (kind, msg))

let frame_of t =
  match t.frames with
  | f :: _ -> f
  | [] -> crash (Type_error "no frame") (Printf.sprintf "thread %d" t.tid)

let current_instr t =
  match t.frames with
  | [] -> None
  | f :: _ -> Some f.func.blocks.(f.blk).instrs.(f.idx)

let stack_trace t = List.map (fun f -> f.func.fname) t.frames

let eval_operand fr = function
  | Imm n -> VInt n
  | Str s -> VStr s
  | Null -> VNull
  | Reg r -> (
    match Hashtbl.find_opt fr.regs r with
    | Some v -> v
    | None -> crash (Type_error ("unbound register " ^ r)) r)

let as_int = function
  | VInt n -> n
  | VNull -> 0
  | v -> crash (Type_error "expected int") (Value.to_string v)

let eval_binop op a b =
  let bool_v c = VInt (if c then 1 else 0) in
  match (op, a, b) with
  | Eq, _, _ -> bool_v (Value.equal a b)
  | Ne, _, _ -> bool_v (not (Value.equal a b))
  | And, _, _ -> bool_v (truthy a && truthy b)
  | Or, _, _ -> bool_v (truthy a || truthy b)
  | Add, VPtr p, VInt n | Add, VInt n, VPtr p -> VPtr (p + n)
  | Sub, VPtr p, VInt n -> VPtr (p - n)
  | Sub, VPtr p, VPtr q -> VInt (p - q)
  | Add, VStr s, VStr u -> VStr (s ^ u)
  | (Lt | Le | Gt | Ge), VPtr p, VPtr q ->
    let c = compare p q in
    bool_v
      (match op with
       | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0
       | _ -> assert false)
  | _ ->
    let x = as_int a and y = as_int b in
    (match op with
     | Add -> VInt (x + y)
     | Sub -> VInt (x - y)
     | Mul -> VInt (x * y)
     | Div -> if y = 0 then crash Div_by_zero "" else VInt (x / y)
     | Mod -> if y = 0 then crash Div_by_zero "" else VInt (x mod y)
     | Lt -> bool_v (x < y)
     | Le -> bool_v (x <= y)
     | Gt -> bool_v (x > y)
     | Ge -> bool_v (x >= y)
     | Eq | Ne | And | Or -> assert false)

let eval_expr fr = function
  | Bin (op, a, b) -> eval_binop op (eval_operand fr a) (eval_operand fr b)
  | Mov a -> eval_operand fr a
  | Not a -> VInt (if truthy (eval_operand fr a) then 0 else 1)

(* Address of a memory operand, raising the right failure kind. *)
let resolve_addr base_v offset =
  match base_v with
  | VPtr a -> a + offset
  | VNull -> crash Segfault "null dereference"
  | v -> crash (Type_error "dereference of non-pointer") (Value.to_string v)

(* The address [i] is about to touch, for the [pre_instr] hook: the
   reference rule the lowered engine must reproduce (see
   [Interp.no_addr]). *)
let pre_addr st fr i =
  match i.kind with
  | Load (_, Reg r, off) | Store (Reg r, off, _) -> (
    match Hashtbl.find_opt fr.regs r with
    | Some (VPtr a) -> a + off
    | _ -> no_addr)
  | Load_global (_, g) | Store_global (g, _) -> (
    match Hashtbl.find_opt st.globals g with Some a -> a | None -> no_addr)
  | _ -> no_addr

let mem_fail_to_crash op = function
  | Memory.Fail_segv -> crash Segfault op
  | Memory.Fail_uaf -> crash Use_after_free op
  | Memory.Fail_dfree -> crash Double_free op

let record_access st t i addr rw value =
  st.seq <- st.seq + 1;
  st.counters.mem_accesses <- st.counters.mem_accesses + 1;
  if st.record_gt then
    st.gt_accesses <-
      { a_seq = st.seq; a_tid = t.tid; a_iid = i.iid; a_addr = addr;
        a_rw = rw; a_value = value }
      :: st.gt_accesses;
  st.hooks.mem_access ~tid:t.tid ~instr:i ~addr ~rw ~value

let do_load st t i addr =
  match Memory.load st.mem addr with
  | exception Memory.Fault e -> mem_fail_to_crash "load" e
  | v ->
    record_access st t i addr Read v;
    v

let do_store st t i addr v =
  match Memory.store st.mem addr v with
  | exception Memory.Fault e -> mem_fail_to_crash "store" e
  | () -> record_access st t i addr Write v

let spawn_thread st routine args =
  let f = Ir.Program.find_func st.program routine in
  let regs = Hashtbl.create 8 in
  (try List.iter2 (fun p v -> Hashtbl.replace regs p v) f.params args
   with Invalid_argument _ ->
     crash (Type_error ("arity mismatch spawning " ^ routine)) "");
  let tid = st.next_tid in
  st.next_tid <- st.next_tid + 1;
  let fr = { func = f; blk = 0; idx = 0; regs; ret_dst = None } in
  Hashtbl.replace st.threads tid { tid; frames = [ fr ]; status = Runnable };
  tid

let set_reg fr r v = Hashtbl.replace fr.regs r v

let do_builtin st fr dst name args =
  let v : Value.t =
    match (name, args) with
    | "print", [ v ] ->
      st.out <- Value.to_string v :: st.out;
      VUnit
    | "print_int", [ v ] ->
      st.out <- string_of_int (as_int v) :: st.out;
      VUnit
    | ("strlen" | "input_len"), [ VStr s ] -> VInt (String.length s)
    | ("strlen" | "input_len"), [ VNull ] -> crash Segfault "strlen(NULL)"
    | ("strlen" | "input_len"), [ v ] ->
      crash (Type_error "strlen of non-string") (Value.to_string v)
    | "str_char", [ VStr s; i ] ->
      let k = as_int i in
      if k >= 0 && k < String.length s then VInt (Char.code s.[k])
      else VInt (-1)
    | "str_char", [ VNull; _ ] -> crash Segfault "str_char(NULL)"
    | "str_concat", [ VStr a; VStr b ] -> VStr (a ^ b)
    | "atoi", [ VStr s ] ->
      VInt (match int_of_string_opt (String.trim s) with Some n -> n | None -> 0)
    | "abs", [ v ] -> VInt (abs (as_int v))
    | "min", [ a; b ] -> VInt (min (as_int a) (as_int b))
    | "max", [ a; b ] -> VInt (max (as_int a) (as_int b))
    | ("yield" | "sleep"), _ -> VUnit
    | _ -> crash (Type_error ("bad builtin call " ^ name)) ""
  in
  match dst with Some r -> set_reg fr r v | None -> ()

let goto fr l =
  let rec find k =
    if k >= Array.length fr.func.blocks then
      crash (Type_error ("unknown label " ^ l)) ""
    else if fr.func.blocks.(k).label = l then k
    else find (k + 1)
  in
  fr.blk <- find 0;
  fr.idx <- 0

(* Execute one instruction of thread [t].  Blocking instructions leave
   the position unchanged and flip the thread status; the scheduler
   retries them when they become eligible again. *)
let exec_instr st t i =
  let fr = frame_of t in
  let advance () = fr.idx <- fr.idx + 1 in
  match i.kind with
  | Assign (r, e) ->
    set_reg fr r (eval_expr fr e);
    advance ()
  | Load (r, base, off) ->
    let addr = resolve_addr (eval_operand fr base) off in
    set_reg fr r (do_load st t i addr);
    advance ()
  | Store (base, off, v) ->
    let addr = resolve_addr (eval_operand fr base) off in
    do_store st t i addr (eval_operand fr v);
    advance ()
  | Load_global (r, g) ->
    let addr = Hashtbl.find st.globals g in
    set_reg fr r (do_load st t i addr);
    advance ()
  | Store_global (g, v) ->
    let addr = Hashtbl.find st.globals g in
    do_store st t i addr (eval_operand fr v);
    advance ()
  | Malloc (r, n) ->
    set_reg fr r (VPtr (Memory.alloc st.mem n));
    advance ()
  | Free p -> (
    match eval_operand fr p with
    | VPtr base -> (
      match Memory.free st.mem base with
      | exception Memory.Fault e -> mem_fail_to_crash "free" e
      | () -> advance ())
    | VNull -> advance () (* free(NULL) is a no-op, as in C *)
    | v -> crash (Type_error "free of non-pointer") (Value.to_string v))
  | Call (dst, callee, args) ->
    let f = Ir.Program.find_func st.program callee in
    let values = List.map (eval_operand fr) args in
    advance ();
    let regs = Hashtbl.create 8 in
    (try List.iter2 (fun p v -> Hashtbl.replace regs p v) f.params values
     with Invalid_argument _ ->
       crash (Type_error ("arity mismatch calling " ^ callee)) "");
    t.frames <- { func = f; blk = 0; idx = 0; regs; ret_dst = dst } :: t.frames
  | Builtin (dst, name, args) ->
    do_builtin st fr dst name (List.map (eval_operand fr) args);
    advance ()
  | Jmp l -> goto fr l
  | Branch (c, lt, le) ->
    let taken = truthy (eval_operand fr c) in
    st.counters.branches <- st.counters.branches + 1;
    st.hooks.branch ~tid:t.tid ~instr:i ~taken;
    goto fr (if taken then lt else le)
  | Ret v -> (
    let value = match v with Some op -> eval_operand fr op | None -> VUnit in
    let popped = fr in
    t.frames <- List.tl t.frames;
    match t.frames with
    | [] ->
      st.hooks.ret ~tid:t.tid ~instr:i ~resume:None;
      t.status <- Finished
    | caller :: _ ->
      let resume = caller.func.blocks.(caller.blk).instrs.(caller.idx).iid in
      st.hooks.ret ~tid:t.tid ~instr:i ~resume:(Some resume);
      (match popped.ret_dst with
       | Some r -> set_reg caller r value
       | None -> ()))
  | Spawn (r, routine, args) ->
    let values = List.map (eval_operand fr) args in
    let tid = spawn_thread st routine values in
    set_reg fr r (VTid tid);
    advance ()
  | Join target -> (
    match eval_operand fr target with
    | VTid tid -> (
      match Hashtbl.find_opt st.threads tid with
      | Some th when th.status <> Finished -> t.status <- Blocked_join tid
      | _ -> advance ())
    | v -> crash (Type_error "join of non-thread") (Value.to_string v))
  | Lock m -> (
    let addr =
      match eval_operand fr m with
      | VPtr a -> a
      | VNull -> crash Segfault "lock(NULL)"
      | v -> crash (Type_error "lock of non-pointer") (Value.to_string v)
    in
    (match Memory.check st.mem addr with
     | Error e -> mem_fail_to_crash "lock" e
     | Ok () -> ());
    match Hashtbl.find_opt st.locks addr with
    | Some (Some holder) when holder <> t.tid -> t.status <- Blocked_lock addr
    | _ ->
      Hashtbl.replace st.locks addr (Some t.tid);
      advance ())
  | Unlock m ->
    let addr =
      match eval_operand fr m with
      | VPtr a -> a
      | VNull -> crash Segfault "unlock(NULL)"
      | v -> crash (Type_error "unlock of non-pointer") (Value.to_string v)
    in
    (match Memory.check st.mem addr with
     | Error e -> mem_fail_to_crash "unlock" e
     | Ok () -> ());
    Hashtbl.replace st.locks addr None;
    advance ()
  | Assert (c, msg) ->
    if truthy (eval_operand fr c) then advance ()
    else crash (Assert_fail msg) msg

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let eligible st t =
  match t.status with
  | Runnable -> true
  | Finished -> false
  | Blocked_lock addr -> (
    match Hashtbl.find_opt st.locks addr with
    | Some (Some _) -> false
    | _ -> true)
  | Blocked_join tid -> (
    match Hashtbl.find_opt st.threads tid with
    | Some th -> th.status = Finished
    | None -> true)

(* Sorted array of runnable thread ids.  The scheduler indexes into it
   directly (this is the interpreter's innermost loop; [List.nth] here
   was a measurable share of every production run). *)
let eligible_tids st =
  let a =
    Array.of_list
      (Hashtbl.fold
         (fun tid t acc -> if eligible st t then tid :: acc else acc)
         st.threads [])
  in
  Array.sort compare a;
  a

let all_finished st =
  Hashtbl.fold (fun _ t acc -> acc && t.status = Finished) st.threads true

(* Scheduling points: shared-memory and synchronisation operations (the
   places where interleavings matter for the Fig. 5 patterns). *)
let interesting i =
  match i.kind with
  | Load _ | Store _ | Load_global _ | Store_global _ | Lock _ | Unlock _
  | Free _ | Join _ | Spawn _ ->
    true
  | Builtin (_, ("yield" | "sleep"), _) -> true
  | _ -> false

let is_yield i =
  match i.kind with Builtin (_, ("yield" | "sleep"), _) -> true | _ -> false

let run ?hooks ?counters ?pick ?(max_steps = 400_000) ?(record_gt = false)
    ?(preempt_prob = 0.35) program (w : workload) : result =
  let hooks = match hooks with Some h -> h | None -> no_hooks () in
  let counters = match counters with Some c -> c | None -> Cost.create () in
  let st =
    {
      program;
      mem = Memory.create ();
      globals = Hashtbl.create 16;
      locks = Hashtbl.create 16;
      threads = Hashtbl.create 8;
      next_tid = 0;
      rng = Rng.create w.seed;
      counters;
      out = [];
      seq = 0;
      gt_accesses = [];
      gt_executed = [];
      record_gt;
      hooks;
      preempt_prob;
    }
  in
  (* Allocate globals. *)
  List.iter
    (fun (g : global) ->
      let addr = Memory.alloc st.mem 1 in
      Hashtbl.replace st.globals g.gname addr;
      let v =
        match g.init with
        | Imm n -> VInt n
        | Str s -> VStr s
        | Null -> VNull
        | Reg _ -> invalid "global %s: register initialiser" g.gname
      in
      Memory.store st.mem addr v)
    program.globals;
  let steps = ref 0 in
  let finish outcome =
    {
      outcome;
      counters = st.counters;
      accesses = List.rev st.gt_accesses;
      executed = List.rev st.gt_executed;
      output = List.rev st.out;
      steps = !steps;
    }
  in
  let report_for t kind msg =
    let pc = match current_instr t with Some i -> i.iid | None -> 0 in
    Failure.{ kind; pc; tid = t.tid; stack = stack_trace t; message = msg }
  in
  (* A malformed main invocation (arity mismatch) is a failed run, not
     an interpreter exception. *)
  match spawn_thread st program.main w.args with
  | exception Crash (kind, msg) ->
    finish
      (Failed
         Failure.{ kind; pc = 0; tid = 0; stack = [ program.main ]; message = msg })
  | main_tid ->
  let current = ref main_tid in
  let rec loop () =
    if !steps >= max_steps then
      let t = Hashtbl.find st.threads !current in
      finish (Failed (report_for t Hang "step budget exhausted"))
    else
      let elig = eligible_tids st in
      match elig with
      | [||] ->
        if all_finished st then finish Success
        else
          (* Deadlock: report at a deterministic blocked thread. *)
          let blocked =
            Hashtbl.fold
              (fun _ t acc ->
                match (t.status, acc) with
                | (Blocked_lock _ | Blocked_join _), None -> Some t
                | _ -> acc)
              st.threads None
          in
          let t = Option.get blocked in
          finish (Failed (report_for t Deadlock "all threads blocked"))
      | _ ->
        let tid =
          match pick with
          | Some choose -> (
            (* Forced scheduling (record/replay): the recorded choice
               must still be eligible in the replay, which determinism
               guarantees. *)
            match choose ~eligible:(Array.to_list elig) with
            | Some t when Array.exists (Int.equal t) elig -> t
            | Some t ->
              invalid "forced schedule chose ineligible thread %d" t
            | None -> elig.(0))
          | None ->
          if not (Array.exists (Int.equal !current) elig) then begin
            st.counters.sched_switches <- st.counters.sched_switches + 1;
            elig.(Rng.int st.rng (Array.length elig))
          end
          else
            let t = Hashtbl.find st.threads !current in
            let p =
              match current_instr t with
              | Some i when is_yield i -> 0.9
              | Some i when interesting i -> st.preempt_prob
              | _ -> 0.02
            in
            let n = Array.length elig in
            if n > 1 && Rng.chance st.rng p then begin
              (* Index into [elig] minus the current thread, without
                 materialising the filtered list: same Rng draw (bound
                 [n - 1]), same element the [List.filter]+[List.nth]
                 version picked. *)
              let cur_at = ref 0 in
              Array.iteri (fun i x -> if x = !current then cur_at := i) elig;
              st.counters.sched_switches <- st.counters.sched_switches + 1;
              let j = Rng.int st.rng (n - 1) in
              elig.(if j >= !cur_at then j + 1 else j)
            end
            else !current
        in
        current := tid;
        st.hooks.sched ~choice:tid;
        let t = Hashtbl.find st.threads tid in
        (* Blocked instructions are retried once eligible again. *)
        (match t.status with
         | Blocked_lock _ | Blocked_join _ -> t.status <- Runnable
         | _ -> ());
        (match current_instr t with
         | None -> t.status <- Finished
         | Some i -> (
           incr steps;
           st.counters.instrs <- st.counters.instrs + 1;
           if st.record_gt then st.gt_executed <- (tid, i.iid) :: st.gt_executed;
           st.hooks.pre_instr ~tid ~instr:i ~addr:(pre_addr st (frame_of t) i);
           try exec_instr st t i
           with Crash (kind, msg) ->
             raise
               (Crash_report
                  Failure.{
                    kind; pc = i.iid; tid; stack = stack_trace t; message = msg;
                  })));
        loop ()
  in
  try loop () with Crash_report r -> finish (Failed r)
