(* A deterministic multithreaded interpreter for the IR.  It plays the
   role of "production runs" in the paper: failures (including
   concurrency failures) manifest as a function of the scheduling seed
   and the workload, and tracing layers (Intel PT, hardware
   watchpoints, record/replay) observe the execution through [hooks]
   without perturbing it.

   The engine executes the *lowered* form ([Ir.Lowered], memoised per
   program by [Analysis.Cache.lowered]): frames are [Value.t array]
   indexed by precompiled slots instead of string Hashtbls, jumps are
   block indices instead of label scans, callees/globals are resolved
   table indices, and builtins dispatch on an opcode variant instead of
   string comparison.  Observable behaviour — hook firings, RNG draws,
   scheduler choices, crash pcs/messages, counters — is bit-identical
   to the nominal reference engine, which only the test tree keeps
   (test/support/, for the differential test). *)

open Ir.Types
open Value
module L = Ir.Lowered

type rw = Read | Write

let no_addr = min_int

type hooks = {
  mutable pre_instr : tid:int -> instr:instr -> addr:int -> unit;
  mutable mem_access :
    tid:int -> instr:instr -> addr:int -> rw:rw -> value:Value.t -> unit;
  mutable branch : tid:int -> instr:instr -> taken:bool -> unit;
  mutable ret : tid:int -> instr:instr -> resume:iid option -> unit;
  mutable sched : choice:int -> unit;
}

let no_hooks () =
  {
    pre_instr = (fun ~tid:_ ~instr:_ ~addr:_ -> ());
    mem_access = (fun ~tid:_ ~instr:_ ~addr:_ ~rw:_ ~value:_ -> ());
    branch = (fun ~tid:_ ~instr:_ ~taken:_ -> ());
    ret = (fun ~tid:_ ~instr:_ ~resume:_ -> ());
    sched = (fun ~choice:_ -> ());
  }

type workload = { args : Value.t list; seed : int }

let workload ?(args = []) seed = { args; seed }

(* Spreads client indexes across seeds without clustering. *)
let seed_of_client c = (c * 2654435761) land 0x3FFFFFFF

(* A globally sequenced shared-memory access: the evaluation's ground
   truth (used to compute ideal sketches and to feed the record/replay
   baseline); Gist itself only sees the subset captured by watchpoints. *)
type access = {
  a_seq : int;
  a_tid : int;
  a_iid : iid;
  a_addr : int;
  a_rw : rw;
  a_value : Value.t;
}

type outcome = Success | Failed of Failure.report

type result = {
  outcome : outcome;
  counters : Cost.t;
  accesses : access list;      (* ground truth; [] unless [record_gt] *)
  executed : (int * iid) list; (* ground truth; [] unless [record_gt] *)
  output : string list;
  steps : int;
}

(* ------------------------------------------------------------------ *)

(* An unbound register slot.  The sentinel is a single physical value
   only this module can install, so [==] distinguishes "never written"
   from every value a program can produce (including equal strings). *)
let unbound : Value.t = VStr "<unbound>"

type frame = {
  lf : L.lfunc;
  mutable blk : int;
  mutable idx : int;
  regs : Value.t array;  (* slot -> value; [unbound] when never set *)
  ret_dst : int option;  (* caller slot receiving the return value *)
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
  low : L.t;
  mem : Memory.t;
  gaddrs : int array;                  (* global index -> address *)
  locks : (int, int option) Hashtbl.t; (* lock addr -> holder tid *)
  threads : (int, thread) Hashtbl.t;   (* kept for the deadlock pick's
                                          fold order; hot-path lookups
                                          go through [thread_arr] *)
  mutable thread_arr : thread array;   (* tid -> thread (tids are dense) *)
  mutable elig_dirty : bool;           (* must rebuild [elig_cache]? *)
  mutable elig_cache : int array;
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

let stack_trace t = List.map (fun f -> f.lf.L.lf_name) t.frames

let eval_operand fr (op : L.lop) =
  match op with
  | LImm n -> Value.int n
  | LStr s -> VStr s
  | LNull -> VNull
  | LReg s ->
    let v = Array.unsafe_get fr.regs s in
    if v == unbound then
      let r = fr.lf.L.lf_slot_names.(s) in
      crash (Type_error ("unbound register " ^ r)) r
    else v

let as_int = function
  | VInt n -> n
  | VNull -> 0
  | v -> crash (Type_error "expected int") (Value.to_string v)

(* Integer results go through [Value.int]: a small one is shared, not
   allocated. *)
let eval_binop op a b =
  let bool_v = Value.of_bool in
  match (op, a, b) with
  | Eq, _, _ -> bool_v (Value.equal a b)
  | Ne, _, _ -> bool_v (not (Value.equal a b))
  | And, _, _ -> bool_v (truthy a && truthy b)
  | Or, _, _ -> bool_v (truthy a || truthy b)
  | Add, VPtr p, VInt n | Add, VInt n, VPtr p -> VPtr (p + n)
  | Sub, VPtr p, VInt n -> VPtr (p - n)
  | Sub, VPtr p, VPtr q -> Value.int (p - q)
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
     | Add -> Value.int (x + y)
     | Sub -> Value.int (x - y)
     | Mul -> Value.int (x * y)
     | Div -> if y = 0 then crash Div_by_zero "" else Value.int (x / y)
     | Mod -> if y = 0 then crash Div_by_zero "" else Value.int (x mod y)
     | Lt -> bool_v (x < y)
     | Le -> bool_v (x <= y)
     | Gt -> bool_v (x > y)
     | Ge -> bool_v (x >= y)
     | Eq | Ne | And | Or -> assert false)

let eval_expr fr (e : L.lexpr) =
  match e with
  | LBin (op, a, b) -> eval_binop op (eval_operand fr a) (eval_operand fr b)
  | LMov a -> eval_operand fr a
  | LNot a -> Value.of_bool (not (truthy (eval_operand fr a)))

(* Evaluate an argument vector left to right (the order the nominal
   engine's [List.map] used, which fixes *which* crash fires first). *)
let eval_args fr (ops : L.lop array) =
  let n = Array.length ops in
  if n = 0 then [||]
  else begin
    let vs = Array.make n VUnit in
    for k = 0 to n - 1 do
      vs.(k) <- eval_operand fr ops.(k)
    done;
    vs
  end

(* Address of a memory operand, raising the right failure kind. *)
let resolve_addr base_v offset =
  match base_v with
  | VPtr a -> a + offset
  | VNull -> crash Segfault "null dereference"
  | v -> crash (Type_error "dereference of non-pointer") (Value.to_string v)

(* The address [li] is about to touch, for the [pre_instr] hook;
   unlike [resolve_addr] it never crashes, answering [no_addr]. *)
let pre_addr st fr (li : L.linstr) =
  match li.L.li_kind with
  | LLoad (_, LReg s, off) | LStore (LReg s, off, _) -> (
    match Array.unsafe_get fr.regs s with VPtr a -> a + off | _ -> no_addr)
  | LLoad_global (_, gi) | LStore_global (gi, _) -> st.gaddrs.(gi)
  | _ -> no_addr

let mem_fail_to_crash op = function
  | Memory.Fail_segv -> crash Segfault op
  | Memory.Fail_uaf -> crash Use_after_free op
  | Memory.Fail_dfree -> crash Double_free op

let record_access st t (li : L.linstr) addr rw value =
  st.seq <- st.seq + 1;
  st.counters.mem_accesses <- st.counters.mem_accesses + 1;
  if st.record_gt then
    st.gt_accesses <-
      { a_seq = st.seq; a_tid = t.tid; a_iid = li.L.li_iid; a_addr = addr;
        a_rw = rw; a_value = value }
      :: st.gt_accesses;
  st.hooks.mem_access ~tid:t.tid ~instr:li.L.li_instr ~addr ~rw ~value

let do_load st t li addr =
  match Memory.load st.mem addr with
  | exception Memory.Fault e -> mem_fail_to_crash "load" e
  | v ->
    record_access st t li addr Read v;
    v

let do_store st t li addr v =
  match Memory.store st.mem addr v with
  | exception Memory.Fault e -> mem_fail_to_crash "store" e
  | () -> record_access st t li addr Write v

(* Fresh callee frame with [values] bound to the parameter slots.
   Duplicate parameter names share a slot, so the last binding wins —
   as the nominal engine's repeated [Hashtbl.replace] did. *)
let bind_frame ~what (lf : L.lfunc) values ret_dst =
  if Array.length values <> Array.length lf.L.lf_params then
    crash (Type_error ("arity mismatch " ^ what ^ " " ^ lf.L.lf_name)) "";
  let regs = Array.make lf.L.lf_nslots unbound in
  Array.iteri (fun k v -> regs.(lf.L.lf_params.(k)) <- v) values;
  { lf; blk = 0; idx = 0; regs; ret_dst }

let spawn_thread st fidx values =
  let lf = st.low.L.l_funcs.(fidx) in
  let fr = bind_frame ~what:"spawning" lf values None in
  let tid = st.next_tid in
  st.next_tid <- st.next_tid + 1;
  let t = { tid; frames = [ fr ]; status = Runnable } in
  Hashtbl.replace st.threads tid t;
  let cap = Array.length st.thread_arr in
  if tid >= cap then begin
    let bigger = Array.make (max 8 (2 * (tid + 1))) t in
    Array.blit st.thread_arr 0 bigger 0 cap;
    st.thread_arr <- bigger
  end;
  st.thread_arr.(tid) <- t;
  st.elig_dirty <- true;
  tid

let do_builtin st fr dst (op : L.builtin_op) name (args : Value.t array) =
  let v : Value.t =
    match (op, args) with
    | L.B_print, [| v |] ->
      st.out <- Value.to_string v :: st.out;
      VUnit
    | L.B_print_int, [| v |] ->
      st.out <- string_of_int (as_int v) :: st.out;
      VUnit
    | (L.B_strlen | L.B_input_len), [| VStr s |] -> VInt (String.length s)
    | (L.B_strlen | L.B_input_len), [| VNull |] -> crash Segfault "strlen(NULL)"
    | (L.B_strlen | L.B_input_len), [| v |] ->
      crash (Type_error "strlen of non-string") (Value.to_string v)
    | L.B_str_char, [| VStr s; i |] ->
      let k = as_int i in
      if k >= 0 && k < String.length s then VInt (Char.code s.[k])
      else VInt (-1)
    | L.B_str_char, [| VNull; _ |] -> crash Segfault "str_char(NULL)"
    | L.B_str_concat, [| VStr a; VStr b |] -> VStr (a ^ b)
    | L.B_atoi, [| VStr s |] ->
      VInt (match int_of_string_opt (String.trim s) with Some n -> n | None -> 0)
    | L.B_abs, [| v |] -> VInt (abs (as_int v))
    | L.B_min, [| a; b |] -> VInt (min (as_int a) (as_int b))
    | L.B_max, [| a; b |] -> VInt (max (as_int a) (as_int b))
    | (L.B_yield | L.B_sleep), _ -> VUnit
    | _ -> crash (Type_error ("bad builtin call " ^ name)) ""
  in
  match dst with Some s -> fr.regs.(s) <- v | None -> ()

(* Execute one instruction of thread [t].  Blocking instructions leave
   the position unchanged and flip the thread status; the scheduler
   retries them when they become eligible again. *)
let exec_instr st t (li : L.linstr) =
  let fr = frame_of t in
  match li.L.li_kind with
  | LAssign (s, e) ->
    fr.regs.(s) <- eval_expr fr e;
    fr.idx <- fr.idx + 1
  | LLoad (s, base, off) ->
    let addr = resolve_addr (eval_operand fr base) off in
    fr.regs.(s) <- do_load st t li addr;
    fr.idx <- fr.idx + 1
  | LStore (base, off, v) ->
    let addr = resolve_addr (eval_operand fr base) off in
    do_store st t li addr (eval_operand fr v);
    fr.idx <- fr.idx + 1
  | LLoad_global (s, gi) ->
    let addr = st.gaddrs.(gi) in
    fr.regs.(s) <- do_load st t li addr;
    fr.idx <- fr.idx + 1
  | LStore_global (gi, v) ->
    let addr = st.gaddrs.(gi) in
    do_store st t li addr (eval_operand fr v);
    fr.idx <- fr.idx + 1
  | LMalloc (s, n) ->
    fr.regs.(s) <- VPtr (Memory.alloc st.mem n);
    fr.idx <- fr.idx + 1
  | LFree p -> (
    match eval_operand fr p with
    | VPtr base -> (
      match Memory.free st.mem base with
      | exception Memory.Fault e -> mem_fail_to_crash "free" e
      | () -> fr.idx <- fr.idx + 1)
    | VNull -> fr.idx <- fr.idx + 1 (* free(NULL) is a no-op, as in C *)
    | v -> crash (Type_error "free of non-pointer") (Value.to_string v))
  | LCall (dst, fidx, args) ->
    let values = eval_args fr args in
    fr.idx <- fr.idx + 1;
    t.frames <-
      bind_frame ~what:"calling" st.low.L.l_funcs.(fidx) values dst
      :: t.frames
  | LBuiltin (dst, op, name, args) ->
    do_builtin st fr dst op name (eval_args fr args);
    fr.idx <- fr.idx + 1
  | LJmp b ->
    fr.blk <- b;
    fr.idx <- 0
  | LBranch (c, bt, be) ->
    let taken = truthy (eval_operand fr c) in
    st.counters.branches <- st.counters.branches + 1;
    st.hooks.branch ~tid:t.tid ~instr:li.L.li_instr ~taken;
    fr.blk <- (if taken then bt else be);
    fr.idx <- 0
  | LRet v -> (
    let value = match v with Some op -> eval_operand fr op | None -> VUnit in
    let popped = fr in
    t.frames <- List.tl t.frames;
    match t.frames with
    | [] ->
      st.hooks.ret ~tid:t.tid ~instr:li.L.li_instr ~resume:None;
      t.status <- Finished;
      st.elig_dirty <- true
    | caller :: _ ->
      let resume = caller.lf.L.lf_blocks.(caller.blk).(caller.idx).L.li_iid in
      st.hooks.ret ~tid:t.tid ~instr:li.L.li_instr ~resume:(Some resume);
      (match popped.ret_dst with
       | Some s -> caller.regs.(s) <- value
       | None -> ()))
  | LSpawn (s, fidx, args) ->
    let values = eval_args fr args in
    let tid = spawn_thread st fidx values in
    fr.regs.(s) <- VTid tid;
    fr.idx <- fr.idx + 1
  | LJoin target -> (
    match eval_operand fr target with
    | VTid tid -> (
      match Hashtbl.find_opt st.threads tid with
      | Some th when th.status <> Finished ->
        t.status <- Blocked_join tid;
        st.elig_dirty <- true
      | _ -> fr.idx <- fr.idx + 1)
    | v -> crash (Type_error "join of non-thread") (Value.to_string v))
  | LLock m -> (
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
    | Some (Some holder) when holder <> t.tid ->
      t.status <- Blocked_lock addr;
      st.elig_dirty <- true
    | _ ->
      Hashtbl.replace st.locks addr (Some t.tid);
      st.elig_dirty <- true;
      fr.idx <- fr.idx + 1)
  | LUnlock m ->
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
    st.elig_dirty <- true;
    fr.idx <- fr.idx + 1
  | LAssert (c, msg) ->
    if truthy (eval_operand fr c) then fr.idx <- fr.idx + 1
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
  | Blocked_join tid -> st.thread_arr.(tid).status = Finished

(* Sorted array of runnable thread ids.  The scheduler indexes into it
   directly (this is the interpreter's innermost loop), so the array is
   cached and only rebuilt after an event that can change eligibility:
   a spawn, a status change, or a lock transfer ([elig_dirty]).  Tids
   are dense and scanned in order, so the result needs no sort. *)
let eligible_tids st =
  if st.elig_dirty then begin
    let n = st.next_tid in
    let buf = Array.make (max n 1) 0 in
    let k = ref 0 in
    for tid = 0 to n - 1 do
      if eligible st st.thread_arr.(tid) then begin
        buf.(!k) <- tid;
        incr k
      end
    done;
    st.elig_cache <- Array.sub buf 0 !k;
    st.elig_dirty <- false
  end;
  st.elig_cache

let all_finished st =
  let rec go i =
    i >= st.next_tid || (st.thread_arr.(i).status = Finished && go (i + 1))
  in
  go 0

let rec array_mem x (a : int array) i =
  i < Array.length a && (Array.unsafe_get a i = x || array_mem x a (i + 1))

(* The index of [x] in [a] at or after [i] ([a] holds distinct
   tids); 0 when absent. *)
let rec array_index x (a : int array) i =
  if i >= Array.length a then 0
  else if Array.unsafe_get a i = x then i
  else array_index x a (i + 1)

let run ?hooks ?counters ?pick ?(max_steps = 400_000) ?(record_gt = false)
    ?(preempt_prob = 0.35) program (w : workload) : result =
  let hooks = match hooks with Some h -> h | None -> no_hooks () in
  let counters = match counters with Some c -> c | None -> Cost.create () in
  let low = Analysis.Cache.lowered program in
  let st =
    {
      low;
      mem = Memory.create ();
      gaddrs = Array.make (Array.length low.L.l_globals) 0;
      locks = Hashtbl.create 16;
      threads = Hashtbl.create 8;
      thread_arr = [||];
      elig_dirty = true;
      elig_cache = [||];
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
  (* Allocate globals, in declaration order (addresses must match the
     nominal engine's allocation sequence). *)
  Array.iteri
    (fun gi (g : global) ->
      let addr = Memory.alloc st.mem 1 in
      st.gaddrs.(gi) <- addr;
      let v =
        match g.init with
        | Imm n -> Value.int n
        | Str s -> VStr s
        | Null -> VNull
        | Reg _ -> invalid "global %s: register initialiser" g.gname
      in
      Memory.store st.mem addr v)
    low.L.l_globals;
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
    let pc =
      match t.frames with
      | f :: _ -> f.lf.L.lf_blocks.(f.blk).(f.idx).L.li_iid
      | [] -> 0
    in
    Failure.{ kind; pc; tid = t.tid; stack = stack_trace t; message = msg }
  in
  (* A malformed main invocation (arity mismatch) is a failed run, not
     an interpreter exception. *)
  let main_args = Array.of_list w.args in
  match spawn_thread st low.L.l_main main_args with
  | exception Crash (kind, msg) ->
    finish
      (Failed
         Failure.{
           kind; pc = 0; tid = 0; stack = [ low.L.l_program.main ];
           message = msg;
         })
  | main_tid ->
  let current = ref main_tid in
  let rec loop () =
    if !steps >= max_steps then
      let t = st.thread_arr.(!current) in
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
            | Some t when array_mem t elig 0 -> t
            | Some t ->
              invalid "forced schedule chose ineligible thread %d" t
            | None -> elig.(0))
          | None ->
          if not (array_mem !current elig 0) then begin
            st.counters.sched_switches <- st.counters.sched_switches + 1;
            elig.(Rng.int st.rng (Array.length elig))
          end
          else
            let n = Array.length elig in
            (* The preemption draw: likelier at a yield point or an
               interesting instruction of the current thread.  Each
               branch passes a constant or the boxed field as is, so
               no float is boxed per step. *)
            let preempt =
              n > 1
              &&
              match st.thread_arr.(!current).frames with
              | f :: _ ->
                let li = f.lf.L.lf_blocks.(f.blk).(f.idx) in
                if li.L.li_yield then Rng.chance st.rng 0.9
                else if li.L.li_interesting then
                  Rng.chance st.rng st.preempt_prob
                else Rng.chance st.rng 0.02
              | [] -> Rng.chance st.rng 0.02
            in
            if preempt then begin
              (* Index into [elig] minus the current thread, without
                 materialising the filtered list: same Rng draw (bound
                 [n - 1]), same element the [List.filter]+[List.nth]
                 version picked. *)
              let cur_at = array_index !current elig 0 in
              st.counters.sched_switches <- st.counters.sched_switches + 1;
              let j = Rng.int st.rng (n - 1) in
              elig.(if j >= cur_at then j + 1 else j)
            end
            else !current
        in
        current := tid;
        st.hooks.sched ~choice:tid;
        let t = st.thread_arr.(tid) in
        (* Blocked instructions are retried once eligible again.  The
           flip does not change the eligible set (the thread was just
           chosen from it), so the cache stays valid. *)
        (match t.status with
         | Blocked_lock _ | Blocked_join _ -> t.status <- Runnable
         | _ -> ());
        (match t.frames with
         | [] ->
           t.status <- Finished;
           st.elig_dirty <- true
         | fr :: _ -> (
           let li = fr.lf.L.lf_blocks.(fr.blk).(fr.idx) in
           incr steps;
           st.counters.instrs <- st.counters.instrs + 1;
           if st.record_gt then
             st.gt_executed <- (tid, li.L.li_iid) :: st.gt_executed;
           st.hooks.pre_instr ~tid ~instr:li.L.li_instr
             ~addr:(pre_addr st fr li);
           try exec_instr st t li
           with Crash (kind, msg) ->
             raise
               (Crash_report
                  Failure.{
                    kind; pc = li.L.li_iid; tid; stack = stack_trace t;
                    message = msg;
                  })));
        loop ()
  in
  try loop () with Crash_report r -> finish (Failed r)

(* The first production failure (unmonitored runs of clients 0, 1,
   ...) that [accept] admits: what a coredump/stack-trace report gives
   the developer to start from. *)
let first_failure ?(accept = fun _ -> true) ?(max_runs = 2000)
    ?(preempt_prob = 0.35) ?(max_steps = 400_000) program workload_of =
  let rec go c =
    if c >= max_runs then None
    else
      match (run ~max_steps ~preempt_prob program (workload_of c)).outcome with
      | Failed rep when accept rep -> Some (c, rep)
      | _ -> go (c + 1)
  in
  go 0
