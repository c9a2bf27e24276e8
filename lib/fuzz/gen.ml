(* Random-program generation with deliberately injected, labelled bugs.

   Two layers live here:

   - the plain well-formed-program generator ([random],
     [random_threaded]) promoted from the old test-only
     [Tsupport.Gen_prog]: seeded recipes that cannot fault, used by the
     property and differential tests; and

   - the bug-injection generator ([generate]): a *scenario* wraps one
     of the paper's root-cause patterns (the Fig. 5 atomicity
     violations RWR/WWR/RWW/WRW, the WW/WR/RW races, and the
     sequential branch/value bugs) in random but harmless padding.
     Every scenario compiles to a program whose root cause is known by
     construction, so the whole diagnosis pipeline can be checked
     against ground truth at scale.

   Kernel (injected) statements carry fixed source lines in the
   100..999 band of "fuzz.c"; scaffolding (allocs, spawns, joins) lives
   below 100 and padding at 1000+, so ground truth survives iid
   renumbering and padding removal: it is expressed in source lines,
   exactly how Gist reports sketches (paper §4). *)

open Ir.Types
module B = Ir.Builder

(* ------------------------------------------------------------------ *)
(* Statement-level AST shared by padding and injected kernels. *)

type sstmt =
  | S_assign of string * expr
  | S_store of int * operand        (* arr[k] <- v *)
  | S_load of string * int          (* fresh reg <- arr[k] *)
  | S_if of string * sstmt list * sstmt list
  | S_loop of string * int * sstmt list (* counter reg, bound, body *)
  | S_instr of instr                (* pre-located (kernel) instruction *)
  | S_if_at of instr * sstmt list * sstmt list
      (* kernel branch: the [instr] must hold a [Branch]; its labels
         are patched in at compile time *)

(* ------------------------------------------------------------------ *)
(* Random AST construction. *)

type genstate = {
  rng : Exec.Rng.t;
  mutable fresh : int;
  mutable line : int;
}

let fresh_reg g prefix =
  g.fresh <- g.fresh + 1;
  Printf.sprintf "%s%d" prefix g.fresh

let next_line g =
  g.line <- g.line + 1;
  g.line

let pick g l = List.nth l (Exec.Rng.int g.rng (List.length l))

let random_operand g env =
  if env <> [] && Exec.Rng.bool g.rng then Reg (pick g env)
  else Imm (Exec.Rng.int g.rng 20 - 10)

let random_expr g env =
  match Exec.Rng.int g.rng 8 with
  | 0 -> Mov (random_operand g env)
  | 1 -> Not (random_operand g env)
  | 2 ->
    (* keep division well-defined: non-zero immediate divisor *)
    Bin (Div, random_operand g env, Imm (1 + Exec.Rng.int g.rng 9))
  | 3 -> Bin (Mod, random_operand g env, Imm (1 + Exec.Rng.int g.rng 9))
  | n ->
    let op = pick g [ Add; Sub; Mul; Lt; Le; Gt; Ge; Eq; Ne; And; Or ] in
    ignore n;
    Bin (op, random_operand g env, random_operand g env)

(* Generate a statement list; [env] is threaded so every register read
   is previously defined. *)
let rec random_stmts g env depth budget =
  if budget <= 0 then ([], env)
  else
    let stmt, env =
      match Exec.Rng.int g.rng (if depth > 0 then 6 else 4) with
      | 0 | 1 ->
        let r = fresh_reg g "r" in
        (S_assign (r, random_expr g env), r :: env)
      | 2 -> (S_store (Exec.Rng.int g.rng 8, random_operand g env), env)
      | 3 ->
        let r = fresh_reg g "l" in
        (S_load (r, Exec.Rng.int g.rng 8), r :: env)
      | 4 ->
        let c = fresh_reg g "c" in
        let then_s, _ = random_stmts g (c :: env) (depth - 1) (budget / 2) in
        let else_s, _ = random_stmts g (c :: env) (depth - 1) (budget / 2) in
        (S_if (c, then_s, else_s), c :: env)
      | _ ->
        let k = fresh_reg g "k" in
        let body, _ =
          random_stmts g (k :: env) (depth - 1) (budget / 2)
        in
        (S_loop (k, 1 + Exec.Rng.int g.rng 5, body), env)
    in
    let rest, env = random_stmts g env depth (budget - 1) in
    (stmt :: rest, env)

(* ------------------------------------------------------------------ *)
(* Lowering statement lists to basic blocks. *)

let compile g ?(file = "gen.c") ?(prelude = []) stmts =
  let blocks = ref [] in
  let label_counter = ref 0 in
  let fresh_label prefix =
    incr label_counter;
    Printf.sprintf "%s%d" prefix !label_counter
  in
  let i kind = B.instr ~file ~line:(next_line g) ~text:"" kind in
  let add_block label instrs = blocks := (label, instrs) :: !blocks in
  (* [go stmts acc lbl exit]: emit [stmts] into block [lbl] (whose
     earlier instructions are [acc], reversed), ending with a jump to
     [exit]. *)
  let rec go stmts acc lbl exit =
    match stmts with
    | [] -> add_block lbl (List.rev (i (Jmp exit) :: acc))
    | S_assign (r, e) :: tl -> go tl (i (Assign (r, e)) :: acc) lbl exit
    | S_store (off, v) :: tl ->
      go tl (i (Store (Reg "arr", off, v)) :: acc) lbl exit
    | S_load (r, off) :: tl ->
      go tl (i (Load (r, Reg "arr", off)) :: acc) lbl exit
    | S_instr ins :: tl -> go tl (ins :: acc) lbl exit
    | S_if (c, then_s, else_s) :: tl ->
      let lt = fresh_label "t" and lf = fresh_label "f" in
      let lj = fresh_label "j" in
      let cond = i (Assign (c, random_expr g [])) in
      add_block lbl (List.rev (i (Branch (Reg c, lt, lf)) :: cond :: acc));
      go then_s [] lt lj;
      go else_s [] lf lj;
      go tl [] lj exit
    | S_if_at (br, then_s, else_s) :: tl ->
      let lt = fresh_label "t" and lf = fresh_label "f" in
      let lj = fresh_label "j" in
      let br =
        match br.kind with
        | Branch (cond, _, _) -> { br with kind = Branch (cond, lt, lf) }
        | _ -> br
      in
      add_block lbl (List.rev (br :: acc));
      go then_s [] lt lj;
      go else_s [] lf lj;
      go tl [] lj exit
    | S_loop (k, bound, body) :: tl ->
      let lh = fresh_label "h" and lb = fresh_label "b" in
      let li = fresh_label "i" and lx = fresh_label "x" in
      let kc = k ^ "c" in
      add_block lbl (List.rev (i (Jmp lh) :: i (Assign (k, Mov (Imm 0))) :: acc));
      add_block lh
        [
          i (Assign (kc, B.( <% ) (Reg k) (Imm bound)));
          i (Branch (Reg kc, lb, lx));
        ];
      go body [] lb li;
      add_block li
        [ i (Assign (k, B.( +% ) (Reg k) (Imm 1))); i (Jmp lh) ];
      go tl [] lx exit
  in
  go stmts (List.rev prelude) "entry" "the_end";
  add_block "the_end" [ i (Ret (Some (Imm 0))) ];
  List.rev !blocks

let alloc_prelude g =
  let i kind = B.instr ~file:"gen.c" ~line:(next_line g) ~text:"" kind in
  [ i (Malloc ("arr", 8)); i (Store (Reg "arr", 0, Imm 1)) ]

let random seed =
  let g = { rng = Exec.Rng.create seed; fresh = 0; line = 0 } in
  (* nesting depth 3, statement budget 14 *)
  let stmts, _ = random_stmts g [] 3 14 in
  let prelude = alloc_prelude g in
  let blocks =
    List.map
      (fun (label, instrs) -> B.block label instrs)
      (compile g ~prelude stmts)
  in
  Ir.Program.make ~main:"main" [ B.func "main" ~params:[ "a" ] blocks ]

(* A multithreaded variant: two workers run independently generated
   random bodies over a shared 8-cell array.  Data races abound by
   construction, but no instruction can fault (valid offsets, bounded
   loops, non-zero divisors), so outcomes are always Success -- which
   makes the variant ideal for exercising per-thread PT streams,
   record/replay of racy schedules, and instrumentation coverage under
   real interleavings. *)
let random_threaded seed =
  let g = { rng = Exec.Rng.create seed; fresh = 0; line = 0 } in
  let worker name =
    let stmts, _ = random_stmts g [ "a" ] 2 9 in
    let blocks =
      List.map (fun (label, instrs) -> B.block label instrs)
        (compile g stmts)
    in
    B.func name ~params:[ "arr"; "a" ] blocks
  in
  let w1 = worker "worker1" and w2 = worker "worker2" in
  let i kind = B.instr ~file:"gen.c" ~line:(next_line g) ~text:"" kind in
  let main =
    B.func "main" ~params:[ "a" ]
      [
        B.block "entry"
          [
            i (Malloc ("arr", 8));
            i (Store (Reg "arr", 0, Imm 1));
            i (Spawn ("t1", "worker1", [ Reg "arr"; Reg "a" ]));
            i (Spawn ("t2", "worker2", [ Reg "arr"; Reg "a" ]));
            i (Join (Reg "t1"));
            i (Join (Reg "t2"));
            i (Load ("v", Reg "arr", 0));
            i (Ret (Some (Reg "v")));
          ];
      ]
  in
  Ir.Program.make ~main:"main" [ w1; w2; main ]

(* ================================================================== *)
(* Bug injection. *)

type pattern =
  | RWR | WWR | RWW | WRW       (* Fig. 5 atomicity violations *)
  | WW | WR | RW                (* data races / order violations *)
  | Branch_bug                  (* sequential: input takes a bad branch *)
  | Value_bug                   (* sequential: a bad data value flows *)

let all_patterns = [ RWR; WWR; RWW; WRW; WW; WR; RW; Branch_bug; Value_bug ]

let pattern_name = function
  | RWR -> "RWR" | WWR -> "WWR" | RWW -> "RWW" | WRW -> "WRW"
  | WW -> "WW" | WR -> "WR" | RW -> "RW"
  | Branch_bug -> "BRANCH" | Value_bug -> "VALUE"

let pattern_of_name s =
  List.find_opt (fun p -> pattern_name p = s) all_patterns

(* Ground truth: which ranked predictors correctly describe the
   injected root cause, in source-line terms. *)
type accept =
  | A_race of string * int * int
  | A_atom of string * int * int * int
  | A_value of int * string
  | A_branch of int * bool

type truth = {
  t_kind_tag : string;   (* Exec.Failure.kind_tag of the planted failure *)
  t_fail_line : int;     (* source line where it manifests *)
  t_kernel_lines : int list; (* injected-kernel lines the sketch must cover *)
  t_accept : accept list;
}

type scenario = {
  s_pattern : pattern;
  s_pads : sstmt list array;  (* 4 regions; see [compile_scenario] *)
  s_preempt : float;
}

type case = {
  c_name : string;
  c_pattern : pattern;
  c_seed : int;              (* scenario seed; -1 for loaded corpus cases *)
  c_program : program;
  c_scenario : scenario option; (* present for generated (shrinkable) cases *)
  c_truth : truth;
  c_args_cycle : int list;   (* client c runs with arg cycle.(c mod len) *)
  c_preempt : float;
  c_faults : (Faults.Fault.rates * int) option; (* fleet faults (rates, seed) *)
}

let workload_of case c =
  let cyc = Array.of_list case.c_args_cycle in
  Exec.Interp.workload
    ~args:[ Exec.Value.VInt cyc.(c mod Array.length cyc) ]
    (Exec.Interp.seed_of_client c)

(* ------------------------------------------------------------------ *)
(* Fixed source-line map of the injected kernels ("fuzz.c").

   10..23  scaffold: allocations, init stores, spawn/join
   101     first kernel access (thread 1 / sequential kernel head)
   102     interfering kernel access (thread 2) or bad-branch arm
   103     closing kernel access of an atomicity pair (thread 1)
   110     where the failure manifests
   111-114 auxiliary kernel statements (condition, relay cell)
   1000+   padding *)

let kernel_file = "fuzz.c"
let ki = B.file kernel_file
let r = B.r
let im = B.im

let l_init = 12
let l_k1 = 101
let l_k2 = 102
let l_k3 = 103
let l_fail = 110

(* The canonical workloads.  Concurrency kernels fail as a function of
   the schedule only; sequential kernels as a function of the input. *)
let args_cycle_of = function
  | Branch_bug -> [ 0; 5; 2; 7; 1; 6; 3; 4 ]  (* > 4 fails: 3 of 8 *)
  | Value_bug -> [ 3; 0; 5; 2; 7; 1 ]         (* 0 fails: 1 of 6 *)
  | _ -> [ 1; 2; 3 ]

let null_s = Exec.Value.to_string Exec.Value.VNull

let truth_of = function
  | RWR ->
    { t_kind_tag = "assert"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 103; 110; 111 ];
      t_accept =
        [ A_atom ("RWR", 101, 102, 103);
          A_race ("RW", 101, 102); A_race ("WR", 102, 103);
          (* the stale first read / interfered second read: Data_value
             wins the rank tie-break against Atomicity when both have
             perfect precision in the sampled fleet *)
          A_value (101, "0"); A_value (103, "1") ] }
  | WWR ->
    { t_kind_tag = "assert"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 103; 110; 111 ];
      t_accept =
        [ A_atom ("WWR", 101, 102, 103);
          A_race ("WW", 101, 102); A_race ("WR", 102, 103);
          A_value (103, "4"); A_value (101, "3") ] }
  | RWW ->
    { t_kind_tag = "assert"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 103; 110; 111; 112; 113 ];
      t_accept =
        [ A_atom ("RWW", 101, 102, 103);
          A_race ("RW", 101, 102); A_race ("WW", 102, 103);
          A_value (112, "1"); A_value (101, "0") ] }
  | WRW ->
    { t_kind_tag = "assert"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 103; 110; 112; 113; 114 ];
      t_accept =
        [ A_atom ("WRW", 101, 102, 103);
          A_race ("WR", 101, 102); A_race ("RW", 102, 103);
          A_value (112, "6"); A_value (113, "6") ] }
  | WW ->
    { t_kind_tag = "div-by-zero"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 110; 112 ];
      t_accept =
        [ A_race ("WW", 101, 102); A_race ("WR", 102, 112);
          A_value (112, "0"); A_value (102, "0") ] }
  | WR ->
    { t_kind_tag = "segfault"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 110 ];
      t_accept =
        [ A_race ("WR", 101, 102);
          A_value (102, null_s); A_value (101, null_s) ] }
  | RW ->
    { t_kind_tag = "div-by-zero"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 110; 111; 112 ];
      t_accept =
        [ A_race ("RW", 101, 102); A_race ("WR", l_init, 101);
          A_value (111, "0"); A_value (112, "0"); A_value (101, "0") ] }
  | Branch_bug ->
    { t_kind_tag = "segfault"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 102; 110; 111; 112; 113 ];
      t_accept =
        [ A_branch (101, true);
          A_value (102, null_s); A_value (112, null_s) ] }
  | Value_bug ->
    { t_kind_tag = "div-by-zero"; t_fail_line = l_fail;
      t_kernel_lines = [ 101; 110; 112 ];
      t_accept = [ A_value (101, "0"); A_value (112, "0") ] }

(* ------------------------------------------------------------------ *)
(* Scenario -> program.

   Pad regions: 0 = thread 1 before its kernel, 1 = inside thread 1's
   kernel window (between the accesses the interferer must hit), 2 =
   thread 2 before its kernel, 3 = main between the joins and the
   check.  Sequential patterns use regions 0 (before the kernel) and 1
   (between fault injection and manifestation). *)

let si line text kind = S_instr (ki line text kind)

let g_load ?(off = 0) line text dst = si line text (Load (dst, r "g", off))
let g_store ?(off = 0) line text v = si line text (Store (r "g", off, v))

let kernel_shape pads = function
  | RWR ->
    ( [ ki l_init "g->val = 0;" (Store (r "g", 0, im 0)) ],
      pads.(0)
      @ [ g_load l_k1 "int x1 = g->val;" "x1" ]
      @ pads.(1)
      @ [
          g_load l_k3 "int x2 = g->val;" "x2";
          si 111 "bool eq = (x1 == x2);" (Assign ("eq", B.( =% ) (r "x1") (r "x2")));
          si l_fail "assert(x1 == x2);" (Assert (r "eq", "atomic read pair differs"));
        ],
      pads.(2) @ [ g_store l_k2 "g->val = 1;" (im 1) ],
      [] )
  | WWR ->
    ( [ ki l_init "g->val = 0;" (Store (r "g", 0, im 0)) ],
      pads.(0)
      @ [ g_store l_k1 "g->val = 3;" (im 3) ]
      @ pads.(1)
      @ [
          g_load l_k3 "int x = g->val;" "x";
          si 111 "bool eq = (x == 3);" (Assign ("eq", B.( =% ) (r "x") (im 3)));
          si l_fail "assert(x == 3);" (Assert (r "eq", "read-back differs"));
        ],
      pads.(2) @ [ g_store l_k2 "g->val = 4;" (im 4) ],
      [] )
  | RWW ->
    ( [ ki l_init "g->val = 0;" (Store (r "g", 0, im 0)) ],
      pads.(0)
      @ [ g_load l_k1 "int x = g->val;" "x" ]
      @ pads.(1)
      @ [
          si 111 "int y = x + 1;" (Assign ("y", B.( +% ) (r "x") (im 1)));
          g_store l_k3 "g->val = y;" (r "y");
        ],
      pads.(2) @ [ g_store l_k2 "g->val = 5;" (im 5) ],
      [
        g_load 112 "int v = g->val;" "v";
        si 113 "bool ok = (v >= 5);" (Assign ("ok", B.( >=% ) (r "v") (im 5)));
        si l_fail "assert(v >= 5);" (Assert (r "ok", "lost update"));
      ] )
  | WRW ->
    ( [ ki l_init "g->val = 0;" (Store (r "g", 0, im 0)) ],
      pads.(0)
      @ [ g_store l_k1 "g->val = 6; /* intermediate */" (im 6) ]
      @ pads.(1)
      @ [ g_store l_k3 "g->val = 7; /* final */" (im 7) ],
      pads.(2)
      @ [
          g_load l_k2 "int x = g->val;" "x";
          si 112 "g->seen = x;" (Store (r "g", 1, r "x"));
        ],
      [
        si 113 "int v = g->seen;" (Load ("v", r "g", 1));
        si 114 "bool ok = (v != 6);" (Assign ("ok", B.( <>% ) (r "v") (im 6)));
        si l_fail "assert(v != 6);" (Assert (r "ok", "saw intermediate value"));
      ] )
  | WW ->
    ( [ ki l_init "g->val = 3;" (Store (r "g", 0, im 3)) ],
      pads.(0) @ [ g_store l_k1 "g->val = 2;" (im 2) ],
      pads.(2) @ [ g_store l_k2 "g->val = 0;" (im 0) ],
      [
        g_load 112 "int v = g->val;" "v";
        si l_fail "int q = 100 / v;" (Assign ("q", Bin (Div, im 100, r "v")));
      ] )
  | WR ->
    ( [
        ki 14 "char* p = malloc(1);" (Malloc ("p", 1));
        ki 15 "p[0] = 42;" (Store (r "p", 0, im 42));
        ki l_init "g->buf = p;" (Store (r "g", 0, r "p"));
      ],
      pads.(0) @ [ g_store l_k1 "g->buf = NULL;" Null ],
      pads.(2)
      @ [
          g_load l_k2 "char* x = g->buf;" "x";
          si l_fail "char c = x[0];" (Load ("v", r "x", 0));
        ],
      [] )
  | RW ->
    ( [ ki l_init "g->val = 0;" (Store (r "g", 0, im 0)) ],
      pads.(0)
      @ [
          g_load l_k1 "int x = g->val;" "x";
          si 111 "g->out = x;" (Store (r "g", 1, r "x"));
        ],
      pads.(2) @ [ g_store l_k2 "g->val = 9;" (im 9) ],
      [
        si 112 "int v = g->out;" (Load ("v", r "g", 1));
        si l_fail "int q = 100 / v;" (Assign ("q", Bin (Div, im 100, r "v")));
      ] )
  | (Branch_bug | Value_bug) as p ->
    ignore p;
    assert false (* sequential patterns are compiled separately *)

let compile_scenario sc =
  (* The compile-time rng only feeds structural filler (padding branch
     conditions); seeding it constantly keeps [compile_scenario] a pure
     function of the scenario, which shrinking and replay rely on. *)
  let g = { rng = Exec.Rng.create 7; fresh = 100_000; line = 999 } in
  let blocks_of ?prelude stmts =
    List.map
      (fun (label, instrs) -> B.block label instrs)
      (compile g ~file:kernel_file ?prelude stmts)
  in
  let arr_alloc line = ki line "int arr[8];" (Malloc ("arr", 8)) in
  match sc.s_pattern with
  | Branch_bug ->
    let prelude =
      [
        ki 10 "cell* g = malloc(2);" (Malloc ("g", 2));
        arr_alloc 11;
        ki 14 "char* p = malloc(1);" (Malloc ("p", 1));
        ki 15 "p[0] = 7;" (Store (r "p", 0, im 7));
      ]
    in
    let body =
      sc.s_pads.(0)
      @ [
          si 111 "bool big = (n > 4);" (Assign ("c", B.( >% ) (r "a") (im 4)));
          S_if_at
            ( ki l_k1 "if (n > LIMIT) {" (Branch (r "c", "", "")),
              [ g_store l_k2 "g->cur = NULL; /* error path */" Null ],
              [ si 113 "g->cur = p;" (Store (r "g", 0, r "p")) ] );
        ]
      @ sc.s_pads.(1)
      @ [
          g_load 112 "char* x = g->cur;" "x";
          si l_fail "char c0 = x[0];" (Load ("v", r "x", 0));
        ]
    in
    Ir.Program.make ~main:"main"
      [ B.func "main" ~params:[ "a" ] (blocks_of ~prelude body) ]
  | Value_bug ->
    let prelude =
      [ ki 10 "cell* g = malloc(2);" (Malloc ("g", 2)); arr_alloc 11 ]
    in
    let body =
      sc.s_pads.(0)
      @ [ g_store l_k1 "g->val = n;" (r "a") ]
      @ sc.s_pads.(1)
      @ [
          g_load 112 "int v = g->val;" "v";
          si l_fail "int q = 100 / v;" (Assign ("q", Bin (Div, im 100, r "v")));
        ]
    in
    Ir.Program.make ~main:"main"
      [ B.func "main" ~params:[ "a" ] (blocks_of ~prelude body) ]
  | p ->
    let init, w1_body, w2_body, check = kernel_shape sc.s_pads p in
    let worker name body =
      B.func name ~params:[ "g"; "a" ]
        (blocks_of ~prelude:[ arr_alloc 30 ] body)
    in
    let main_body =
      [
        si 20 "t1 = spawn(worker1, g);" (Spawn ("t1", "worker1", [ r "g"; r "a" ]));
        si 21 "t2 = spawn(worker2, g);" (Spawn ("t2", "worker2", [ r "g"; r "a" ]));
        si 22 "join(t1);" (Join (r "t1"));
        si 23 "join(t2);" (Join (r "t2"));
      ]
      @ sc.s_pads.(3) @ check
    in
    let prelude =
      [ ki 10 "cell* g = malloc(2);" (Malloc ("g", 2)); arr_alloc 11 ] @ init
    in
    Ir.Program.make ~main:"main"
      [
        worker "worker1" w1_body;
        worker "worker2" w2_body;
        B.func "main" ~params:[ "a" ] (blocks_of ~prelude main_body);
      ]

(* ------------------------------------------------------------------ *)
(* Scenario generation and shrinking. *)

let scenario pattern seed =
  let g = { rng = Exec.Rng.create seed; fresh = 0; line = 999 } in
  let pad () =
    (* a statement budget of 0 to 6 per pad *)
    let budget = Exec.Rng.int g.rng 7 in
    fst (random_stmts g [ "a" ] 2 budget)
  in
  let pads = [| pad (); pad (); pad (); pad () |] in
  let preempt = 0.2 +. (Exec.Rng.float g.rng *. 0.2) in
  { s_pattern = pattern; s_pads = pads; s_preempt = preempt }

let rec stmts_size stmts =
  List.fold_left
    (fun acc s ->
      acc
      + match s with
        | S_if (_, t, e) | S_if_at (_, t, e) ->
          1 + stmts_size t + stmts_size e
        | S_loop (_, b, body) -> 1 + b + stmts_size body
        | _ -> 1)
    0 stmts

let scenario_size sc = Array.fold_left (fun a p -> a + stmts_size p) 0 sc.s_pads

(* Every one-step reduction of the padding: drop a whole region, drop
   one top-level statement, flatten an if into its arms, or cut a loop
   bound to 1.  Candidates that break a register dependency simply
   change the verdict and are rejected by the shrinker's re-check. *)
let shrink_candidates sc =
  let out = ref [] in
  let emit i pads_i =
    let pads = Array.copy sc.s_pads in
    pads.(i) <- pads_i;
    out := { sc with s_pads = pads } :: !out
  in
  Array.iteri
    (fun i region ->
      if region <> [] then emit i [];
      List.iteri
        (fun j _ -> emit i (List.filteri (fun k _ -> k <> j) region))
        region;
      List.iteri
        (fun j s ->
          let replace repl =
            emit i
              (List.concat (List.mapi (fun k x -> if k = j then repl else [ x ]) region))
          in
          match s with
          | S_if (_, t, e) -> replace (t @ e)
          | S_loop (k, b, body) when b > 1 -> replace [ S_loop (k, 1, body) ]
          | _ -> ())
        region)
    sc.s_pads;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Cases. *)

let case_name pattern seed =
  Printf.sprintf "%s-%d" (String.lowercase_ascii (pattern_name pattern)) seed

let case_of_scenario ?name ?(seed = -1) sc =
  {
    c_name =
      (match name with Some n -> n | None -> case_name sc.s_pattern seed);
    c_pattern = sc.s_pattern;
    c_seed = seed;
    c_program = compile_scenario sc;
    c_scenario = Some sc;
    c_truth = truth_of sc.s_pattern;
    c_args_cycle = args_cycle_of sc.s_pattern;
    c_preempt = sc.s_preempt;
    c_faults = None;
  }

let generate pattern seed = case_of_scenario ~seed (scenario pattern seed)
