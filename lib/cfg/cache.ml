(* Memoised whole-program analysis results.

   [Icfg.build] constructs every per-function CFG -- dominators,
   postdominators and all (see [Cfg.of_func]) -- plus the
   interprocedural edges.  The slicer runs it once per diagnosis and
   the instrumentation placer once per AsT iteration, always on the
   same program, so the server recomputed identical graphs eight-plus
   times per bug.  Programs are immutable after [Ir.Program.make]
   (their index tables are built once and only read), so a built ICFG
   is valid for the program's lifetime and can be keyed by physical
   identity -- structural hashing would itself walk the whole program.

   The cache is a mutex-protected move-to-front list: entries are few
   (one per Bugbase program plus whatever tests build) and lookups are
   dominated by the first element in steady state.  The mutex is held
   across a miss's build, serialising concurrent builders of the same
   program instead of duplicating the work; concurrent *hits* on an
   already-built entry only pay the list scan.  All of [Icfg.t] is
   read-only after build, so sharing one value across domains is
   safe. *)

let max_entries = 64

type stats = { mutable hits : int; mutable misses : int }

let stats_ = { hits = 0; misses = 0 }
let entries : (Ir.Types.program * Icfg.t) list ref = ref []
let lstats_ = { hits = 0; misses = 0 }
let lentries : (Ir.Types.program * Ir.Lowered.t) list ref = ref []
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* One move-to-front lookup step, shared by both caches.  Holds [lock]
   for the duration, including a miss's build. *)
let find_or_build entries stats build program =
  locked (fun () ->
      match List.find_opt (fun (p, _) -> p == program) !entries with
      | Some (_, g) ->
        stats.hits <- stats.hits + 1;
        (match !entries with
         | (p0, _) :: _ when p0 == program -> ()
         | _ ->
           entries :=
             (program, g) :: List.filter (fun (p, _) -> p != program) !entries);
        g
      | None ->
        stats.misses <- stats.misses + 1;
        let g = build program in
        let kept =
          if List.length !entries >= max_entries then
            List.filteri (fun i _ -> i < max_entries - 1) !entries
          else !entries
        in
        entries := (program, g) :: kept;
        g)

let icfg program = find_or_build entries stats_ Icfg.build program

(* The lowered execution form (see [Ir.Lowered]): compiled once per
   program, shared by every subsequent interpreter run and PT decode. *)
let lowered program = find_or_build lentries lstats_ Ir.Lowered.lower program

let hits () = stats_.hits
let misses () = stats_.misses

let clear () =
  locked (fun () ->
      entries := [];
      stats_.hits <- 0;
      stats_.misses <- 0;
      lentries := [];
      lstats_.hits <- 0;
      lstats_.misses <- 0)
