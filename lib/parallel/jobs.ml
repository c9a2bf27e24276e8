(* Fleet-wide parallelism knob.

   Priority: an explicit [set_default] (the CLI's [--jobs]), then the
   GIST_JOBS environment variable, then [Domain.recommended_domain_count
   () - 1] (the caller participates in every map, so [jobs] worker
   domains saturate [jobs + 1] cores).  Requested counts are clamped to
   [available ()]: worker domains beyond the core count cannot add
   parallelism, only scheduler churn (BENCH_PR1 ran jobs=2 on a 1-core
   host and measured parallel diagnosis at 0.37x sequential).  [global
   ()] hands out one shared pool, created lazily with whatever the
   default resolves to at first use. *)

let forced : int option ref = ref None

let available () = Domain.recommended_domain_count ()

let clamp n = min (max 0 n) (available ())

let of_env () =
  match Sys.getenv_opt "GIST_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some (clamp n)
    | None -> None)
  | None -> None

let default () =
  match !forced with
  | Some n -> n
  | None -> (
    match of_env () with
    | Some n -> n
    | None -> max 0 (available () - 1))

let global_pool : Pool.t option ref = ref None
let lock = Mutex.create ()

let set_default n =
  let n = clamp n in
  Mutex.lock lock;
  forced := Some n;
  (* A pool created under an older default is stale: retire it. *)
  (match !global_pool with
   | Some p when Pool.jobs p <> Pool.effective ~jobs:n ->
     global_pool := None;
     Mutex.unlock lock;
     Pool.shutdown p
   | _ -> Mutex.unlock lock)

let global () =
  Mutex.lock lock;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
      let p = Pool.create ~jobs:(default ()) in
      global_pool := Some p;
      p
  in
  Mutex.unlock lock;
  p
