(* The host record every result carries: what the hardware offers,
   what was requested, and what actually ran — so no result can show a
   requested job count without the parallelism that applied. *)

let read_first_line path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try Some (input_line ic) with End_of_file -> None)
  | exception Sys_error _ -> None

(* The 1/5/15-minute load averages, or "n/a" where the kernel does not
   expose them. *)
let loadavg () =
  match read_first_line "/proc/loadavg" with
  | Some l -> (
    match String.split_on_char ' ' l with
    | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
    | _ -> "n/a")
  | None -> "n/a"

(* Online CPUs from the kernel's range list ("0-3,6"), falling back to
   what the OCaml runtime recommends. *)
let nproc () =
  let count l =
    List.fold_left
      (fun n r ->
        match String.split_on_char '-' (String.trim r) with
        | [ a ] when a <> "" -> n + 1
        | [ a; b ] -> n + (int_of_string b - int_of_string a + 1)
        | _ -> n)
      0
      (String.split_on_char ',' l)
  in
  match read_first_line "/sys/devices/system/cpu/online" with
  | Some l -> ( try count l with Failure _ -> Parallel.Jobs.available ())
  | None -> Parallel.Jobs.available ()

(* Milliseconds for a fixed integer loop: the host's speed at that
   moment.  A shared host's speed drifts by a fifth over tens of
   seconds; the figures at start and end say how much a run saw. *)
let calibrate () =
  let t0 = Stat.now () in
  let x = ref 0 in
  for i = 1 to 20_000_000 do
    x := !x + (i land 7)
  done;
  ignore (Sys.opaque_identity !x);
  (Stat.now () -. t0) *. 1e3

type t = {
  nproc : int;
  available : int;       (** [Parallel.Jobs.available ()] *)
  requested_jobs : int;  (** [Parallel.Jobs.default ()] *)
  workers : int;         (** [Pool.effective] worker domains spawned *)
  ocaml : string;
  load_start : string;
  mutable load_end : string;
  calib_start_ms : float;
  mutable calib_end_ms : float;
}

let start () =
  let requested_jobs = Parallel.Jobs.default () in
  {
    nproc = nproc ();
    available = Parallel.Jobs.available ();
    requested_jobs;
    workers = Parallel.Pool.effective ~jobs:requested_jobs;
    ocaml = Sys.ocaml_version;
    load_start = loadavg ();
    load_end = "n/a";
    calib_start_ms = calibrate ();
    calib_end_ms = 0.0;
  }

let finish h =
  h.load_end <- loadavg ();
  h.calib_end_ms <- calibrate ()

let to_string h =
  Printf.sprintf
    "nproc %d, Jobs.available %d, requested jobs %d, %d worker domain(s) + \
     the helping caller, OCaml %s, load %s at start, %s at end, \
     calibration loop %.1f ms at start, %.1f ms at end"
    h.nproc h.available h.requested_jobs h.workers h.ocaml h.load_start
    h.load_end h.calib_start_ms h.calib_end_ms

let to_json h =
  Printf.sprintf
    "{\"nproc\": %d, \"jobs_available\": %d, \"jobs_requested\": %d, \
     \"pool_workers\": %d, \"domains_running\": %d, \"ocaml\": %S, \
     \"loadavg_start\": %S, \"loadavg_end\": %S, \"calib_start_ms\": %.3f, \
     \"calib_end_ms\": %.3f}"
    h.nproc h.available h.requested_jobs h.workers (h.workers + 1) h.ocaml
    h.load_start h.load_end h.calib_start_ms h.calib_end_ms
