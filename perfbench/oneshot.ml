(* Workload [oneshot]: a closed loop with one caller diagnosing one
   failure at a time through [Gist.Server.diagnose] on the default
   pool — zero faults, adaptive early exit on.  Inputs: the Bugbase
   plus [fuzz_bugs] seeded fuzz bugs, all in the production fleet
   regime; the runner repeats the loop at least five times, so a run
   makes at least 250 diagnoses.  The fuzz bugs are distinct programs, so
   slicing, placement and lowering run cold per bug; the analysis cache
   is also cleared before every repetition.

   Sizing: a fifth of each repetition is Bugbase, so the p90 time to
   diagnosis falls inside the Bugbase bugs and the median inside the
   fuzz bugs — never on the seam between the two populations, where
   it would jump with the seed. *)

open Common

let fuzz_bugs = 39

(* The fleet quotas of [Experiments.Adaptive.fleet_base] (the
   production regime of the adaptive early-exit experiment) over a
   spec's own configuration, early exit on.
   Fuzz bugs in the campaign's toy quotas finish in about a
   millisecond, below the noise of a shared host. *)
let fleet_regime (c : Gist.Config.t) =
  let f = Experiments.Adaptive.fleet_base in
  {
    c with
    Gist.Config.fail_quota = f.fail_quota;
    succ_quota = f.succ_quota;
    max_clients_per_iter = f.max_clients_per_iter;
    wp_capacity = f.wp_capacity;
    early_exit = true;
  }

let specs ~seed =
  let bugbase =
    List.filter_map
      (fun (b : Bugbase.Common.t) ->
        Serve.Stream.bugbase_spec ~tweak:fleet_regime ~name:b.name b)
      Bugbase.Registry.all
  in
  (* A generated case the probe finds undiagnosable yields no spec:
     draw more until [fuzz_bugs] remain. *)
  let rec fuzz count =
    let l =
      List.filter_map
        (fun (c : Fuzz.Gen.case) ->
          let sp = Serve.Stream.fuzz_spec ~tweak:fleet_regime ~name:c.Fuzz.Gen.c_name c in
          setup_mark ();
          sp)
        (Fuzz.Runner.cases ~seed ~count ())
    in
    if List.length l >= fuzz_bugs then List.filteri (fun i _ -> i < fuzz_bugs) l
    else fuzz (count + fuzz_bugs)
  in
  shuffle (Exec.Rng.create seed) (bugbase @ fuzz fuzz_bugs)

let untraced ~pool ~reference specs () =
  measure (fun () ->
      let a = acc () in
      let t0 = Stat.now () in
      (* A closed loop: each diagnosis waits only for its own call.
         Every bug of a repetition is reported once: all are fresh. *)
      let done_ =
        List.map
          (fun (sp : Svc.spec) ->
            a.answered_at <- (a.n_ops, a.n_ops, true) :: a.answered_at;
            (sp, op a (fun () -> one_shot ~pool sp)))
          specs
      in
      let wall = Stat.now () -. t0 in
      List.iter
        (fun ((sp : Svc.spec), d) ->
          a.attempted <- a.attempted + 1;
          book a ~reference ~base:sp.sp_name ~name:sp.sp_name d)
        done_;
      (t0, wall, a, 0.0, [], []))

let prepare ~seed ~pool =
  let specs = specs ~seed in
  let reference = Hashtbl.create 128 in
  {
    reference = (fun () -> reference_pass reference specs);
    rep = untraced ~pool ~reference specs;
    traced_rep = traced_one_shots ~pool ~reference specs;
    aux = None;
    probe_specs = specs;
  }
