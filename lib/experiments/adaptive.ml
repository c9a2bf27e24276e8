(* PR 7 experiment: adaptive early-exit AsT vs the exhaustive
   reference.  Every Bugbase bug is diagnosed twice -- once with
   [Gist.Config.default] (the exhaustive oracle) and once with
   [Gist.Config.adaptive] (sequential stopping rule on) -- and the two
   runs are compared on clients dispatched, iterations and the
   identity of the top-ranked predictor.

   The budget the stopping rule saves is then reallocated to the
   *ambiguous* bugs (the ones whose adaptive run never converged): each
   gets an equal share of the saved dispatches as extra
   [max_clients_per_iter] headroom and is re-diagnosed, modelling a
   fleet whose total monitoring budget is fixed but steered toward the
   bugs that still need evidence. *)

type row = {
  r_bug : string;
  r_exh_dispatched : int;
  r_exh_iterations : int;
  r_ad_dispatched : int;
  r_ad_iterations : int;
  r_ad_early_iters : int;   (* iterations cut short at a checkpoint *)
  r_converged : bool;       (* adaptive run stopped by the rule *)
  r_top_identical : bool;   (* same top-ranked predictor in both modes *)
  r_top : string option;    (* the (shared) top predictor, printed *)
}

type realloc = {
  ra_bug : string;
  ra_extra : int;           (* extra per-iteration client headroom *)
  ra_dispatched : int;      (* dispatches in the boosted re-run *)
  ra_converged : bool;      (* did the boosted run converge? *)
}

type t = {
  rows : row list;
  total_exh : int;          (* exhaustive dispatches, all bugs *)
  total_ad : int;           (* adaptive dispatches, all bugs *)
  ratio : float;            (* total_exh / total_ad *)
  mean_ratio : float;       (* Bugbase mean of per-bug exh/ad ratios *)
  saved : int;              (* total_exh - total_ad *)
  reallocated : realloc list;
}

(* The fleet regime the comparison runs under.  Config.default's toy
   quotas (3 failing / 8 successful runs per iteration) gather so
   little evidence per iteration that the 95% intervals rarely
   separate before the iteration cap; a production fleet dispatches
   thousands of clients per refinement round.  Raising the quotas (and
   the per-iteration cap to match) gives the stopping rule the
   evidence stream it is designed for, and the wider watchpoint budget
   lets rotation groups cover discriminating values earlier, which is
   what keeps the two modes' top predictors identical at the moment
   the rule fires. *)
let fleet_base =
  {
    Gist.Config.default with
    fail_quota = 12;
    succ_quota = 64;
    max_clients_per_iter = 3000;
    wp_capacity = 8;
  }

let top_of (d : Gist.Server.diagnosis) =
  match d.sketch.Fsketch.Sketch.predictors with
  | [] -> None
  | r :: _ -> Some r.Predict.Stats.predictor

let early_iters (d : Gist.Server.diagnosis) =
  List.length
    (List.filter
       (fun (it : Gist.Server.iteration_info) -> it.it_early_exit <> None)
       d.trace)

(* Diagnose one bug in both modes on top of [base] (so fault-regime
   sweeps can reuse the comparison).  Neither mode gets the developer
   oracle: the stopping rule is precisely the stand-in for §3.2.1's
   developer, so the honest comparison is unattended production in
   both modes. *)
let compare_bug ?pool ~base (bug : Bugbase.Common.t) =
  let exh =
    Harness.diagnose_bug ~config:Gist.Config.{ base with early_exit = false }
      ?pool ~with_oracle:false bug
  in
  let ad =
    Harness.diagnose_bug ~config:Gist.Config.{ base with early_exit = true }
      ?pool ~with_oracle:false bug
  in
  match (exh, ad) with
  | Some e, Some a ->
    let te = top_of e.diagnosis and ta = top_of a.diagnosis in
    let identical =
      match (te, ta) with
      | None, None -> true
      | Some p, Some q -> Predict.Predictor.compare p q = 0
      | _ -> false
    in
    Some
      ( {
          r_bug = bug.name;
          r_exh_dispatched = e.diagnosis.fleet.f_dispatched;
          r_exh_iterations = e.diagnosis.iterations;
          r_ad_dispatched = a.diagnosis.fleet.f_dispatched;
          r_ad_iterations = a.diagnosis.iterations;
          r_ad_early_iters = early_iters a.diagnosis;
          r_converged = Gist.Server.converged a.diagnosis;
          r_top_identical = identical;
          r_top = Option.map Predict.Predictor.to_string ta;
        },
        (e, a) )
  | _ -> None

let run () =
  let base = fleet_base and bugs = Bugbase.Registry.all in
  let compared =
    List.filter_map Fun.id
      (Harness.map_bugs (fun b -> compare_bug ~base b) bugs)
  in
  let rows = List.map fst compared in
  let total_exh = List.fold_left (fun s r -> s + r.r_exh_dispatched) 0 rows in
  let total_ad = List.fold_left (fun s r -> s + r.r_ad_dispatched) 0 rows in
  let saved = total_exh - total_ad in
  (* Reallocation: split the saved dispatches evenly across the
     ambiguous bugs as extra per-iteration headroom (spread over the
     iteration cap so one iteration cannot eat the whole grant). *)
  let ambiguous =
    List.filter (fun r -> not r.r_converged) rows
    |> List.map (fun r -> r.r_bug)
  in
  let reallocated =
    match ambiguous with
    | [] -> []
    | _ when saved <= 0 -> []
    | _ ->
      let per_bug = saved / List.length ambiguous in
      let extra = per_bug / base.Gist.Config.max_iterations in
      if extra <= 0 then []
      else
        List.filter_map Fun.id
          (Harness.map_bugs
             (fun name ->
               match
                 List.find_opt
                   (fun (b : Bugbase.Common.t) -> b.name = name)
                   bugs
               with
               | None -> None
               | Some bug ->
                 let config =
                   Gist.Config.
                     {
                       base with
                       early_exit = true;
                       max_clients_per_iter =
                         base.max_clients_per_iter + extra;
                     }
                 in
                 Option.map
                   (fun (res : Harness.bug_result) ->
                     {
                       ra_bug = name;
                       ra_extra = extra;
                       ra_dispatched = res.diagnosis.fleet.f_dispatched;
                       ra_converged = Gist.Server.converged res.diagnosis;
                     })
                   (Harness.diagnose_bug ~config ~with_oracle:false bug))
             ambiguous)
  in
  {
    rows;
    total_exh;
    total_ad;
    ratio =
      (if total_ad = 0 then 0.0
       else float_of_int total_exh /. float_of_int total_ad);
    (* The headline savings metric: the mean over bugs of each bug's
       own exhaustive/adaptive ratio.  The ratio of totals understates
       the rule's effect because a couple of rare-failure bugs
       dominate the totals while staying ambiguous in both modes. *)
    mean_ratio =
      Harness.mean
        (List.map
           (fun r ->
             if r.r_ad_dispatched = 0 then 1.0
             else
               float_of_int r.r_exh_dispatched
               /. float_of_int r.r_ad_dispatched)
           rows);
    saved;
    reallocated;
  }

let print () =
  let t = run () in
  Printf.printf
    "Adaptive early-exit AsT vs exhaustive (clients dispatched)\n\n";
  Printf.printf "%-14s %10s %10s %6s %6s %5s %5s  %s\n" "bug" "exhaustive"
    "adaptive" "it(ex)" "it(ad)" "early" "top=" "top predictor";
  List.iter
    (fun r ->
      Printf.printf "%-14s %10d %10d %6d %6d %5d %5s  %s\n" r.r_bug
        r.r_exh_dispatched r.r_ad_dispatched r.r_exh_iterations
        r.r_ad_iterations r.r_ad_early_iters
        (if r.r_top_identical then "yes" else "NO")
        (Option.value ~default:"-" r.r_top))
    t.rows;
  Printf.printf "\ntotal: exhaustive %d, adaptive %d  (%.2fx fewer, %d saved)\n"
    t.total_exh t.total_ad t.ratio t.saved;
  Printf.printf "mean per-bug ratio: %.2fx fewer online reports\n" t.mean_ratio;
  (match List.filter (fun r -> not r.r_top_identical) t.rows with
   | [] -> Printf.printf "top predictor identical on every bug\n"
   | l ->
     Printf.printf "top predictor DIVERGED on %d bug(s): %s\n" (List.length l)
       (String.concat ", " (List.map (fun r -> r.r_bug) l)));
  match t.reallocated with
  | [] -> Printf.printf "no ambiguous bugs: nothing to reallocate\n"
  | l ->
    Printf.printf
      "\nreallocated %d saved dispatches to %d ambiguous bug(s):\n" t.saved
      (List.length l);
    List.iter
      (fun ra ->
        Printf.printf "  %-14s +%d/iter -> %d dispatched, %s\n" ra.ra_bug
          ra.ra_extra ra.ra_dispatched
          (if ra.ra_converged then "converged" else "still ambiguous"))
      l
