(* The fuzz campaign driver: generate labelled cases round-robin over
   the pattern taxonomy, check each end-to-end, shrink whatever fails,
   and aggregate per-pattern root-cause accuracy.

   Determinism: all scenario seeds are pre-drawn from the campaign rng
   before any case runs, every case is a pure function of its seeds,
   and [Parallel.Pool.map] delivers results in submission order — so
   the report is bit-identical whatever [--jobs] is. *)

type case_report = {
  cr_name : string;
  cr_pattern : Gen.pattern;
  cr_seed : int;
  cr_verdict : Check.verdict;
  cr_top : string option;
  cr_iterations : int;
  cr_total_runs : int;
  cr_shrink : Shrink.result option; (* present for shrunk failures *)
  cr_fleet : Gist.Server.fleet_stats option; (* present when diagnose ran *)
}

type pattern_stats = {
  ps_pattern : Gen.pattern;
  ps_total : int;
  ps_correct : int;
}

let ps_accuracy ps =
  if ps.ps_total = 0 then 1.0
  else float_of_int ps.ps_correct /. float_of_int ps.ps_total

type report = {
  r_seed : int;
  r_count : int;
  r_cases : case_report list;
  r_stats : pattern_stats list; (* [Gen.all_patterns] order, non-empty only *)
  r_faults : (Faults.Fault.rates * int) option; (* campaign fault environment *)
}

let failures r =
  List.filter (fun cr -> cr.cr_verdict <> Check.Correct) r.r_cases

let overall_accuracy r =
  if r.r_cases = [] then 1.0
  else
    float_of_int (List.length r.r_cases - List.length (failures r))
    /. float_of_int (List.length r.r_cases)

(* The acceptance gate: the *worst* pattern must clear the bar, not
   just the average (an always-wrong pattern must not hide behind
   eight perfect ones). *)
let min_pattern_accuracy r =
  List.fold_left (fun acc ps -> min acc (ps_accuracy ps)) 1.0 r.r_stats

(* ------------------------------------------------------------------ *)

let stats_of cases =
  List.filter_map
    (fun p ->
      let of_p = List.filter (fun cr -> cr.cr_pattern = p) cases in
      if of_p = [] then None
      else
        Some
          {
            ps_pattern = p;
            ps_total = List.length of_p;
            ps_correct =
              List.length
                (List.filter (fun cr -> cr.cr_verdict = Check.Correct) of_p);
          })
    Gen.all_patterns

let case_report ?shrink (case : Gen.case) (o : Check.outcome) =
  {
    cr_name = case.Gen.c_name;
    cr_pattern = case.Gen.c_pattern;
    cr_seed = case.Gen.c_seed;
    cr_verdict = o.Check.verdict;
    cr_top = o.Check.top;
    cr_iterations = o.Check.iterations;
    cr_total_runs = o.Check.total_runs;
    cr_shrink = shrink;
    cr_fleet = o.Check.fleet;
  }

(* Not every (pattern, seed) is diagnosable: padding can make a
   schedule-dependent kernel fail too rarely (or too often) inside the
   probe window.  Each slot pre-draws [retries] candidate seeds and
   uses the first viable one; the last is kept regardless, so an
   unviable slot surfaces as a [No_failure] verdict instead of
   vanishing. *)
let case_for ~retries_seeds pattern =
  let rec pick = function
    | [] -> assert false
    | [ s ] -> Gen.generate pattern s
    | s :: tl ->
      let case = Gen.generate pattern s in
      if Check.viable (Check.probe case) then case else pick tl
  in
  pick retries_seeds

let run_case ~shrink ~faults ~early_exit i seeds =
  let n_pat = List.length Gen.all_patterns in
  let pattern = List.nth Gen.all_patterns (i mod n_pat) in
  let case = case_for ~retries_seeds:seeds pattern in
  (* Stamp the fault environment onto the case itself: [Check.check]
     reads it from there, and the shrinker then reproduces verdicts
     under the same faults automatically. *)
  let case =
    match faults with None -> case | Some _ -> { case with Gen.c_faults = faults }
  in
  let o = Check.check ~early_exit case in
  let shrunk =
    if
      shrink
      && o.Check.verdict <> Check.Correct
      && Option.is_some case.Gen.c_scenario
    then Some (Shrink.run case o.Check.verdict)
    else None
  in
  case_report ?shrink:shrunk case o

let retries = 5

let draw_slots ~seed ~count =
  let rng = Exec.Rng.create seed in
  let slots = Array.make (max count 0) [] in
  for i = 0 to count - 1 do
    let l = ref [] in
    for _ = 1 to retries do
      l := Exec.Rng.int rng 0x3FFFFFFF :: !l
    done;
    slots.(i) <- List.rev !l
  done;
  slots

(* The exact case list a campaign with the same (seed, count) checks:
   exposed so differential harnesses (adaptive early-exit vs the
   exhaustive oracle) can compare modes on the campaign's cases. *)
let cases ~seed ~count () =
  let slots = draw_slots ~seed ~count in
  let n_pat = List.length Gen.all_patterns in
  List.init (max count 0) (fun i ->
      case_for ~retries_seeds:slots.(i)
        (List.nth Gen.all_patterns (i mod n_pat)))

let run ?(jobs = 0) ?(shrink = true) ?faults ?(early_exit = false) ~seed
    ~count () =
  let slots = draw_slots ~seed ~count in
  let cases =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Array.to_list
          (Parallel.Pool.map_array pool
             (fun i -> run_case ~shrink ~faults ~early_exit i slots.(i))
             (Array.init (max count 0) (fun i -> i))))
  in
  {
    r_seed = seed;
    r_count = count;
    r_cases = cases;
    r_stats = stats_of cases;
    r_faults = faults;
  }

(* Fleet-protocol totals across every case that reached diagnosis. *)
let fleet_totals r =
  let merge xs ys =
    List.fold_left
      (fun acc (k, v) ->
        let cur = Option.value ~default:0 (List.assoc_opt k acc) in
        (k, cur + v) :: List.remove_assoc k acc)
      xs ys
    |> List.sort compare
  in
  List.fold_left
    (fun (acc : Gist.Server.fleet_stats) cr ->
      match cr.cr_fleet with
      | None -> acc
      | Some (f : Gist.Server.fleet_stats) ->
        {
          Gist.Server.f_dispatched = acc.f_dispatched + f.f_dispatched;
          f_delivered = acc.f_delivered + f.f_delivered;
          f_valid = acc.f_valid + f.f_valid;
          f_lost = acc.f_lost + f.f_lost;
          f_rejected = acc.f_rejected + f.f_rejected;
          f_retried = acc.f_retried + f.f_retried;
          f_quarantined = acc.f_quarantined + f.f_quarantined;
          f_degraded_iters = acc.f_degraded_iters + f.f_degraded_iters;
          f_by_kind = merge acc.f_by_kind f.f_by_kind;
          f_by_reason = merge acc.f_by_reason f.f_by_reason;
        })
    {
      Gist.Server.f_dispatched = 0;
      f_delivered = 0;
      f_valid = 0;
      f_lost = 0;
      f_rejected = 0;
      f_retried = 0;
      f_quarantined = 0;
      f_degraded_iters = 0;
      f_by_kind = [];
      f_by_reason = [];
    }
    r.r_cases

(* ------------------------------------------------------------------ *)
(* Reporting. *)

let to_json r =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"seed\": %d,\n" r.r_seed;
  p "  \"count\": %d,\n" r.r_count;
  p "  \"accuracy\": %.4f,\n" (overall_accuracy r);
  p "  \"min_pattern_accuracy\": %.4f,\n" (min_pattern_accuracy r);
  p "  \"total_runs\": %d,\n"
    (List.fold_left (fun a cr -> a + cr.cr_total_runs) 0 r.r_cases);
  (match r.r_faults with
   | None -> ()
   | Some (rates, fseed) ->
     let f = fleet_totals r in
     let assoc l =
       String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) l)
     in
     p "  \"faults\": {\n";
     p "    \"aggregate_rate\": %.4f,\n" (Faults.Fault.aggregate rates);
     p "    \"seed\": %d,\n" fseed;
     p "    \"dispatched\": %d, \"delivered\": %d, \"valid\": %d,\n"
       f.Gist.Server.f_dispatched f.Gist.Server.f_delivered
       f.Gist.Server.f_valid;
     p "    \"lost\": %d, \"rejected\": %d, \"retried\": %d, \
        \"quarantined\": %d,\n"
       f.Gist.Server.f_lost f.Gist.Server.f_rejected f.Gist.Server.f_retried
       f.Gist.Server.f_quarantined;
     p "    \"degraded_iterations\": %d,\n" f.Gist.Server.f_degraded_iters;
     p "    \"by_kind\": {%s},\n" (assoc f.Gist.Server.f_by_kind);
     p "    \"by_reason\": {%s}\n" (assoc f.Gist.Server.f_by_reason);
     p "  },\n");
  p "  \"patterns\": [\n";
  List.iteri
    (fun i ps ->
      p "    {\"pattern\": \"%s\", \"total\": %d, \"correct\": %d, \
         \"accuracy\": %.4f}%s\n"
        (Gen.pattern_name ps.ps_pattern)
        ps.ps_total ps.ps_correct (ps_accuracy ps)
        (if i = List.length r.r_stats - 1 then "" else ","))
    r.r_stats;
  p "  ],\n";
  let fails = failures r in
  p "  \"failures\": [\n";
  List.iteri
    (fun i cr ->
      let shrunk =
        match cr.cr_shrink with
        | Some s ->
          Printf.sprintf ", \"shrunk_instrs\": %d, \"shrink_rounds\": %d"
            s.Shrink.size_after s.Shrink.rounds
        | None -> ""
      in
      p "    {\"name\": \"%s\", \"pattern\": \"%s\", \"seed\": %d, \
         \"verdict\": \"%s\", \"detail\": \"%s\"%s}%s\n"
        (Fsketch.Export.escape cr.cr_name)
        (Gen.pattern_name cr.cr_pattern)
        cr.cr_seed
        (Check.verdict_name cr.cr_verdict)
        (Fsketch.Export.escape (Check.verdict_to_string cr.cr_verdict))
        shrunk
        (if i = List.length fails - 1 then "" else ","))
    fails;
  p "  ]\n";
  p "}\n";
  Buffer.contents buf

let pp ppf r =
  let fails = failures r in
  Fmt.pf ppf "fuzz seed=%d count=%d: accuracy %.3f (%d/%d correct)@."
    r.r_seed r.r_count (overall_accuracy r)
    (List.length r.r_cases - List.length fails)
    (List.length r.r_cases);
  (match r.r_faults with
   | None -> ()
   | Some (rates, fseed) ->
     let f = fleet_totals r in
     Fmt.pf ppf
       "  faults: aggregate %.1f%% (seed %d) -- %d dispatched, %d lost, %d \
        rejected, %d retried, %d quarantined, %d degraded iteration(s)@."
       (100.0 *. Faults.Fault.aggregate rates)
       fseed f.Gist.Server.f_dispatched f.Gist.Server.f_lost
       f.Gist.Server.f_rejected f.Gist.Server.f_retried
       f.Gist.Server.f_quarantined f.Gist.Server.f_degraded_iters;
     if f.Gist.Server.f_by_reason <> [] then
       Fmt.pf ppf "  rejections: %a@."
         Fmt.(
           list ~sep:(any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v))
         f.Gist.Server.f_by_reason);
  List.iter
    (fun ps ->
      Fmt.pf ppf "  %-6s %3d/%-3d %.3f@."
        (Gen.pattern_name ps.ps_pattern)
        ps.ps_correct ps.ps_total (ps_accuracy ps))
    r.r_stats;
  if fails = [] then Fmt.pf ppf "  no failures@."
  else
    List.iter
      (fun cr ->
        Fmt.pf ppf "  FAIL %s (seed %d): %s%s@." cr.cr_name cr.cr_seed
          (Check.verdict_to_string cr.cr_verdict)
          (match cr.cr_shrink with
           | Some s ->
             Printf.sprintf " [shrunk %d -> %d instrs in %d rounds]"
               s.Shrink.size_before s.Shrink.size_after s.Shrink.rounds
           | None -> ""))
      fails
