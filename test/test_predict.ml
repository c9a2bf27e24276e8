(* Failure-predictor extraction (Fig. 5 patterns) and F-measure
   statistics (paper §3.3). *)

module P = Predict.Predictor
module S = Predict.Stats
module W = Hw.Watchpoint

let trap seq tid iid addr rw value =
  W.
    {
      w_seq = seq;
      w_tid = tid;
      w_iid = iid;
      w_addr = addr;
      w_rw = rw;
      w_value = Exec.Value.VInt value;
    }

let rd = Exec.Interp.Read
let wr = Exec.Interp.Write

let patterns =
  [
    Alcotest.test_case "RWR atomicity violation detected (Fig 6b)" `Quick
      (fun () ->
        (* T1 reads x, T2 writes x, T1 reads x *)
        let traps =
          [ trap 1 1 10 5 rd 0; trap 2 2 20 5 wr 1; trap 3 1 11 5 rd 1 ]
        in
        let found = P.of_traps traps in
        Alcotest.(check bool) "RWR present" true
          (List.mem (P.Atomicity ("RWR", 10, 20, 11)) found));
    Alcotest.test_case "WR data race detected (Fig 6d)" `Quick (fun () ->
        let traps = [ trap 1 2 20 5 wr 1; trap 2 1 11 5 rd 1 ] in
        Alcotest.(check bool) "WR present" true
          (List.mem (P.Race ("WR", 20, 11)) (P.of_traps traps)));
    Alcotest.test_case "read-read is not a race" `Quick (fun () ->
        let traps = [ trap 1 1 10 5 rd 0; trap 2 2 20 5 rd 0 ] in
        Alcotest.(check (list string)) "nothing" []
          (List.map P.to_string (P.of_traps traps)));
    Alcotest.test_case "same-thread accesses yield no pattern" `Quick
      (fun () ->
        let traps = [ trap 1 1 10 5 rd 0; trap 2 1 11 5 wr 1 ] in
        Alcotest.(check int) "none" 0 (List.length (P.of_traps traps)));
    Alcotest.test_case "different addresses do not interleave" `Quick
      (fun () ->
        let traps = [ trap 1 1 10 5 wr 0; trap 2 2 20 6 rd 0 ] in
        Alcotest.(check int) "none" 0 (List.length (P.of_traps traps)));
    Alcotest.test_case "only Fig 5 triples are atomicity patterns" `Quick
      (fun () ->
        (* W R R: not in {RWR, WWR, RWW, WRW} *)
        let traps =
          [ trap 1 1 10 5 wr 0; trap 2 2 20 5 rd 0; trap 3 1 11 5 rd 0 ]
        in
        let atomicities =
          List.filter (function P.Atomicity _ -> true | _ -> false)
            (P.of_traps traps)
        in
        Alcotest.(check int) "no WRR" 0 (List.length atomicities));
    Alcotest.test_case "all four Fig 5 patterns are recognised" `Quick
      (fun () ->
        let mk p1 p2 p3 =
          [ trap 1 1 10 5 p1 0; trap 2 2 20 5 p2 0; trap 3 1 11 5 p3 0 ]
        in
        List.iter
          (fun (a, b, c, name) ->
            let found =
              List.filter (function P.Atomicity (n, _, _, _) -> n = name
                                  | _ -> false)
                (P.of_traps (mk a b c))
            in
            Alcotest.(check int) name 1 (List.length found))
          [ (rd, wr, rd, "RWR"); (wr, wr, rd, "WWR"); (rd, wr, wr, "RWW");
            (wr, rd, wr, "WRW") ]);
    Alcotest.test_case "branch predictors filtered to tracked statements"
      `Quick (fun () ->
        let found =
          P.of_branches ~tracked:[ 1; 2 ] [ (1, true); (3, false); (2, true) ]
        in
        Alcotest.(check int) "two kept" 2 (List.length found));
    Alcotest.test_case "data-value predictors carry the observed value"
      `Quick (fun () ->
        let found = P.of_values [ trap 1 1 10 5 rd 42 ] in
        Alcotest.(check bool) "value 42" true
          (List.mem (P.Data_value (10, "42")) found));
    Alcotest.test_case "of_run dedups predictors" `Quick (fun () ->
        let traps = [ trap 1 1 10 5 rd 1; trap 2 1 10 5 rd 1 ] in
        let found = P.of_run ~tracked:[] ~branch_outcomes:[] ~traps () in
        Alcotest.(check int) "one value predictor" 1 (List.length found));
  ]

let fmeasure =
  [
    Alcotest.test_case "known F_0.5 value" `Quick (fun () ->
        (* P=1, R=0.5, beta=0.5: F = 1.25 * 0.5 / (0.25 + 0.5) = 0.8333 *)
        Alcotest.(check (float 0.001)) "F" 0.8333
          (S.f_measure ~precision:1.0 ~recall:0.5));
    Alcotest.test_case "beta=0.5 favours precision over recall" `Quick
      (fun () ->
        let high_p = S.f_measure ~precision:0.9 ~recall:0.5 in
        let high_r = S.f_measure ~precision:0.5 ~recall:0.9 in
        Alcotest.(check bool) "precision wins" true (high_p > high_r));
    Alcotest.test_case "zero precision and recall give zero" `Quick (fun () ->
        Alcotest.(check (float 0.0001)) "F0" 0.0
          (S.f_measure ~precision:0.0 ~recall:0.0));
  ]

let p1 = P.Data_value (1, "null")
let p2 = P.Branch_taken (2, true)
let p3 = P.Race ("WR", 3, 4)

let obs preds failing = S.{ predictors = preds; failing }

let ranking =
  [
    Alcotest.test_case "perfect predictor ranks first" `Quick (fun () ->
        let observations =
          [
            obs [ p1; p2 ] true;
            obs [ p1 ] true;
            obs [ p2 ] false;
            obs [] false;
          ]
        in
        match S.rank observations with
        | best :: _ ->
          Alcotest.(check bool) "p1 first" true (P.equal best.S.predictor p1);
          Alcotest.(check (float 0.001)) "precision 1" 1.0 best.S.precision;
          Alcotest.(check (float 0.001)) "recall 1" 1.0 best.S.recall
        | [] -> Alcotest.fail "empty ranking");
    Alcotest.test_case "counts are per run, not per occurrence" `Quick
      (fun () ->
        let observations = [ obs [ p3 ] true; obs [ p3 ] false ] in
        match S.rank observations with
        | [ r ] ->
          Alcotest.(check int) "failing" 1 r.S.n_failing_with;
          Alcotest.(check int) "success" 1 r.S.n_success_with;
          Alcotest.(check (float 0.001)) "precision" 0.5 r.S.precision
        | _ -> Alcotest.fail "one predictor expected");
    Alcotest.test_case "best_per_kind keeps one of each category" `Quick
      (fun () ->
        let observations =
          [ obs [ p1; P.Data_value (9, "0"); p2; p3 ] true; obs [] false ]
        in
        let best = S.best_per_kind (S.rank observations) in
        let kinds =
          List.map (fun r -> P.kind_name r.S.predictor) best
          |> List.sort compare
        in
        Alcotest.(check (list string)) "kinds" [ "branch"; "race"; "value" ]
          kinds);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"precision/recall/F stay in [0,1]" ~count:200
         QCheck.(
           list_of_size (Gen.int_range 1 20)
             (pair (list_of_size (Gen.int_range 0 4) (int_bound 5)) bool))
         (fun raw ->
           let observations =
             List.map
               (fun (ids, failing) ->
                 obs (List.map (fun k -> P.Branch_taken (k, true)) ids) failing)
               raw
           in
           S.rank observations
           |> List.for_all (fun r ->
               r.S.precision >= 0.0 && r.S.precision <= 1.0
               && r.S.recall >= 0.0 && r.S.recall <= 1.0
               && r.S.f_measure >= 0.0 && r.S.f_measure <= 1.0)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ranking is sorted by F-measure" ~count:200
         QCheck.(
           list_of_size (Gen.int_range 1 20)
             (pair (list_of_size (Gen.int_range 0 4) (int_bound 5)) bool))
         (fun raw ->
           let observations =
             List.map
               (fun (ids, failing) ->
                 obs (List.map (fun k -> P.Branch_taken (k, true)) ids) failing)
               raw
           in
           let ranked = S.rank observations in
           let rec sorted = function
             | a :: (b :: _ as tl) -> a.S.f_measure >= b.S.f_measure && sorted tl
             | _ -> true
           in
           sorted ranked));
  ]

(* Streaming sufficient statistics: Acc folded in any order must rank
   bit-identically to the retained list. *)

let obs_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 30)
      (pair (list_of_size (Gen.int_range 0 5) (int_bound 6)) bool))

let obs_of_raw raw =
  List.map
    (fun (ids, failing) ->
      obs
        (List.map
           (fun k ->
             if k mod 2 = 0 then P.Branch_taken (k, true)
             else P.Data_value (k, "v"))
           ids)
        failing)
    raw

(* [l] cut at [cut] modulo its length + 1. *)
let split_at cut l =
  let k = cut mod (List.length l + 1) in
  (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

let acc_of observations =
  let a = S.Acc.create () in
  List.iter (S.Acc.add a) observations;
  a

let streaming =
  [
    Alcotest.test_case "Acc over no observations ranks empty" `Quick
      (fun () ->
        let acc = S.Acc.create () in
        Alcotest.(check int) "ranked" 0 (List.length (S.Acc.rank acc)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"Acc.rank is bit-identical to rank over the same runs"
         ~count:300 obs_gen
         (fun raw ->
           let observations = obs_of_raw raw in
           let acc = S.Acc.create () in
           List.iter (S.Acc.add acc) observations;
           S.Acc.rank acc = S.rank observations));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"folding a stream tail-first at any split ranks the same"
         ~count:300
         QCheck.(pair obs_gen (int_bound 30))
         (fun (raw, cut) ->
           let observations = obs_of_raw raw in
           let left, right = split_at cut observations in
           S.Acc.rank (acc_of (right @ left)) = S.rank observations));
  ]

(* Confidence bounds and the sequential stopping rule (PR 7). *)

let bounds =
  [
    Alcotest.test_case "z at delta 0.05 is the familiar 1.96" `Quick
      (fun () ->
        Alcotest.(check (float 0.001)) "z" 1.95996 (S.z_of_delta 0.05));
    Alcotest.test_case "wilson interval is vacuous with no trials" `Quick
      (fun () ->
        Alcotest.(check (pair (float 0.0) (float 0.0))) "(0,1)" (0.0, 1.0)
          (S.wilson_interval ~successes:0 ~trials:0 ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"wilson interval contains the observed rate, inside [0,1]"
         ~count:500
         QCheck.(pair (int_bound 50) (int_range 1 50))
         (fun (s, n) ->
           let s = min s n in
           let lo, hi = S.wilson_interval ~successes:s ~trials:n () in
           let p = float_of_int s /. float_of_int n in
           (* 1e-12 slack: at the boundary rates 0 and 1 the interval
              endpoint equals the rate only up to rounding. *)
           0.0 <= lo && lo <= p +. 1e-12 && p <= hi +. 1e-12 && hi <= 1.0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "more confirming reports never widen the interval (wilson and F)"
         ~count:500
         QCheck.(quad (int_bound 20) (int_bound 20) (int_range 1 20)
                   (int_range 2 6))
         (fun (f, s, extra_failing, k) ->
           (* Scale every count by k >= 2: the observed rates are
              unchanged, the evidence k-fold -- both bounds must
              tighten (or stay), never widen.  This is the property
              the early-exit checkpoints rely on: a separation
              verdict cannot be an artifact of having seen *more*
              data. *)
           let total = f + extra_failing in
           let w_lo, w_hi = S.wilson_interval ~successes:f ~trials:(f + s) () in
           let w_lo', w_hi' =
             S.wilson_interval ~successes:(k * f) ~trials:(k * (f + s)) ()
           in
           let f_lo, f_hi =
             S.f_interval ~n_failing_with:f ~n_success_with:s
               ~total_failing:total ()
           in
           let f_lo', f_hi' =
             S.f_interval ~n_failing_with:(k * f) ~n_success_with:(k * s)
               ~total_failing:(k * total) ()
           in
           (f + s = 0 || (w_lo' >= w_lo -. 1e-12 && w_hi' <= w_hi +. 1e-12))
           && f_lo' >= f_lo -. 1e-12
           && f_hi' <= f_hi +. 1e-12));
  ]

let repeat n x = List.init n (fun _ -> x)

let separation =
  [
    Alcotest.test_case "a dominant predictor separates" `Quick (fun () ->
        let acc =
          acc_of (repeat 6 (obs [ p1 ] true) @ repeat 6 (obs [ p2 ] false))
        in
        Alcotest.(check bool) "separated" true
          (S.Acc.separated acc = Some p1));
    Alcotest.test_case "co-occurring tie-class does not block" `Quick
      (fun () ->
        (* p1 and p2 held in exactly the same runs: the same evidence
           class, ordered by the deterministic tie-break. *)
        let acc =
          acc_of (repeat 6 (obs [ p1; p2 ] true) @ repeat 6 (obs [] false))
        in
        Alcotest.(check bool) "separated" true (S.Acc.separated acc <> None));
    Alcotest.test_case "coincidental tie (different runs) blocks" `Quick
      (fun () ->
        (* Equal counts over different runs: more evidence can still
           part them, so no early verdict. *)
        let acc =
          acc_of (repeat 3 (obs [ p1 ] true) @ repeat 3 (obs [ p2 ] true))
        in
        Alcotest.(check bool) "not separated" true
          (S.Acc.separated acc = None));
    Alcotest.test_case "a leader with no failing evidence never separates"
      `Quick (fun () ->
        let acc =
          acc_of (repeat 8 (obs [ p1 ] false) @ repeat 2 (obs [] true))
        in
        Alcotest.(check bool) "not separated" true
          (S.Acc.separated acc = None));
    Alcotest.test_case "below the failing-run floor nothing separates"
      `Quick (fun () ->
        let acc = acc_of [ obs [ p1 ] true ] in
        Alcotest.(check bool) "not separated" true
          (S.Acc.separated acc = None));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"separation verdict survives any chunk split of the stream"
         ~count:300
         QCheck.(pair obs_gen (int_bound 30))
         (fun (raw, cut) ->
           (* The checkpoint decision must be a pure function of the
              accumulated counts: folding the stream whole, or its
              tail before its head, yields the same verdict. *)
           let observations = obs_of_raw raw in
           let left, right = split_at cut observations in
           S.Acc.separated (acc_of (right @ left))
           = S.Acc.separated (acc_of observations)));
  ]

let () =
  Alcotest.run "predict"
    [
      ("patterns", patterns);
      ("f-measure", fmeasure);
      ("ranking", ranking);
      ("streaming", streaming);
      ("bounds", bounds);
      ("separation", separation);
    ]
