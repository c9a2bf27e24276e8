(* Statistical ranking of failure predictors (paper §3.3).

   precision P = |failing runs where the predictor held| /
                 |runs where the predictor held|
   recall    R = |failing runs where the predictor held| / |failing runs|

   Predictors are ranked by F_beta, the weighted harmonic mean of P and
   R; Gist sets beta = 0.5, favouring precision, "because its primary
   aim is to not confuse developers with potentially erroneous failure
   predictors". *)

type observation = { predictors : Predictor.t list; failing : bool }

type ranked = {
  predictor : Predictor.t;
  precision : float;
  recall : float;
  f_measure : float;
  n_failing_with : int;
  n_success_with : int;
}

let beta = 0.5

let f_measure ~precision ~recall =
  let b2 = beta *. beta in
  let num = (1.0 +. b2) *. precision *. recall in
  let den = (b2 *. precision) +. recall in
  if den = 0.0 then 0.0 else num /. den

let rank (observations : observation list) =
  let total_failing =
    List.length (List.filter (fun o -> o.failing) observations)
  in
  let counts : (Predictor.t, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun o ->
      (* A predictor either held in a run or did not: dedup defensively
         so callers cannot inflate counts past the run count. *)
      List.iter
        (fun p ->
          let f, s = Option.value ~default:(0, 0) (Hashtbl.find_opt counts p) in
          let cell = if o.failing then (f + 1, s) else (f, s + 1) in
          Hashtbl.replace counts p cell)
        (List.sort_uniq Predictor.compare o.predictors))
    observations;
  Hashtbl.fold
    (fun predictor (f, s) acc ->
      let precision =
        if f + s = 0 then 0.0 else float_of_int f /. float_of_int (f + s)
      in
      let recall =
        if total_failing = 0 then 0.0
        else float_of_int f /. float_of_int total_failing
      in
      {
        predictor;
        precision;
        recall;
        f_measure = f_measure ~precision ~recall;
        n_failing_with = f;
        n_success_with = s;
      }
      :: acc)
    counts []
  |> List.sort (fun a b ->
      match compare b.f_measure a.f_measure with
      | 0 -> Predictor.compare a.predictor b.predictor (* deterministic ties *)
      | c -> c)

(* ------------------------------------------------------------------ *)
(* Confidence bounds on F_beta (PR 7: the adaptive early-exit stopping
   rule).

   Precision and recall are both binomial proportions: precision over
   the runs where the predictor held (f successes in f + s trials),
   recall over the failing runs (f successes in total_failing trials).
   Each gets a Wilson score interval at error rate [delta]; F_beta is
   monotone increasing in both precision and recall (dF/dp and dF/dr
   are non-negative everywhere on [0,1]^2), so
   [F(p_lo, r_lo), F(p_hi, r_hi)] is a conservative interval on F_beta
   itself.

   Monotonicity: the Wilson half-width at a fixed observed rate
   strictly shrinks as trials grow, so gathering more reports that
   confirm the observed rates never widens the interval -- the
   property the early-exit checkpoints rely on (qcheck-tested in
   test_predict.ml). *)

let delta_default = 0.05

(* Inverse standard-normal CDF (Acklam's rational approximation,
   ~1.15e-9 relative error): the z with Phi(z) = p.  Self-contained so
   the bound needs no numerics dependency. *)
let norm_ppf p =
  if p <= 0.0 then neg_infinity
  else if p >= 1.0 then infinity
  else begin
    let a0 = -3.969683028665376e+01 and a1 = 2.209460984245205e+02 in
    let a2 = -2.759285104469687e+02 and a3 = 1.383577518672690e+02 in
    let a4 = -3.066479806614716e+01 and a5 = 2.506628277459239e+00 in
    let b0 = -5.447609879822406e+01 and b1 = 1.615858368580409e+02 in
    let b2 = -1.556989798598866e+02 and b3 = 6.680131188771972e+01 in
    let b4 = -1.328068155288572e+01 in
    let c0 = -7.784894002430293e-03 and c1 = -3.223964580411365e-01 in
    let c2 = -2.400758277161838e+00 and c3 = -2.549732539343734e+00 in
    let c4 = 4.374664141464968e+00 and c5 = 2.938163982698783e+00 in
    let d0 = 7.784695709041462e-03 and d1 = 3.224671290700398e-01 in
    let d2 = 2.445134137142996e+00 and d3 = 3.754408661907416e+00 in
    let p_low = 0.02425 in
    let tail q =
      (((((c0 *. q +. c1) *. q +. c2) *. q +. c3) *. q +. c4) *. q +. c5)
      /. ((((d0 *. q +. d1) *. q +. d2) *. q +. d3) *. q +. 1.0)
    in
    if p < p_low then tail (sqrt (-2.0 *. log p))
    else if p <= 1.0 -. p_low then
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a0 *. r +. a1) *. r +. a2) *. r +. a3) *. r +. a4) *. r +. a5)
      *. q
      /. (((((b0 *. r +. b1) *. r +. b2) *. r +. b3) *. r +. b4) *. r +. 1.0)
    else -.tail (sqrt (-2.0 *. log (1.0 -. p)))
  end

let z_of_delta delta = norm_ppf (1.0 -. (delta /. 2.0))

let wilson_interval ?(delta = delta_default) ~successes ~trials () =
  if trials <= 0 then (0.0, 1.0)
  else begin
    let z = z_of_delta delta in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = p +. (z2 /. (2.0 *. n)) in
    let spread =
      z *. sqrt (((p *. (1.0 -. p)) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    ( max 0.0 ((centre -. spread) /. denom),
      min 1.0 ((centre +. spread) /. denom) )
  end

let f_interval ?(delta = delta_default) ~n_failing_with ~n_success_with
    ~total_failing () =
  let p_lo, p_hi =
    wilson_interval ~delta ~successes:n_failing_with
      ~trials:(n_failing_with + n_success_with) ()
  in
  let r_lo, r_hi =
    wilson_interval ~delta ~successes:n_failing_with ~trials:total_failing ()
  in
  ( f_measure ~precision:p_lo ~recall:r_lo,
    f_measure ~precision:p_hi ~recall:r_hi )

(* ------------------------------------------------------------------ *)
(* Acc: per-predictor sufficient statistics.

   [rank] needs only (failing-with, success-with) per predictor plus
   the failing-run total -- counters, not observations.  The streaming
   server folds each accepted report into an accumulator the moment
   validation passes and retains nothing else, so ranking state is
   O(predictors in the slice), not O(fleet).

   Equivalence with [rank] is exact, not approximate: the counts are
   commutative integer sums, precision/recall derive from identical
   integers, and the final sort key (f_measure desc, then
   [Predictor.compare]) is a total order over distinct predictors --
   so [Acc.rank] is bit-identical to [rank] over the same
   observations, in any accumulation order.  The retained
   path stays in the tree as the reference oracle, differential-tested
   against this one. *)

module Acc = struct
  (* Per-predictor cell: the two counters [rank] needs, plus a
     commutative co-occurrence fingerprint for [separated]'s
     tie-class test.  [cooc] is the wrapping sum, over the runs where
     the predictor held, of an order-independent hash of each run's
     full observation — so two predictors accumulate equal [cooc]
     values iff (w.h.p.) they held in exactly the same multiset of
     runs.  A sum of per-run hashes commutes, so the fingerprint is
     identical under any accumulation order, like the counters
     themselves. *)
  type cell = { c_fail : int; c_succ : int; c_cooc : int }

  let cell0 = { c_fail = 0; c_succ = 0; c_cooc = 0 }

  type t = {
    counts : (Predictor.t, cell) Hashtbl.t;
    mutable total_failing : int;
    mutable n_obs : int;
  }

  let create () = { counts = Hashtbl.create 64; total_failing = 0; n_obs = 0 }

  (* A predictor's hash over its explicit fields: a tag per
     constructor, iids and the branch bit through [mix], strings
     through [Codec.digest].  Allocates nothing. *)
  let predictor_hash (p : Predictor.t) =
    let mix = Exec.Rng.mix and str s = Hw.Codec.digest ~key:[] s in
    match p with
    | Branch_taken (iid, taken) -> mix (mix 1 iid) (Bool.to_int taken)
    | Data_value (iid, v) -> mix (mix 2 iid) (str v)
    | Value_range (iid, pred) -> mix (mix 3 iid) (str pred)
    | Race (pat, a, b) -> mix (mix (mix 4 (str pat)) a) b
    | Atomicity (pat, a, b, c) -> mix (mix (mix (mix 5 (str pat)) a) b) c

  (* Order-independent run fingerprint: the sum of the predictors'
     hashes, with the outcome bit folded in. *)
  let obs_fingerprint ~failing preds =
    List.fold_left
      (fun acc p -> acc + predictor_hash p)
      (if failing then 0x2545F4914F6CDD1 else 1)
      preds

  let add t { predictors; failing } =
    t.n_obs <- t.n_obs + 1;
    if failing then t.total_failing <- t.total_failing + 1;
    (* Same defensive dedup as [rank]: a predictor either held in a
       run or did not. *)
    let preds = List.sort_uniq Predictor.compare predictors in
    let key = obs_fingerprint ~failing preds in
    List.iter
      (fun p ->
        let c = Option.value ~default:cell0 (Hashtbl.find_opt t.counts p) in
        let c =
          if failing then
            { c with c_fail = c.c_fail + 1; c_cooc = c.c_cooc + key }
          else { c with c_succ = c.c_succ + 1; c_cooc = c.c_cooc + key }
        in
        Hashtbl.replace t.counts p c)
      preds

  let rank t =
    Hashtbl.fold
      (fun predictor { c_fail = f; c_succ = s; _ } acc ->
        let precision =
          if f + s = 0 then 0.0 else float_of_int f /. float_of_int (f + s)
        in
        let recall =
          if t.total_failing = 0 then 0.0
          else float_of_int f /. float_of_int t.total_failing
        in
        {
          predictor;
          precision;
          recall;
          f_measure = f_measure ~precision ~recall;
          n_failing_with = f;
          n_success_with = s;
        }
        :: acc)
      t.counts []
    |> List.sort (fun a b ->
        match compare b.f_measure a.f_measure with
        | 0 -> Predictor.compare a.predictor b.predictor
        | c -> c)

  (* Snapshot codec support: the accumulator as a deterministic value.
     Cells come out sorted by [Predictor.compare], so the same counts
     always serialize to the same bytes whatever the hashtable's
     internal order; [import] rebuilds an accumulator that is
     indistinguishable from the original (every query is a pure
     function of the counts). *)
  let export t =
    let cells =
      Hashtbl.fold (fun p c acc -> (p, (c.c_fail, c.c_succ, c.c_cooc)) :: acc)
        t.counts []
      |> List.sort (fun (p, _) (q, _) -> Predictor.compare p q)
    in
    (cells, t.total_failing, t.n_obs)

  let import ~cells ~total_failing ~n_obs =
    let t = create () in
    List.iter
      (fun (p, (c_fail, c_succ, c_cooc)) ->
        Hashtbl.replace t.counts p { c_fail; c_succ; c_cooc })
      cells;
    t.total_failing <- total_failing;
    t.n_obs <- n_obs;
    t

  (* Evidence floors for [separated]: below these the intervals are
     near-vacuous anyway, but the explicit floor keeps the very first
     reports of a diagnosis from "separating" a lone predictor before
     watchpoint rotation has had a chance to surface competitors. *)
  let min_failing_for_separation = 2
  let min_trials_for_separation = 3

  let separated ?(delta = delta_default) t =
    if t.total_failing < min_failing_for_separation then None
    else
      match rank t with
      | [] -> None
      | best :: rest ->
        if
          best.n_failing_with + best.n_success_with
            < min_trials_for_separation
          (* The leader itself must carry failing evidence: with no
             rivals (or only weak ones) a predictor seen in zero or
             one failing run would "separate" vacuously -- e.g. the
             sole predictor mined so far, observed only in successes. *)
          || best.n_failing_with < min_failing_for_separation
        then None
        else begin
          let lo, _ =
            f_interval ~delta ~n_failing_with:best.n_failing_with
              ~n_success_with:best.n_success_with
              ~total_failing:t.total_failing ()
          in
          (* A leader with perfect counts so far (held in every
             failing run, never in a success) fully identifies its
             pairing with any rival on the same run sequence: the
             rival's failing occurrences are a subset of the leader's,
             and every rival success is a run the leader sat out -- so
             every discordant run favours the leader, and the exact
             one-sided sign test (McNemar) applies with
             p = 2^-(discordant runs).  This sharpens the interval
             test exactly where it is weakest: tiny samples where a
             rival's own perfect-precision interval still reaches
             F ~ 1. *)
          let perfect =
            best.n_failing_with = t.total_failing
            && best.n_success_with = 0
          in
          (* A rival blocks separation unless one of:
             - same evidence class: identical counts AND the same
               co-occurrence fingerprint, i.e. it held in exactly the
               runs the leader held in.  Coupled predictors mined from
               one mechanism co-occur in every run, so no amount of
               data can tell them apart and the deterministic
               F-then-predictor tie-break orders them identically in
               both modes.  The fingerprint is what separates them
               from coincidental ties -- two predictors with equal
               counts over *different* runs (e.g. two values of one
               variable, each seen in its own failing subset) can
               still diverge as evidence accrues, so they block;
             - its F upper bound sits below the leader's lower bound;
             - the exact sign test rejects it at [delta]. *)
          let cooc_of p =
            (Option.value ~default:cell0 (Hashtbl.find_opt t.counts p)).c_cooc
          in
          let best_cooc = cooc_of best.predictor in
          let blocked (r : ranked) =
            if
              r.n_failing_with = best.n_failing_with
              && r.n_success_with = best.n_success_with
              && cooc_of r.predictor = best_cooc
            then false
            else
              let _, hi =
                f_interval ~delta ~n_failing_with:r.n_failing_with
                  ~n_success_with:r.n_success_with
                  ~total_failing:t.total_failing ()
              in
              if hi < lo then false
              else if perfect then
                let discordant =
                  best.n_failing_with - r.n_failing_with + r.n_success_with
                in
                0.5 ** float_of_int discordant > delta
              else true
          in
          if List.exists blocked rest then None else Some best.predictor
        end
end

(* The sketch shows the highest-ranked predictor *per category*
   (branches, data values, statement orders), §3.3. *)
let best_per_kind ranked =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun r ->
      let k = Predictor.kind_name r.predictor in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    ranked

let pp_ranked ppf r =
  Fmt.pf ppf "%a  (P=%.2f R=%.2f F=%.3f; %d fail / %d ok)" Predictor.pp
    r.predictor r.precision r.recall r.f_measure r.n_failing_with
    r.n_success_with
