(* Order statistics for timing samples. *)

(* Seconds on the monotonic clock, at nanosecond resolution: per-call
   timings of microsecond operations must not round to zero. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile a p =
  match Array.length a with
  | 0 -> 0.0
  | n ->
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median l = percentile (sorted l) 0.5

(* The highest of the usual reporting percentiles that still has at
   least ten samples beyond it: p90 needs 100 samples, p99 1000. *)
let tail_percentile n =
  List.fold_left
    (fun best p ->
      if float_of_int n -. ceil (p *. float_of_int n) >= 10.0 then p else best)
    0.5 [ 0.9; 0.95; 0.99; 0.999 ]

let sum l = List.fold_left ( +. ) 0.0 l
let sumi l = List.fold_left ( + ) 0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b
