(* Failure predictors (paper §3.3).

   For sequential programs: branches taken and data values computed.
   For multithreaded programs, additionally the single-variable
   atomicity-violation patterns of Fig. 5 (RWR, WWR, RWW, WRW) and the
   data-race / order-violation patterns (WW, WR, RW).

   A predictor is identified by the program statements involved, so
   that two different interleavings over the same variable count as
   different predictors (this is what lets Gist distinguish failure
   kinds where PBI/CCI cannot, §3.3). *)

open Ir.Types


let rw_char = function Exec.Interp.Read -> 'R' | Exec.Interp.Write -> 'W'

type t =
  | Branch_taken of iid * bool
  | Data_value of iid * string            (* statement, observed value *)
  | Value_range of iid * string           (* statement, predicate: "<0", ... *)
  | Race of string * iid * iid            (* "WW"/"WR"/"RW", the two statements *)
  | Atomicity of string * iid * iid * iid (* "RWR"/"WWR"/"RWW"/"WRW" *)

let compare = Stdlib.compare
let equal a b = compare a b = 0

let kind_name = function
  | Branch_taken _ -> "branch"
  | Data_value _ -> "value"
  | Value_range _ -> "range"
  | Race _ -> "race"
  | Atomicity _ -> "atomicity"

let pp ppf = function
  | Branch_taken (iid, taken) ->
    Fmt.pf ppf "branch@%d %s" iid (if taken then "taken" else "not-taken")
  | Data_value (iid, v) -> Fmt.pf ppf "value@%d = %s" iid v
  | Value_range (iid, pred) -> Fmt.pf ppf "value@%d %s" iid pred
  | Race (pat, a, b) -> Fmt.pf ppf "%s race: @%d -> @%d" pat a b
  | Atomicity (pat, a, b, c) ->
    Fmt.pf ppf "%s atomicity violation: @%d, @%d, @%d" pat a b c

let to_string p = Fmt.str "%a" pp p

(* ------------------------------------------------------------------ *)
(* Extraction from one monitored run. *)

(* Branch predictors from decoded PT outcomes, restricted to tracked
   statements.  A branch that went both ways in one run yields both
   predictors (each is a predicate "this branch took this outcome at
   least once in the run").

   Outcomes are deduplicated in a bitset indexed by tracked position
   (two bits each: not taken, taken), found by binary search in the
   sorted tracked set; reading the bits in order yields the predictors
   already sorted, with no comparison sort over the outcomes. *)
let rec strictly_ascending = function
  | a :: (b :: _ as tl) -> a < b && strictly_ascending tl
  | _ -> true

let rec position (a : int array) iid lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get a mid in
    if x = iid then mid
    else if x < iid then position a iid (mid + 1) hi
    else position a iid lo mid

let of_branches ~tracked outcomes =
  if outcomes = [] || tracked = [] then []
  else begin
    let tracked =
      Array.of_list
        (if strictly_ascending tracked then tracked
         else List.sort_uniq Int.compare tracked)
    in
    let n = Array.length tracked in
    let seen = Bytes.make (2 * n) '\000' in
    List.iter
      (fun (iid, taken) ->
        let p = position tracked iid 0 n in
        if p >= 0 then
          Bytes.unsafe_set seen ((2 * p) + Bool.to_int taken) '\001')
      outcomes;
    let acc = ref [] in
    for k = (2 * n) - 1 downto 0 do
      if Bytes.unsafe_get seen k = '\001' then
        acc := Branch_taken (tracked.(k / 2), k land 1 = 1) :: !acc
    done;
    !acc
  end

(* Data-value predictors from watchpoint traps. *)
let of_values (traps : Hw.Watchpoint.trap list) =
  List.map
    (fun (t : Hw.Watchpoint.trap) ->
      Data_value (t.w_iid, Exec.Value.to_string t.w_value))
    traps
  |> List.sort_uniq compare

(* Concurrency patterns from the totally ordered watchpoint trap log.
   For each address, consecutive accesses from different threads form
   race patterns; triples t1-t2-t1 form the Fig. 5 atomicity patterns. *)
let of_traps (traps : Hw.Watchpoint.trap list) =
  let by_addr = Hashtbl.create 8 in
  List.iter
    (fun (t : Hw.Watchpoint.trap) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_addr t.w_addr) in
      Hashtbl.replace by_addr t.w_addr (t :: cur))
    traps;
  (* The paper's pattern sets: races WW/WR/RW (read-read is no race)
     and the four Fig. 5 single-variable atomicity violations. *)
  let race_patterns = [ "WW"; "WR"; "RW" ] in
  let atomicity_patterns = [ "RWR"; "WWR"; "RWW"; "WRW" ] in
  let found = ref [] in
  Hashtbl.iter
    (fun _addr rev_accesses ->
      let accesses = List.rev rev_accesses in
      let rec scan = function
        | (a : Hw.Watchpoint.trap) :: (b :: _ as rest) ->
          if a.w_tid <> b.w_tid then begin
            let pat = Printf.sprintf "%c%c" (rw_char a.w_rw) (rw_char b.w_rw) in
            if List.mem pat race_patterns then
              found := Race (pat, a.w_iid, b.w_iid) :: !found;
            (match rest with
             | _ :: c :: _ when c.w_tid = a.w_tid && c.w_tid <> b.w_tid ->
               let pat3 =
                 Printf.sprintf "%c%c%c" (rw_char a.w_rw) (rw_char b.w_rw)
                   (rw_char c.w_rw)
               in
               if List.mem pat3 atomicity_patterns then
                 found := Atomicity (pat3, a.w_iid, b.w_iid, c.w_iid) :: !found
             | _ -> ())
          end;
          scan rest
        | _ -> ()
      in
      scan accesses)
    by_addr;
  List.sort_uniq compare !found

(* Range/inequality predicates over observed data values: the richer
   value predictors the paper lists as future work (§6).  Exact values
   can fragment the statistics (every failing run leaks a different
   negative count); sign and null predicates unify them, trading a
   little informativeness for recall. *)
let range_predicates (v : Exec.Value.t) =
  match v with
  | Exec.Value.VInt n ->
    (if n < 0 then [ "< 0" ] else if n > 0 then [ "> 0" ] else [ "== 0" ])
  | Exec.Value.VNull -> [ "== NULL" ]
  | Exec.Value.VPtr _ -> [ "!= NULL" ]
  | Exec.Value.VStr _ | Exec.Value.VTid _ | Exec.Value.VUnit -> []

let of_value_ranges (traps : Hw.Watchpoint.trap list) =
  List.concat_map
    (fun (t : Hw.Watchpoint.trap) ->
      List.map (fun p -> Value_range (t.w_iid, p)) (range_predicates t.w_value))
    traps
  |> List.sort_uniq compare

(* All predictors observable in one run.  [ranges] additionally mines
   the §6 range/inequality predicates (an extension over the paper's
   prototype, which "simply tracks data values themselves"). *)
let of_run ?(ranges = false) ~tracked ~branch_outcomes ~traps () =
  (* Each part is sorted and duplicate-free, and the parts hold
     constructors in declaration order, so their concatenation is the
     sorted set already. *)
  of_branches ~tracked branch_outcomes
  @ of_values traps
  @ (if ranges then of_value_ranges traps else [])
  @ of_traps traps
