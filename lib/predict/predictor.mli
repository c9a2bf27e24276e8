(** Failure predictors (paper §3.3).

    For sequential programs: branches taken and data values computed.
    For multithreaded programs, additionally the single-variable
    atomicity-violation patterns of Fig. 5 (RWR, WWR, RWW, WRW) and the
    data-race / order-violation patterns (WW, WR, RW).

    A predictor is identified by the program statements involved, so
    two different interleavings over the same variable are different
    predictors — what lets Gist distinguish failure kinds where
    PBI/CCI cannot (§3.3). *)

open Ir.Types

type t =
  | Branch_taken of iid * bool
  | Data_value of iid * string             (** statement, observed value *)
  | Value_range of iid * string
      (** statement, range/inequality predicate ("< 0", "== NULL", ...):
          the richer value predictors of the paper's §6 future work *)
  | Race of string * iid * iid             (** "WW"/"WR"/"RW" + statements *)
  | Atomicity of string * iid * iid * iid  (** "RWR"/"WWR"/"RWW"/"WRW" *)

val compare : t -> t -> int
val equal : t -> t -> bool

(** Category label: "branch", "value", "range", "race" or
    "atomicity". *)
val kind_name : t -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Branch predictors from decoded PT outcomes, restricted to tracked
    statements: sorted and duplicate-free. *)
val of_branches : tracked:iid list -> (iid * bool) list -> t list

(** Data-value predictors from watchpoint traps. *)
val of_values : Hw.Watchpoint.trap list -> t list

(** Concurrency patterns from the totally ordered trap log: per
    address, consecutive accesses from different threads form the race
    patterns; t1-t2-t1 triples form the Fig. 5 atomicity patterns. *)
val of_traps : Hw.Watchpoint.trap list -> t list

(** The range/inequality predicates a value satisfies ("< 0", "> 0",
    "== 0", "== NULL", "!= NULL"; none for strings/handles). *)
val range_predicates : Exec.Value.t -> string list

(** All predictors observable in one monitored run, deduplicated.
    [ranges] (default false, the paper's behaviour) additionally mines
    the §6 range/inequality predicates. *)
val of_run :
  ?ranges:bool ->
  tracked:iid list ->
  branch_outcomes:(iid * bool) list ->
  traps:Hw.Watchpoint.trap list ->
  unit ->
  t list
