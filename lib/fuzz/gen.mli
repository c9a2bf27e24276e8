(** Seeded program generation, with and without injected bugs.

    The plain generators ({!random}, {!random_threaded}) produce
    well-formed programs that cannot fault — the workhorses of the
    property and differential tests (promoted here from the old
    test-only [Tsupport.Gen_prog]).

    The bug-injection generator ({!generate}) wraps one of the paper's
    root-cause patterns in random harmless padding and records the
    ground truth, so the whole diagnosis pipeline can be scored against
    programs whose root cause is known by construction. *)

open Ir.Types

(** {1 Plain generation} *)

(** Statement-level AST shared by padding and injected kernels. *)
type sstmt =
  | S_assign of string * expr
  | S_store of int * operand        (** arr[k] <- v *)
  | S_load of string * int          (** fresh reg <- arr[k] *)
  | S_if of string * sstmt list * sstmt list
  | S_loop of string * int * sstmt list
  | S_instr of instr                (** pre-located kernel instruction *)
  | S_if_at of instr * sstmt list * sstmt list
      (** kernel branch; labels patched at compile time *)

(** Sequential program over a private 8-cell array; cannot fault. *)
val random : int -> program

(** Two workers over a shared array: racy by construction, but no
    instruction can fault. *)
val random_threaded : int -> program

(** {1 Bug injection} *)

(** The paper's root-cause taxonomy: Fig. 5 atomicity violations,
    data races / order violations, and the sequential bug shapes. *)
type pattern =
  | RWR | WWR | RWW | WRW
  | WW | WR | RW
  | Branch_bug
  | Value_bug

val all_patterns : pattern list
val pattern_name : pattern -> string
val pattern_of_name : string -> pattern option

(** Which predictors correctly describe the injected root cause, in
    source-line terms (lines survive iid renumbering; iids do not). *)
type accept =
  | A_race of string * int * int
  | A_atom of string * int * int * int
  | A_value of int * string
  | A_branch of int * bool

type truth = {
  t_kind_tag : string;       (** {!Exec.Failure.kind_tag} of the failure *)
  t_fail_line : int;         (** source line where it manifests *)
  t_kernel_lines : int list; (** injected-kernel lines *)
  t_accept : accept list;
}

(** An injected kernel plus its random padding; compiling the same
    scenario always yields the same program. *)
type scenario = {
  s_pattern : pattern;
  s_pads : sstmt list array;  (** 4 padding regions *)
  s_preempt : float;
}

type case = {
  c_name : string;
  c_pattern : pattern;
  c_seed : int;                 (** -1 for corpus-loaded cases *)
  c_program : program;
  c_scenario : scenario option; (** present iff the case is shrinkable *)
  c_truth : truth;
  c_args_cycle : int list;
  c_preempt : float;
  c_faults : (Faults.Fault.rates * int) option;
      (** fleet faults (rates, injection seed) the case is checked
          under; [None] = reliable fleet *)
}

(** The deterministic per-client workload: client [c] gets argument
    [cycle.(c mod length)] and a seed derived from [c]. *)
val workload_of : case -> int -> Exec.Interp.workload

val scenario : pattern -> int -> scenario
val case_of_scenario : ?name:string -> ?seed:int -> scenario -> case

(** [generate pattern seed]: a fresh labelled bug. *)
val generate : pattern -> int -> case

(** {1 Shrinking support} *)

val scenario_size : scenario -> int

(** Every one-step reduction of the scenario's padding (drop a region,
    drop a statement, flatten an if, cut a loop bound). *)
val shrink_candidates : scenario -> scenario list
