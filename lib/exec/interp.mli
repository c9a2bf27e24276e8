(** A deterministic multithreaded interpreter for the IR.

    It plays the role of "production runs" in the paper: failures
    (including concurrency failures) manifest as a function of the
    scheduling seed and the workload, and tracing layers (Intel PT,
    watchpoints, record/replay) observe the execution through {!hooks}
    without perturbing it. *)

open Ir.Types

type rw = Read | Write

(** The [addr] a [pre_instr] hook receives when the upcoming
    instruction has no resolvable address: it is not a load or store,
    or its base operand does not hold a pointer.  It is [min_int]:
    [Memory] hands out small positive addresses, so only a pointer
    offset by about [min_int] could collide, and accessing it
    segfaults. *)
val no_addr : int

(** Observation callbacks, all no-ops by default ({!no_hooks}).

    - [pre_instr] fires before every executed instruction, retries of a
      blocked lock/join included.  [addr] is the address the
      instruction is about to touch, enough to arm a watchpoint at the
      pre-point: for a [Load]/[Store] whose base register holds
      [VPtr a] it is [a + off], for [Load_global]/[Store_global] the
      global's address, and {!no_addr} otherwise.
    - [mem_access] fires on every shared load/store.
    - [branch] fires on conditional branches with the taken direction.
    - [ret] fires on returns with the caller's resume point ([None] at
      thread exit).
    - [sched] fires with each scheduling choice. *)
type hooks = {
  mutable pre_instr : tid:int -> instr:instr -> addr:int -> unit;
  mutable mem_access :
    tid:int -> instr:instr -> addr:int -> rw:rw -> value:Value.t -> unit;
  mutable branch : tid:int -> instr:instr -> taken:bool -> unit;
  mutable ret : tid:int -> instr:instr -> resume:iid option -> unit;
  mutable sched : choice:int -> unit;
}

val no_hooks : unit -> hooks

(** A production workload: arguments bound to main's parameters and the
    scheduling seed. *)
type workload = { args : Value.t list; seed : int }

val workload : ?args:Value.t list -> int -> workload

(** Deterministic client-index to workload seed spreading, shared by
    every fleet model (Bugbase bugs and fuzz cases). *)
val seed_of_client : int -> int

(** A globally sequenced shared-memory access: the evaluation's ground
    truth (ideal sketches, record/replay); Gist itself only sees the
    subset captured by watchpoints. *)
type access = {
  a_seq : int;
  a_tid : int;
  a_iid : iid;
  a_addr : int;
  a_rw : rw;
  a_value : Value.t;
}

type outcome = Success | Failed of Failure.report

type result = {
  outcome : outcome;
  counters : Cost.t;
  accesses : access list;      (** ground truth; [] unless [record_gt] *)
  executed : (int * iid) list; (** ground truth; [] unless [record_gt] *)
  output : string list;        (** [print] builtin output, in order *)
  steps : int;
}

(** [run program workload] executes the program to completion or
    failure.

    - [hooks]: observation callbacks (default: none).
    - [counters]: the cost-counter record to update (default: fresh);
      pass a shared one so tracing layers and the run account into the
      same object.
    - [pick]: overrides the seeded scheduler (record/replay); called
      with the eligible thread ids, returning [None] falls back to the
      first eligible thread.
    - [max_steps]: hang-detector budget (default 400k).
    - [record_gt]: record the ground-truth access and execution logs.
    - [preempt_prob]: probability of a context switch at a
      shared-memory or synchronisation instruction (default 0.35);
      other instructions switch with probability 0.02. *)
val run :
  ?hooks:hooks ->
  ?counters:Cost.t ->
  ?pick:(eligible:int list -> int option) ->
  ?max_steps:int ->
  ?record_gt:bool ->
  ?preempt_prob:float ->
  program ->
  workload ->
  result

(** [first_failure program workload_of] scans unmonitored production
    runs, client [c] running [workload_of c] for [c] from 0 below
    [max_runs] (default 2000), and returns the first client whose
    failure [accept] admits (default: any failure) with its report:
    the coredump/stack-trace report a developer starts from.
    [preempt_prob] and [max_steps] are passed to {!run}. *)
val first_failure :
  ?accept:(Failure.report -> bool) ->
  ?max_runs:int ->
  ?preempt_prob:float ->
  ?max_steps:int ->
  program ->
  (int -> workload) ->
  (int * Failure.report) option
