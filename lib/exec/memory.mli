(** The shared heap.  Freed blocks keep their identity so use-after-free
    and double-free are detected precisely (two of Table 1's failure
    classes).  Blocks are separated by one-cell red zones, so walking
    off the end of a block is a segfault, not a silent overlap.
    Addresses below 16 are never mapped.  A valid access allocates
    nothing. *)

type fail = Fail_segv | Fail_uaf | Fail_dfree

(** Raised by {!load}, {!store} and {!free} on an invalid address. *)
exception Fault of fail

type t

val create : unit -> t

(** [alloc t n] returns the base address of a fresh block of
    [max n 1] zero-initialised cells. *)
val alloc : t -> int -> int

(** Validity of a cell address (unmapped / freed / live). *)
val check : t -> int -> (unit, fail) result

(** The value at a live cell.
    @raise Fault [Fail_segv] (unmapped or red zone) or [Fail_uaf]. *)
val load : t -> int -> Value.t

(** Overwrite a live cell; raises like {!load}. *)
val store : t -> int -> Value.t -> unit

(** [free t base] marks the block at [base] freed.
    @raise Fault [Fail_dfree] on a second free, [Fail_segv] when [base]
    is not a block base. *)
val free : t -> int -> unit

(** Is [addr] a currently valid (allocated, unfreed) cell? *)
val valid : t -> int -> bool
