(** Runtime values.  Registers are thread-local (Gist does not watch
    stack variables, paper §6); only heap cells and globals live at
    watchable addresses. *)

type t =
  | VInt of int
  | VPtr of int      (** address of a heap/global cell *)
  | VStr of string
  | VTid of int      (** thread handle *)
  | VNull
  | VUnit

(** [int n] is [VInt n], shared for [-128 <= n < 128] (no
    allocation); the interpreters build every integer result with it. *)
val int : int -> t

(** [int 0]. *)
val zero : t

(** [one] or [zero], C-style. *)
val of_bool : bool -> t

(** C-style truthiness: [VInt 0] and [VNull] are false. *)
val truthy : t -> bool

val to_string : t -> string

(** Structural equality, with [VNull = VInt 0] as in C. *)
val equal : t -> t -> bool
