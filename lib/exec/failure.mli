(** Failure reports: what a production client ships to the Gist server
    ("a failure report (e.g., stack trace, the statement where the
    failure manifests itself)", paper Fig. 2).  Signatures identify
    "the same failure across multiple executions by matching the
    program counters and stack traces" (paper, footnote 1). *)

type kind =
  | Segfault
  | Use_after_free
  | Double_free
  | Assert_fail of string
  | Deadlock
  | Hang            (** step budget exhausted *)
  | Div_by_zero
  | Type_error of string

type report = {
  kind : kind;
  pc : Ir.Types.iid;   (** statement where the failure manifests *)
  tid : int;
  stack : string list; (** function names, innermost first *)
  message : string;
}

(** Coarse kind label ("segfault", "assert", ...), ignoring payloads. *)
val kind_tag : kind -> string

val kind_to_string : kind -> string

(** The failure identity used for matching across runs. *)
type signature = { s_kind : string; s_pc : Ir.Types.iid; s_stack : string list }

val signature : report -> signature
val report_to_string : report -> string
