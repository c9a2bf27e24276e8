(* Failure reports: what a production client ships to the Gist server
   (paper: "a failure report (e.g., stack trace, the statement where the
   failure manifests itself)").  Signatures identify "the same failure
   across multiple executions by matching the program counters and stack
   traces" (paper, footnote 1). *)

type kind =
  | Segfault
  | Use_after_free
  | Double_free
  | Assert_fail of string
  | Deadlock
  | Hang
  | Div_by_zero
  | Type_error of string

type report = {
  kind : kind;
  pc : Ir.Types.iid;      (* statement where the failure manifests *)
  tid : int;
  stack : string list;    (* function names, innermost first *)
  message : string;
}

let kind_tag = function
  | Segfault -> "segfault"
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Assert_fail _ -> "assert"
  | Deadlock -> "deadlock"
  | Hang -> "hang"
  | Div_by_zero -> "div-by-zero"
  | Type_error _ -> "type-error"

let kind_to_string = function
  | Assert_fail m -> "assertion failure: " ^ m
  | Type_error m -> "type error: " ^ m
  | k -> kind_tag k

type signature = { s_kind : string; s_pc : Ir.Types.iid; s_stack : string list }

let signature r = { s_kind = kind_tag r.kind; s_pc = r.pc; s_stack = r.stack }

let pp_report ppf r =
  Fmt.pf ppf "%s at pc %d (thread %d), stack: [%s]%s"
    (kind_to_string r.kind) r.pc r.tid
    (String.concat " <- " r.stack)
    (if r.message = "" then "" else ": " ^ r.message)

let report_to_string r = Fmt.str "%a" pp_report r
