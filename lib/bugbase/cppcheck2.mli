(** Cppcheck bug #2782 (v1.48): constant folding evaluates "<num>/<num>" with host division; analysing a literal division by zero crashes the checker itself. *)

(** The Bugbase descriptor (workloads, ideal sketch, target failure). *)
val bug : Common.t
