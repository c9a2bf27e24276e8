(** Cppcheck bug #3238 (v1.52): the template simplification pass dereferences tok->next after a '<' token without a NULL check; a dangling '<' at EOF crashes the checker. *)

(** The Bugbase descriptor (workloads, ideal sketch, target failure). *)
val bug : Common.t
