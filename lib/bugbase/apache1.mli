(** Apache bug #45605 ("Apache-1", httpd 2.2.9): a TOCTOU race on the lockless connection-queue fast path; the losing worker dereferences NULL. *)

(** The Bugbase descriptor (workloads, ideal sketch, target failure). *)
val bug : Common.t
