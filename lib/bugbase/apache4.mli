(** Apache bug #21285 ("Apache-4", httpd 2.0.46): the cleanup thread destroys the request pool between a worker's liveness check and its allocation (use after free). *)

(** The Bugbase descriptor (workloads, ideal sketch, target failure). *)
val bug : Common.t
