(** Apache bug #25520 ("Apache-2", httpd 2.0.48): unsynchronised access-log writes lose entries; the flush-time consistency assert fires. *)

(** The Bugbase descriptor (workloads, ideal sketch, target failure). *)
val bug : Common.t
