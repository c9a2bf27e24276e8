(** SQLite bug #1672 (v3.3.3): sqlite3_close invalidates db->magic while another thread is inside a query; the post-query assert fires (an RWR atomicity violation). *)

(** The Bugbase descriptor (workloads, ideal sketch, target failure). *)
val bug : Common.t
