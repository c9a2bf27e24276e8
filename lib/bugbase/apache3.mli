(** Apache bug #21287 ("Apache-3", paper Fig. 8): the dec / zero-check / free triplet of decrement_refcount is not atomic; the cache object is freed twice. *)

(** The Bugbase descriptor (workloads, ideal sketch, target failure). *)
val bug : Common.t
