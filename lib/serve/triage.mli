(** Dedup/cluster front-end ahead of service admission.

    An LRU-bounded table of failure clusters keyed by
    {!Fsketch.Fingerprint} value.  The service consults it on every
    submission: a fingerprint already in flight or recently diagnosed
    is {e coalesced} (the recurrence counter bumps, no new session); a
    fingerprint diagnosed too long ago re-opens as a recurrence-lane
    session; an unknown fingerprint opens a fresh cluster.  Only
    [Done] clusters are LRU-evicted — an [Open] one is pinned by its
    session — so the table stays within [max_clusters] plus whatever
    is actually in flight.

    Everything here is a deterministic function of the submission
    sequence and round numbers, which is what lets the table live in
    service checkpoints and recover bit-identically. *)

type t

(** [create ~max_clusters ~recency_rounds].  [recency_rounds = 0]
    means a diagnosed cluster keeps coalescing duplicates for as long
    as it stays in the table. *)
val create : max_clusters:int -> recency_rounds:int -> t

val size : t -> int

(** Done-clusters dropped by the LRU bound so far. *)
val evicted : t -> int

(** What the table says about a fingerprint — pure; commit with
    {!open_fresh}, {!reopen} or {!coalesce} once admission capacity
    is settled. *)
type verdict =
  | New
  | Recurrence of { canonical : int; done_round : int }
  | Duplicate of { canonical : int; count : int }

val classify : t -> round:int -> int -> verdict

val open_fresh : t -> fp:int -> name:string -> id:int -> unit
val reopen : t -> fp:int -> name:string -> id:int -> unit

(** Undo a {!reopen} whose ticket was load-shed before admission: the
    cluster returns to [Done] at its original round; the recurrence
    count keeps the arrival. *)
val revert_reopen : t -> fp:int -> canonical:int -> done_round:int -> unit

val coalesce : t -> fp:int -> unit

(** Book the canonical session's completion.  [ok = true] freezes the
    cluster as recently diagnosed (recording the completion digest);
    [ok = false] drops it, so duplicates of a failed diagnosis get a
    fresh attempt. *)
val completed : t -> fp:int -> id:int -> round:int -> digest:int -> ok:bool -> unit

(** One cluster, for status screens and tests. *)
type view = {
  v_fp : int;
  v_name : string;
  v_canonical : int;
  v_count : int;
  v_done_round : int;  (** -1 while the diagnosis is in flight *)
}

(** Most recently touched first; deterministic. *)
val views : t -> view list

(** {2 Codec} — embedded in the service checkpoint; encodes entries
    in last-touch order, so equal tables encode byte-identically. *)

val codec : t Hw.Codec.t
