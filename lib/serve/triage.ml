(* Duplicate coalescing ahead of admission: an LRU-bounded cluster
   table keyed by failure fingerprint.  See triage.mli.

   Determinism: the table is driven only by service decisions (submit
   order, round numbers, completion digests), every mutation is a
   pure function of those, and the codec serializes entries in
   last-touch order — so the table recovers bit-identically and two
   services fed the same submissions hold equal tables at any pool
   size. *)

module C = Hw.Codec

type state = Open | Done of { round : int }

type cluster = {
  c_fp : int;
  mutable c_canonical : int;  (* ticket id of the diagnosing session *)
  mutable c_name : string;    (* that session's name *)
  mutable c_count : int;      (* submissions folded in, canonical included *)
  mutable c_state : state;
  mutable c_digest : int;     (* completion digest once Done *)
  mutable c_touch : int;      (* LRU clock at last hit *)
}

type t = {
  max_clusters : int;
  recency_rounds : int;
  tbl : (int, cluster) Hashtbl.t;
  mutable tick : int;
  mutable evicted : int;
}

let create ~max_clusters ~recency_rounds =
  {
    max_clusters;
    recency_rounds;
    tbl = Hashtbl.create 64;
    tick = 0;
    evicted = 0;
  }

let size t = Hashtbl.length t.tbl
let evicted t = t.evicted

let touch t c =
  t.tick <- t.tick + 1;
  c.c_touch <- t.tick

type verdict =
  | New  (** no live cluster: open one, fresh lane *)
  | Recurrence of { canonical : int; done_round : int }
      (** known but diagnosed too long ago: re-diagnose, recurrence lane *)
  | Duplicate of { canonical : int; count : int }
      (** in flight or recently diagnosed: coalesce, no session *)

(* Pure classification — the caller commits with [open_fresh],
   [reopen] or [coalesce] only once admission capacity is settled. *)
let classify t ~round fp =
  match Hashtbl.find_opt t.tbl fp with
  | None -> New
  | Some c -> (
    match c.c_state with
    | Open -> Duplicate { canonical = c.c_canonical; count = c.c_count }
    | Done { round = r } ->
      if t.recency_rounds > 0 && round - r > t.recency_rounds then
        Recurrence { canonical = c.c_canonical; done_round = r }
      else Duplicate { canonical = c.c_canonical; count = c.c_count })

(* LRU eviction considers only [Done] clusters: an [Open] one is
   pinned by its queued or in-flight session.  Tie-break on the touch
   clock, which is strictly monotonic, so the victim is unique. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ c best ->
        match c.c_state with
        | Open -> best
        | Done _ -> (
          match best with
          | Some b when b.c_touch <= c.c_touch -> best
          | _ -> Some c))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some c ->
    Hashtbl.remove t.tbl c.c_fp;
    t.evicted <- t.evicted + 1

let open_fresh t ~fp ~name ~id =
  if Hashtbl.length t.tbl >= t.max_clusters then evict_lru t;
  let c =
    {
      c_fp = fp;
      c_canonical = id;
      c_name = name;
      c_count = 1;
      c_state = Open;
      c_digest = 0;
      c_touch = 0;
    }
  in
  touch t c;
  Hashtbl.replace t.tbl fp c

let reopen t ~fp ~name ~id =
  match Hashtbl.find_opt t.tbl fp with
  | None -> open_fresh t ~fp ~name ~id
  | Some c ->
    c.c_canonical <- id;
    c.c_name <- name;
    c.c_count <- c.c_count + 1;
    c.c_state <- Open;
    touch t c

(* Undo a [reopen] whose ticket was shed from the queue before
   admission: the cluster goes back to its diagnosed state, keeping
   the recurrence count (the submission really happened). *)
let revert_reopen t ~fp ~canonical ~done_round =
  match Hashtbl.find_opt t.tbl fp with
  | None -> ()
  | Some c ->
    c.c_canonical <- canonical;
    c.c_state <- Done { round = done_round };
    touch t c

let coalesce t ~fp =
  match Hashtbl.find_opt t.tbl fp with
  | None -> ()
  | Some c ->
    c.c_count <- c.c_count + 1;
    touch t c

(* A session completing [Ok] freezes its cluster as recently
   diagnosed; a typed failure drops the cluster instead — duplicates
   of a failed diagnosis deserve a fresh attempt, not coalescing onto
   an [Error]. *)
let completed t ~fp ~id ~round ~digest ~ok =
  match Hashtbl.find_opt t.tbl fp with
  | None -> ()
  | Some c ->
    if c.c_canonical = id then
      if ok then begin
        c.c_state <- Done { round };
        c.c_digest <- digest;
        touch t c
      end
      else Hashtbl.remove t.tbl fp

type view = {
  v_fp : int;
  v_name : string;
  v_canonical : int;
  v_count : int;
  v_done_round : int;  (** -1 while the diagnosis is in flight *)
}

(* Most recently touched first: the order a status screen wants and
   the order the codec uses, so two equal tables render and encode
   identically. *)
let by_recency t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.tbl []
  |> List.sort (fun a b -> Int.compare b.c_touch a.c_touch)

let views t =
  List.map
    (fun c ->
      {
        v_fp = c.c_fp;
        v_name = c.c_name;
        v_canonical = c.c_canonical;
        v_count = c.c_count;
        v_done_round = (match c.c_state with Open -> -1 | Done { round } -> round);
      })
    (by_recency t)

(* ------------------------------------------------------------------ *)
(* Codec (embedded in the service checkpoint) *)

let cluster : cluster C.t =
  C.(
    record
      (fun c_fp c_canonical c_name c_count c_state c_digest c_touch ->
        { c_fp; c_canonical; c_name; c_count; c_state; c_digest; c_touch })
      (fields
      |+ (uint, fun c -> c.c_fp)
      |+ (uint, fun c -> c.c_canonical)
      |+ (string, fun c -> c.c_name)
      |+ (uint, fun c -> c.c_count)
      |+ ( variant
             [
               const 0 Open;
               case 1 uint
                 (function Done { round } -> Some round | Open -> None)
                 (fun round -> Done { round });
             ],
           fun c -> c.c_state )
      |+ (uint, fun c -> c.c_digest)
      |+ (uint, fun c -> c.c_touch)))

let codec =
  C.(
    record
      (fun max_clusters recency_rounds tick evicted clusters ->
        let t = { (create ~max_clusters ~recency_rounds) with tick; evicted } in
        List.iter (fun c -> Hashtbl.replace t.tbl c.c_fp c) clusters;
        t)
      (fields
      |+ (uint, fun t -> t.max_clusters)
      |+ (uint, fun t -> t.recency_rounds)
      |+ (uint, fun t -> t.tick)
      |+ (uint, fun t -> t.evicted)
      |+ (list cluster, by_recency)))
