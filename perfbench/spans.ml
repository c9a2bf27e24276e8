(* In-memory span recorder for the traced run.

   A span is one call from the benchmark into a layer's public
   function: name, start, end, the span that caused it and the session
   it serves.  Each domain records into its own list (pool workers run
   slot thunks), so recording takes no lock; lists are gathered only
   after the traced work has finished.  Nothing is recorded unless
   [enabled] is set, so the untraced run pays one branch per call. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a top-level call *)
  session : int; (** -1 when the call serves no single session *)
  domain : int;
}

(* Set only while no pool task is running. *)
let enabled = ref false

let next_id = Atomic.make 0

type local = { mutable spans : span list; mutable stack : int list; dom : int }

let registry : local list ref = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let l = { spans = []; stack = []; dom = (Domain.self () :> int) } in
      Mutex.protect registry_lock (fun () -> registry := l :: !registry);
      l)

(* The innermost open span on this domain: the parent to hand to work
   that will run on other domains. *)
let current () =
  match (Domain.DLS.get key).stack with [] -> -1 | id :: _ -> id

let run ?parent ?(session = -1) name f =
  if not !enabled then f ()
  else begin
    let l = Domain.DLS.get key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match l.stack with [] -> -1 | p :: _ -> p)
    in
    let id = Atomic.fetch_and_add next_id 1 in
    l.stack <- id :: l.stack;
    let start = Stat.now () in
    let close () =
      let stop = Stat.now () in
      l.stack <- List.tl l.stack;
      l.spans <- { id; name; start; stop; parent; session; domain = l.dom } :: l.spans
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* Every span recorded so far, in start order; clears the recorder. *)
let collect () =
  Mutex.protect registry_lock (fun () ->
      let all = List.concat_map (fun l -> l.spans) !registry in
      List.iter (fun l -> l.spans <- []) !registry;
      List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) all)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

type layer = { l_name : string; l_count : int; l_self : float }

(* Per-name call counts and self times, largest self time first.  A
   span's self time is its duration minus the part of its interval its
   children cover (children may overlap when they ran on several
   domains). *)
let layers spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids in
      let c, sf = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (c + 1, sf +. self))
    spans;
  Hashtbl.fold
    (fun l_name (l_count, l_self) acc -> { l_name; l_count; l_self } :: acc)
    by_name []
  |> List.sort (fun a b -> compare b.l_self a.l_self)

(* The part of [lo, hi] — the traced wall — no top-level span covers. *)
let unattributed ~lo ~hi spans =
  let top =
    List.filter_map
      (fun s -> if s.parent < 0 then Some (s.start, s.stop) else None)
      spans
  in
  hi -. lo -. covered ~lo ~hi top

let find layers name = List.find_opt (fun l -> l.l_name = name) layers
let self_of layers name = match find layers name with Some l -> l.l_self | None -> 0.0
let count_of layers name = match find layers name with Some l -> l.l_count | None -> 0

(* Durations of every span called [name]. *)
let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    spans

let write_tsv path ~origin spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tname\tstart_s\tend_s\tparent\tsession\tdomain\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\t%d\n" s.id s.name
            (s.start -. origin) (s.stop -. origin) s.parent s.session s.domain)
        spans)
