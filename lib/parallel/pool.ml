(* A fixed-size domain work pool (OCaml 5, no external deps).

   Design constraints, in order:

   1. *Determinism.*  Results are delivered in submission order, never
      in completion order, so callers that fold effects over results
      (the AsT quota accounting in [Gist.Server.diagnose]) observe a
      sequence bit-identical to a sequential run.
   2. *No deadlock under nesting.*  A caller waiting for its tasks
      *helps*: it drains the shared queue while its own work is
      outstanding.  A worker that itself submits a nested [map]
      therefore makes progress even when every other worker is busy.
   3. *Graceful degradation.*  A pool with zero workers runs everything
      inline on the caller, byte-for-byte the sequential code path --
      that is the default on single-core machines. *)

type t = {
  jobs : int; (* worker domains, >= 0 *)
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t; (* a task was queued, or the pool is closing *)
  finished : Condition.t; (* some task completed *)
  mutable closing : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs

(* The worker count [create ~jobs] actually spawns.  The caller helps
   drain every map, so a lone worker only contends with it on the queue
   mutex, and any worker at all on a single-core host just adds domain
   scheduling churn (PR1 measured parallel diagnosis at 0.37x sequential
   on 1 core).  Both cases collapse to zero workers -- the in-caller
   sequential path -- and worker counts above the core count are clamped
   down to it. *)
let effective ~jobs =
  let requested = max 0 jobs in
  let cores = Domain.recommended_domain_count () in
  if cores <= 1 || requested <= 1 then 0 else min requested cores

let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.queue then (* closing *) Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker t
  end

let create ~jobs =
  let jobs = effective ~jobs in
  let t =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      finished = Condition.create ();
      closing = false;
      domains = [];
    }
  in
  t.domains <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let sequential = create ~jobs:0

let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [f xs.(i)] for every index, blocking until all are done.  The
   caller participates: it executes queued tasks (its own or, under
   nesting, anyone's) instead of sleeping, and only waits on
   [finished] when the queue is momentarily empty. *)
let map_array t f xs =
  let n = Array.length xs in
  if t.jobs = 0 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    (* Chunked submission: about four chunks per executor (workers plus
       the helping caller) amortises queueing and wake-ups over many
       elements while leaving enough chunks to balance unequal task
       costs.  Slot writes inside a chunk need no lock -- each index
       belongs to exactly one chunk, and the completion decrement under
       [mutex] publishes them to the drainer. *)
    let chunks = min n ((t.jobs + 1) * 4) in
    let chunk_size = (n + chunks - 1) / chunks in
    let n_chunks = (n + chunk_size - 1) / chunk_size in
    let remaining = ref n_chunks in
    Mutex.lock t.mutex;
    for ci = 0 to n_chunks - 1 do
      let lo = ci * chunk_size in
      let hi = min n (lo + chunk_size) - 1 in
      Queue.add
        (fun () ->
          for i = lo to hi do
            results.(i) <-
              Some (match f xs.(i) with v -> Ok v | exception e -> Error e)
          done;
          Mutex.lock t.mutex;
          decr remaining;
          Condition.broadcast t.finished;
          Mutex.unlock t.mutex)
        t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    let rec drain () =
      Mutex.lock t.mutex;
      if !remaining = 0 then Mutex.unlock t.mutex
      else if not (Queue.is_empty t.queue) then begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        task ();
        drain ()
      end
      else begin
        Condition.wait t.finished t.mutex;
        Mutex.unlock t.mutex;
        drain ()
      end
    in
    drain ();
    (* All writes to [results] synchronised through [mutex]; the first
       exception (in submission order) is re-raised deterministically. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let map t f l = Array.to_list (map_array t f (Array.of_list l))

(* Per-worker mutable scratch (decode arenas, reusable buffers):
   domain-local storage, so a task never contends for or observes
   another worker's state.  [worker_local init] returns a getter; each
   domain that calls it (workers and the helping caller alike) gets
   its own lazily-created instance.  State persists across tasks on
   the same domain -- that is the point (buffers stay grown) -- so
   anything reachable from it must not leak task results: use it for
   scratch whose contents are dead once the task returns. *)
let worker_local init =
  let key = Domain.DLS.new_key init in
  fun () -> Domain.DLS.get key
