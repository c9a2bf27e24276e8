(** The service driver: the one place that feeds specs to a {!Service},
    steps it, harvests what it produces, and kills and recovers it.
    Every caller — the fuzz gate, [gist_cli serve], the soak gates and
    the recovery suites — drives a service through {!drive}, so the
    submission, harvest and recovery policy is decided once.

    Kills come from a seeded, pure plan ({!Faults.Chaos}), so a chaos
    campaign replays from its seed.  The driver is the executable
    statement of the crash-only claims: whatever the kill schedule,
    every submitted bug still completes — diagnosed bit-identically,
    or contained as a typed failure — and the service object that
    emerges is live and balanced. *)

(** What one drive did and produced. *)
type outcome = {
  o_done : (string * Service.completion) list;
      (** by bug name in first-sighting order; the first completion
          seen wins (recovery replays are at-least-once) *)
  o_shed : Service.shed_notice list;  (** oldest first *)
  o_kills : int;
  o_torn : int;        (** kills that also tore the journal tail *)
  o_corrupted : int;   (** kills that also corrupted a checkpoint *)
  o_resubmitted : int; (** submissions lost to a torn tail, re-sent *)
  o_failed_recoveries : int;
      (** recover refusals (the drive continued on the live object) *)
  o_service : Service.t;  (** the final incarnation, idle *)
}

(** Wrap a spec so every granted slot raises iff {!Faults.Chaos.poisoned}
    says the session is poisoned.  Identity on unpoisoned specs. *)
val poison_spec :
  rates:Faults.Chaos.rates -> seed:int -> Service.spec -> Service.spec

(** [drive ~specs svc] submits every spec in [specs], in order, and
    steps [svc] until it is idle.

    - {b Submission.}  [Busy] is retried after one more round that
      made progress; [Shed], and a [Busy] from an idle service (one
      that is draining), are final for that spec.
    - {b Harvest.}  After every round the driver takes completions and
      shed notices.  Completions are deduplicated by name, first
      sighting wins: recovery re-delivers at-least-once.
    - {b Kills.}  After round [k] of the drive (a campaign tick that
      only moves forward, even when a torn tail rewinds the service's
      own round counter), [kills k] may kill the incarnation: its
      journal bytes are taken, torn or checkpoint-corrupted as the plan
      says, and a fresh service is {!Service.recover}ed from them.  A
      refused recovery is booked and the drive goes on with the live
      object.  Default: never kill.
    - {b Lost submissions.}  A submission's number is [st_submitted]
      just after the call; it is lost when a recovered incarnation's
      [st_submitted] is below it (journal bytes survive a crash as a
      prefix).  Once the service is idle, the specs with no completion
      whose last submission was lost are resubmitted, and the drive
      goes on.  Nothing else is resubmitted: a coalesced duplicate
      never completes under its own name, and a refusal is final.
    - {b Resolver.}  Recovery resolves names through [specs], so every
      name the service can journal must be in it.

    [on_round k svc] runs after round [k]'s harvest, on the live
    incarnation and before any kill: a caller may inspect it or
    {!Service.request_drain} it there. *)
val drive :
  ?pool:Parallel.Pool.t ->
  ?kills:(int -> Faults.Chaos.plan) ->
  ?on_round:(int -> Service.t -> unit) ->
  specs:Service.spec list ->
  Service.t ->
  outcome
