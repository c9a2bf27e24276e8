(** The seeded service fault model — chaos at the scheduler layer,
    where {!Fault} is chaos at the fleet layer.

    Four kinds, mirroring how a crash-only diagnosis service actually
    dies in production: the whole process killed between rounds, the
    durable checkpoint it wants to restart from corrupted on disk, the
    journal's tail torn by a crash mid-[write(2)], and a single
    session's workload poisoned so its granted thunks raise.

    Every decision is a pure function of (campaign seed, round) or
    (campaign seed, session name, client index), seeded through
    {!Exec.Rng.mix} like {!Fault.draw}, so a chaos campaign is
    bit-identical at any job count and replayable from its seed. *)

type rates = {
  kill : float;          (** per-round: process dies after the round *)
  ckpt_corrupt : float;  (** per-kill: flip a byte in the newest checkpoint *)
  torn_write : float;    (** per-kill: the journal loses a ragged tail *)
  poison : float;        (** per-slot: the granted workload thunk raises *)
}

val zero : rates
val is_zero : rates -> bool

(** A uniform spread for one [--chaos] knob: [kill] gets the argument,
    the two recovery-damage kinds get half of it each (they only fire
    on a kill), [poison] gets a quarter. *)
val spread : float -> rates

(** What happens at the end of a round.  [p_kill = false] implies the
    other fields are inert. *)
type plan = {
  p_kill : bool;
  p_torn : int option;          (** bytes to tear off the journal tail *)
  p_ckpt_corrupt : int option;  (** tamper salt for the newest checkpoint *)
}

val no_plan : plan

(** [draw rates ~seed ~round] decides the fate of round [round]. *)
val draw : rates -> seed:int -> round:int -> plan

(** [poisoned rates ~seed ~name] decides whether session [name] is
    poisoned — every granted workload thunk raises, so the service's
    containment (strikes, then quarantine) is what stands between the
    poison and the scheduler.  Pure in its arguments, so the decision
    survives kill-and-recover: the replayed slots poison exactly like
    the originals. *)
val poisoned : rates -> seed:int -> name:string -> bool
