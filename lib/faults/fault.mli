(** The seeded fleet fault model: independent per-kind probabilities,
    with every injection decision a pure function of
    (campaign seed, client index, delivery attempt) — bit-identical at
    any job count, replayable from the seed. *)

type kind =
  | Crash        (** client dies mid-run; nothing is ever sent *)
  | Drop         (** the report is lost in transit *)
  | Pt_truncate  (** the PT packet ring loses its tail *)
  | Pt_corrupt   (** PT packets damaged in the ring *)
  | Wp_corrupt   (** watchpoint log damaged (in ring or in transit) *)
  | Straggler    (** the report arrives after the collection deadline *)
  | Stale_plan   (** the client ran the previous plan version *)

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

type rates = {
  crash : float;
  drop : float;
  pt_truncate : float;
  pt_corrupt : float;
  wp_corrupt : float;
  straggler : float;
  stale_plan : float;
}

val zero : rates
val rate_of : rates -> kind -> float
val with_rate : rates -> kind -> float -> rates
val is_zero : rates -> bool

(** Probability that at least one fault hits a delivery attempt. *)
val aggregate : rates -> float

(** The uniform per-kind probability whose {!aggregate} equals the
    argument: how a single [--fault-rate] knob spreads over the
    taxonomy. *)
val spread : float -> rates

(** {1 Per-attempt injection decisions} *)

type injection = {
  j_crash : bool;
  j_drop : bool;
  j_straggler : bool;
  j_stale_plan : bool;
  j_pt_truncate : int option;  (** tamper salt *)
  j_pt_corrupt : int option;
  j_wp_corrupt : int option;
}

val none : injection

(** [draw rates ~seed ~client ~attempt] decides every fault kind
    independently.  With {!is_zero} rates this is {!none} and costs
    nothing. *)
val draw : rates -> seed:int -> client:int -> attempt:int -> injection

(** The injected kinds, in taxonomy order — the ground-truth ledger. *)
val kinds_of : injection -> kind list
