(** The fuzz accuracy gate through the multiplexed path: the exact
    campaign {!Fuzz.Runner.run} checks one-shot — same cases, fault
    stamping, probe stages, oracle and verdict scoring
    ({!Fuzz.Check}'s stages) — with every diagnosable case diagnosed
    as one session of a shared {!Service} (shrinking skipped), driven
    by {!Chaos.drive}. *)

(** Poisoned sessions ({!Faults.Chaos.poisoned}) and how many of them
    completed as typed failures — the two must be equal. *)
type chaos_summary = { cs_poisoned : int; cs_contained : int }

(** [run_chaos ~rates ~seed ~count ()] returns the campaign report,
    what {!Chaos.drive} did (kills, recoveries, the final service
    incarnation) and the poison containment count.  The driver
    submits every diagnosable case to a {!Service.default} service,
    retrying [Busy] after a round, so the in-flight window stays
    saturated without unbounded queueing.

    Under [rates] the driver's kill plan is
    [Faults.Chaos.draw rates ~seed]: seeded kills between rounds, torn
    journal tails and corrupted checkpoints ahead of recovery; the
    same rates poison sessions.  Poisoned cases
    are excluded from the report's accuracy statistics (their
    diagnosis is destroyed by design; what the gate checks is
    containment, via [cs_contained]); every other case must come back
    with the same verdict as the unkilled service — recovery is
    byte-identical — so the worst-pattern accuracy bar carries over
    unchanged.

    At {!Faults.Chaos.zero} nothing is killed or poisoned, and since
    multiplexed diagnoses are bit-identical to their one-shot
    counterparts the report matches [Fuzz.Runner.run ~shrink:false]
    verdict for verdict. *)
val run_chaos :
  ?jobs:int ->
  ?faults:Faults.Fault.rates * int ->
  rates:Faults.Chaos.rates ->
  seed:int ->
  count:int ->
  unit ->
  Fuzz.Runner.report * Chaos.outcome * chaos_summary
