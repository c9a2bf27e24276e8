(** Synthetic report-stream replay: session {!Service.spec}s drawn
    from the Bugbase entries (recycled under distinct session names)
    and fuzz-generated labelled bugs.  Pure functions of their seed:
    per-bug failure probes are memoised, so a stream of hundreds of
    sessions pays each distinct bug's offline probe once. *)

(** 10% aggregate rate spread uniformly over the fault taxonomy — the
    stream's standard degraded regime. *)
val default_fault_rates : Faults.Fault.rates

(** One Bugbase session spec, unattended (no oracle), streaming
    ingest, adaptive early exit on by default.  [tweak] post-processes
    the config (e.g. to bound iterations for a soak).  [None] when the
    bug's target failure never manifests. *)
val bugbase_spec :
  ?early_exit:bool ->
  ?faults:Faults.Fault.rates * int ->
  ?tweak:(Gist.Config.t -> Gist.Config.t) ->
  name:string ->
  Bugbase.Common.t ->
  Service.spec option

(** The session spec of a fuzz case whose target [failure] is known:
    the campaign's bounded fleet configuration, streaming ingest,
    adaptive early exit on by default, no oracle unless given. *)
val case_spec :
  ?early_exit:bool ->
  ?tweak:(Gist.Config.t -> Gist.Config.t) ->
  ?oracle:(Fsketch.Sketch.t -> bool) ->
  name:string ->
  Fuzz.Gen.case ->
  Exec.Failure.report ->
  Service.spec

(** {!case_spec} after {!Fuzz.Check.prepare}'s target probe; [None]
    when the case is not diagnosable (no target failure in the probe
    window). *)
val fuzz_spec :
  ?early_exit:bool ->
  ?faults:Faults.Fault.rates * int ->
  ?tweak:(Gist.Config.t -> Gist.Config.t) ->
  name:string ->
  Fuzz.Gen.case ->
  Service.spec option

(** [mixed ~seed ~sessions ()]: [sessions] specs drawn in a seeded
    deterministic shuffle from all diagnosable Bugbase bugs plus
    [fuzz_count] (default 8) fuzz cases; session [k] recycles its base
    bug under the name ["<bug>#<k>"]. *)
val mixed :
  ?early_exit:bool ->
  ?faults:Faults.Fault.rates * int ->
  ?tweak:(Gist.Config.t -> Gist.Config.t) ->
  ?fuzz_count:int ->
  seed:int ->
  sessions:int ->
  unit ->
  Service.spec list

(** [storm ~seed ~sessions ~dup_ratio ()]: a duplicate-heavy stream —
    a seeded [hot] (default 4) subset of the base population storms
    (each storm session re-reports a hot bug under a fresh ["@k"]
    name), the remaining base bugs arrive once each as fresh traffic.
    About [dup_ratio] of the sessions are storm duplicates; the mix
    is a pure function of the seed, so storms replay bit-identically
    in tests, bench and recovery differentials.  [fuzz_count]
    defaults to 24 to give the fresh side a real population. *)
val storm :
  ?early_exit:bool ->
  ?faults:Faults.Fault.rates * int ->
  ?tweak:(Gist.Config.t -> Gist.Config.t) ->
  ?fuzz_count:int ->
  ?hot:int ->
  seed:int ->
  sessions:int ->
  dup_ratio:float ->
  unit ->
  Service.spec list
