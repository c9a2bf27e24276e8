(** Stable failure fingerprints for triage-time deduplication.

    A fingerprint identifies a bug by what survives recurrence: the
    failure pattern (kind, stack, failing statement by source shape)
    and the normalized static slice — never by session name, client
    id ([tid]), free-text message, instruction id, or pool size.  Two
    submissions of the same (program, failure, salt) always fingerprint
    equal; the qcheck suite and the Bugbase/fuzz collision audit pin
    the invariances down. *)

type t

(** [compute ?salt program report] slices backward from the report
    and folds the normalized slice with the normalized failure
    pattern.  [salt] (default 0) keeps differently configured
    diagnoses of the same bug apart — the service salts with a digest
    of the diagnosis-relevant config. *)
val compute : ?salt:int -> Ir.Types.program -> Exec.Failure.report -> t

(** [of_slice ?salt program report slice] is {!compute} with the
    slice already in hand (it is deterministic, so precomputing is
    safe). *)
val of_slice :
  ?salt:int -> Ir.Types.program -> Exec.Failure.report -> Slicing.Slicer.t -> t

(** Non-negative, stable across processes for the same inputs. *)
val to_int : t -> int

(** {2 Predictor patterns}

    Canonical source-line rendering of a predictor set: sorted,
    deduplicated, iid-free.  Equal triage fingerprints must yield
    equal patterns once diagnosed — the collision audit checks
    exactly that. *)

val pattern_of_ranked : Ir.Types.program -> Predict.Stats.ranked list -> string
