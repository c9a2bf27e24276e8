(** The "developer decides AsT may stop" callback (paper §3.2.1).

    The developer is modelled as satisfied when the computed sketch
    covers every statement of the bug's root-cause core {e and} carries
    at least one convincing failure predictor (high precision, observed
    in a failing run). *)

val convincing_predictor : Fsketch.Sketch.t -> bool
val covers_ideal : Fsketch.Accuracy.ideal -> Fsketch.Sketch.t -> bool

(** The oracle for a bug, ready to pass to {!Gist.Server.diagnose}. *)
val for_bug : Bugbase.Common.t -> Fsketch.Sketch.t -> bool
