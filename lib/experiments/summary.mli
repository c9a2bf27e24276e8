(** The §5.3 headline numbers: Gist's average overhead, the CF/DF
    split, the rr-vs-Gist ratio, software-tracing cost, and the
    accuracy/latency averages — each printed against the paper's
    value. *)

type t = {
  gist_avg_overhead_pct : float;
  cf_overhead_range : float * float;
  df_overhead_range : float * float;
  rr_avg_pct : float;
  pt_full_avg_pct : float;
  rr_over_gist : float;
  sw_trace_range : float * float;
  avg_accuracy : float;
  avg_recurrences : float;
  fleet_dispatched : int;
      (** protocol deliveries across every diagnosis (all validated) *)
  fleet_anomalies : int;  (** lost + rejected + quarantined *)
}

val print : unit -> unit
