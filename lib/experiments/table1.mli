(** Table 1: per bug, software size, static slice size, ideal and
    Gist-computed sketch sizes, and the diagnosis latency. *)

type row = {
  name : string;
  version : string;
  loc : int;
  bug_id : string;
  slice_src : int;
  slice_instr : int;
  ideal_src : int;
  ideal_instr : int;
  gist_src : int;
  gist_instr : int;
  recurrences : int;
  total_runs : int;
  wall_time_s : float;
  offline_time_s : float;
}

val rows : unit -> row list
val print : unit -> unit
