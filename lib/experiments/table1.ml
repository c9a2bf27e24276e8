(* Table 1: per bug, software size, static slice size (source LOC and
   IR instructions), ideal and Gist-computed sketch sizes, and the
   failure-sketch computation latency in failure recurrences, next to
   the monitored runs it took. *)

let render () =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "Table 1: Bugs used to evaluate Gist.\n\
     (slice and sketch sizes in source LOC (IR instructions); latency in\n\
     failure recurrences (#rec), out of #runs monitored production runs)\n";
  Printf.bprintf b "%-13s %-8s %9s %-8s %15s %13s %13s %5s %7s\n" "Bug"
    "Version" "Size[LOC]" "BugID" "Static slice" "Ideal sketch" "Gist sketch"
    "#rec" "#runs";
  List.iter
    (fun (r : Harness.bug_result) ->
      let d = r.diagnosis in
      let ideal_src, ideal_instr = Harness.ideal_size r in
      let gist_src, gist_instr = Harness.sketch_size r in
      Printf.bprintf b "%-13s %-8s %9d %-8s %8d (%4d) %6d (%4d) %6d (%4d) %5d %7d\n"
        r.bug.name r.bug.version r.bug.claimed_loc r.bug.bug_id
        (Slicing.Slicer.source_loc_count d.slice)
        (Slicing.Slicer.instr_count d.slice)
        ideal_src ideal_instr gist_src gist_instr d.recurrences d.total_runs)
    (Harness.results ());
  Buffer.add_char b '\n';
  Buffer.contents b

let print () =
  print_string (render ());
  flush stdout
