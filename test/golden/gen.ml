(* Write every golden fixture's current bytes to DIR/<name>.bin, the
   golden diagnosis ledger to DIR/diagnoses.tsv, the cost ledger to
   DIR/costs.tsv and the pinned `gist_cli experiments` printout (Table 1)
   to DIR/experiments.txt; with NAMEs after DIR, write only those
   ("diagnoses", "costs" and "experiments" name the text files).  The
   diagnosis ledger replays the corpus reproducers from test/corpus. *)

let write dir file contents =
  let oc = open_out_bin (Filename.concat dir file) in
  output_string oc contents;
  close_out oc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let dir, names = match args with d :: ns -> (d, ns) | [] -> (".", []) in
  let wanted name = names = [] || List.mem name names in
  List.iter
    (fun (name, build) -> if wanted name then write dir (name ^ ".bin") (build ()))
    Tsupport.Golden.fixtures;
  if wanted "diagnoses" then
    write dir "diagnoses.tsv"
      (Tsupport.Diagnoses.to_string
         (Tsupport.Diagnoses.ledger ~corpus:"test/corpus"));
  if wanted "costs" then
    write dir "costs.tsv" (Tsupport.Costs.to_string (Tsupport.Costs.ledger ()));
  if wanted "experiments" then
    write dir "experiments.txt" (Experiments.Table1.render ())
