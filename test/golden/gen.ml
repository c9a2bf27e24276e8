(* Write every golden fixture's current bytes to DIR/<name>.bin, the
   golden diagnosis ledger to DIR/diagnoses.tsv and the cost ledger to
   DIR/costs.tsv; with NAMEs after DIR, write only those ("diagnoses"
   and "costs" name the ledgers).  The diagnosis ledger replays the
   corpus reproducers from test/corpus. *)

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
    write dir "costs.tsv" (Tsupport.Costs.to_string (Tsupport.Costs.ledger ()))
