(* Write every golden fixture's current bytes to DIR/<name>.bin. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  List.iter
    (fun (name, build) ->
      let oc = open_out_bin (Filename.concat dir (name ^ ".bin")) in
      output_string oc (build ());
      close_out oc)
    Tsupport.Golden.fixtures
