(* Bring-your-own program: load a .gir file (the textual IR format of
   [Ir.Text]), let it fail in production, diagnose it with Gist, and
   export the sketch as JSON for tooling.

     dune exec examples/byo_program.exe [path.gir]

   Without an argument, a small racy logger is written to a temp file
   first, so the example is self-contained. *)

let default_source =
  {|# A tiny racy logger: two writers race on the shared cursor.
global cursor = 0

func writer(n) {
entry:
  %k = mov 0 @ logger.c:10 "for (k = 0; k < n; k++) {"
  jmp loop @ logger.c:10
loop:
  %more = lt %k, %n @ logger.c:10 "for (k = 0; k < n; k++) {"
  br %more ? body : out @ logger.c:10
body:
  %w = mov 0 @ logger.c:11 "format(entry);"
  jmp fmt @ logger.c:11
fmt:
  %busy = lt %w, 60 @ logger.c:11 "format(entry);"
  br %busy ? fmt_body : emit @ logger.c:11
fmt_body:
  %w = add %w, 1 @ logger.c:11 "format(entry);"
  jmp fmt @ logger.c:11
emit:
  %c = load @cursor @ logger.c:12 "int c = cursor;"
  %c1 = add %c, 1 @ logger.c:13 "cursor = c + 1;"
  store @cursor <- %c1 @ logger.c:13 "cursor = c + 1;"
  %k = add %k, 1 @ logger.c:14 "}"
  jmp loop @ logger.c:14
out:
  ret 0 @ logger.c:15 "return;"
}

func main(n) {
entry:
  %t1 = spawn writer(%n) @ logger.c:20 "spawn(writer, n);"
  %t2 = spawn writer(%n) @ logger.c:21 "spawn(writer, n);"
  join %t1 @ logger.c:22 "join all;"
  join %t2 @ logger.c:22 "join all;"
  %total = load @cursor @ logger.c:23 "int total = cursor;"
  %e = mul %n, 2 @ logger.c:24 "expected = 2 * n;"
  %ok = eq %total, %e @ logger.c:25 "assert(total == expected);"
  assert %ok "log cursor lost updates" @ logger.c:25 "assert(total == expected);"
  ret 0 @ logger.c:26 "return 0;"
}

main main
|}

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else begin
      let path = Filename.temp_file "byo" ".gir" in
      let oc = open_out path in
      output_string oc default_source;
      close_out oc;
      Printf.printf "wrote the demo program to %s\n\n" path;
      path
    end
  in
  match Ir.Text.load path with
  | Error e ->
    prerr_endline ("cannot load program: " ^ e);
    exit 1
  | Ok program ->
    let workload_of c =
      Exec.Interp.workload ~args:[ Exec.Value.VInt (2 + (c mod 3)) ] (c * 6151)
    in
    (match Exec.Interp.first_failure program workload_of with
     | None -> print_endline "no failure manifested in 2000 production runs"
     | Some (_, failure) ->
       Printf.printf "production failure: %s\n\n"
         (Exec.Failure.report_to_string failure);
       let d =
         Gist.Server.diagnose ~bug_name:(Filename.basename path)
           ~failure_type:"Concurrency bug, assertion failure" ~program
           ~workload_of ~failure
           ~oracle:(fun sketch ->
             List.exists
               (fun (r : Predict.Stats.ranked) ->
                 (match r.predictor with
                  | Predict.Predictor.Race _ | Atomicity _ -> true
                  | _ -> false)
                 && r.precision >= 0.9)
               sketch.predictors)
           ()
       in
       Fsketch.Render.print d.sketch;
       print_newline ();
       print_endline "JSON export (for IDE/tooling integration):";
       print_endline (Fsketch.Export.to_json d.sketch))
