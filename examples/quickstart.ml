(* Quickstart: write a small multithreaded program in the IR, let it
   fail in "production", and ask Gist for the failure sketch.

     dune exec examples/quickstart.exe

   The program is a two-thread lost-update bug: both threads do
   balance = balance + amount without holding a lock, and a final
   invariant assertion fails when an update is lost. *)

open Ir.Types
module B = Ir.Builder

let file = "bank.c"
let i = B.file file
let r = B.r
let im = B.im

(* Each teller deposits [n] times: read balance, add, write back. *)
let teller =
  B.func "teller" ~params:[ "n" ]
    [
      B.block "entry"
        [ i 20 "for (k = 0; k < n; k++) {" (Assign ("k", Mov (im 0)));
          i 20 "" (Jmp "loop") ];
      B.block "loop"
        [
          i 20 "for (k = 0; k < n; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "n")));
          i 20 "" (Branch (r "more", "body", "out"));
        ];
      B.block "body"
        [
          i 21 "int b = balance;" (Load_global ("b", "balance"));
          i 22 "balance = b + 10;" (Assign ("b1", B.( +% ) (r "b") (im 10)));
          i 22 "balance = b + 10;" (Store_global ("balance", r "b1"));
          i 23 "print_receipt(k);" (Assign ("w", Mov (im 0)));
          i 23 "" (Jmp "receipt");
        ];
      B.block "receipt"
        [
          i 23 "print_receipt(k);" (Assign ("wc", B.( <% ) (r "w") (im 60)));
          i 23 "" (Branch (r "wc", "receipt_body", "next"));
        ];
      B.block "receipt_body"
        [
          i 23 "print_receipt(k);" (Assign ("w", B.( +% ) (r "w") (im 1)));
          i 23 "" (Jmp "receipt");
        ];
      B.block "next"
        [
          i 24 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 24 "" (Jmp "loop");
        ];
      B.block "out" [ i 25 "return;" (Ret (Some (im 0))) ];
    ]

let main =
  B.func "main" ~params:[ "n" ]
    [
      B.block "entry"
        [
          i 10 "t1 = spawn(teller, n);" (Spawn ("t1", "teller", [ r "n" ]));
          i 11 "t2 = spawn(teller, n);" (Spawn ("t2", "teller", [ r "n" ]));
          i 12 "join(t1); join(t2);" (Join (r "t1"));
          i 12 "join(t1); join(t2);" (Join (r "t2"));
          i 13 "int total = balance;" (Load_global ("total", "balance"));
          i 14 "expected = 2 * n * 10;" (Assign ("e1", B.( *% ) (r "n") (im 20)));
          i 15 "assert(total == expected);"
            (Assign ("ok", B.( =% ) (r "total") (r "e1")));
          i 15 "assert(total == expected);" (Assert (r "ok", "lost deposit"));
          i 16 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~globals:[ B.global "balance" ] ~main:"main" [ teller; main ]

(* Production workloads: each client deposits a few times with its own
   schedule seed. *)
let workload_of c =
  Exec.Interp.workload ~args:[ Exec.Value.VInt (3 + (c mod 3)) ] (c * 7919)

let () =
  print_endline "== Gist quickstart: diagnosing a lost-update bug ==\n";
  (* 1. A failure occurs in production and is reported (stack trace +
        failing statement), paper Fig. 2 step 1. *)
  match Exec.Interp.first_failure program workload_of with
  | None -> print_endline "no failure manifested; try more clients"
  | Some (_, failure) ->
    Printf.printf "production failure: %s\n\n"
      (Exec.Failure.report_to_string failure);
    (* 2. Diagnose: static slice + adaptive slice tracking over a
          cooperative fleet. *)
    let d =
      Gist.Server.diagnose ~bug_name:"bank lost-update"
        ~failure_type:"Concurrency bug, assertion failure" ~program
        ~workload_of ~failure
        ~oracle:(fun sketch ->
          (* the developer stops once a high-precision *cross-thread*
             predictor (a race or atomicity pattern) is in the sketch *)
          List.exists
            (fun (r : Predict.Stats.ranked) ->
              (match r.predictor with
               | Predict.Predictor.Race _ | Atomicity _ -> true
               | _ -> false)
              && r.precision >= 0.9 && r.n_failing_with >= 2)
            sketch.predictors)
        ()
    in
    Printf.printf
      "diagnosis: %d AsT iterations, %d failure recurrences, %d monitored \
       runs, %.2f%% fleet overhead\n\n"
      d.iterations d.recurrences d.total_runs d.avg_overhead_pct;
    (* 3. The failure sketch (paper Fig. 1 format). *)
    Fsketch.Render.print d.sketch
