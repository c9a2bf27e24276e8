(* Greedy scenario shrinking.

   Whatever a case got wrong — wrong or missing root cause, no
   failure, pipeline crash — the shrinker strips padding one step at
   a time, keeping only reductions that reproduce the *identical*
   verdict (the payloads are normalized to source lines, so "identical"
   is meaningful across reductions).  Padding removal strictly
   decreases [Gen.scenario_size], so the loop terminates; the fixpoint
   is a kernel-sized reproducer. *)

let instr_count (case : Gen.case) = case.Gen.c_program.Ir.Types.n_instrs

type result = {
  shrunk : Gen.case;
  target : Check.verdict;   (* the verdict being preserved *)
  rounds : int;             (* accepted reductions *)
  checks : int;             (* candidate evaluations *)
  size_before : int;        (* instruction counts *)
  size_after : int;
}

(* Rebuild a candidate case, preserving the original's labelling: the
   truth may have been altered by the caller (the tests doctor accept
   sets to force failures) and must travel with the reproducer — as
   must the fault environment, or a fault-induced verdict could never
   reproduce on the candidate. *)
let case_of (orig : Gen.case) sc =
  {
    (Gen.case_of_scenario ~name:orig.Gen.c_name ~seed:orig.Gen.c_seed sc) with
    Gen.c_truth = orig.Gen.c_truth;
    c_args_cycle = orig.Gen.c_args_cycle;
    c_faults = orig.Gen.c_faults;
  }

(* [run case target]: greedily minimize [case] while [Check.check]
   keeps returning [target].  Returns the original case unchanged when
   it has no scenario (corpus-loaded cases are already shrunk). *)
let run ?pool (case : Gen.case) (target : Check.verdict) =
  match case.Gen.c_scenario with
  | None ->
    {
      shrunk = case;
      target;
      rounds = 0;
      checks = 0;
      size_before = instr_count case;
      size_after = instr_count case;
    }
  | Some sc0 ->
    let checks = ref 0 in
    let reproduces sc =
      incr checks;
      Check.verdict_equal (Check.check ?pool (case_of case sc)).Check.verdict
        target
    in
    let rec loop sc rounds =
      match List.find_opt reproduces (Gen.shrink_candidates sc) with
      | Some sc' -> loop sc' (rounds + 1)
      | None -> (sc, rounds)
    in
    let sc, rounds = loop sc0 0 in
    let shrunk = case_of case sc in
    {
      shrunk;
      target;
      rounds;
      checks = !checks;
      size_before = instr_count case;
      size_after = instr_count shrunk;
    }
