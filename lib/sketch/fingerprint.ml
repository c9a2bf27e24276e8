(* Stable failure fingerprints for triage-time deduplication.

   The fingerprint must identify "the same bug" across submissions
   that differ in everything Gist does not care about: the session
   name, which client observed the failure (tid), the free-text
   message, and the pool size used to diagnose.  It therefore folds
   only inputs that are pure functions of (program, failure site):

   - the failure pattern: the coarse failure kind, the call stack
     (function names), and the failing statement identified by its
     source location and instruction shape — never by [iid], which is
     a program-load artifact, and never by [tid] or [message];
   - the normalized static slice: for every slice entry, its distance
     from the failure and the statement's (source line, instruction
     shape, source text).  The slice is deterministic (Slicer.compute
     is a pure fixpoint) and independent of the pool, so the fold is
     too;
   - a caller-supplied salt, used by the service to keep differently
     configured diagnoses of the same bug apart (a diagnosis under
     different config is a different artifact).

   Two helpers serve the collision audit: [predictor_pattern]
   canonicalizes a ranked predictor list in source-line terms, so
   tests can check that equal fingerprints imply equal diagnosis
   patterns and that distinct injected bugs get distinct
   fingerprints. *)

type t = int

let digest s = Hw.Codec.digest ~key:[] s

let hash_instr (i : Ir.Types.instr) =
  (* [iid] deliberately excluded: it is renumbered when a program is
     reloaded.  Everything else — the kind's [.gir] text (operands and
     labels, no iids), the source line, the source text — is
     load-order independent. *)
  Exec.Rng.mix
    (digest (Ir.Pp.kind_to_string i.Ir.Types.kind))
    (Exec.Rng.mix i.Ir.Types.loc.Ir.Types.line (digest i.Ir.Types.text))

let hash_failure (program : Ir.Types.program) (r : Exec.Failure.report) =
  let site =
    match Hashtbl.find_opt program.Ir.Types.by_iid r.Exec.Failure.pc with
    | Some (i, _) -> hash_instr i
    | None -> 0
  in
  let h =
    Exec.Rng.mix 0x51CE (digest (Exec.Failure.kind_tag r.Exec.Failure.kind))
  in
  let h =
    List.fold_left
      (fun acc f -> Exec.Rng.mix acc (digest f))
      h r.Exec.Failure.stack
  in
  Exec.Rng.mix h site

let hash_slice (s : Slicing.Slicer.t) =
  let program = s.Slicing.Slicer.program in
  List.fold_left
    (fun acc (e : Slicing.Slicer.entry) ->
      let stmt =
        match
          Hashtbl.find_opt program.Ir.Types.by_iid e.Slicing.Slicer.e_iid
        with
        | Some (i, _) -> hash_instr i
        | None -> 0
      in
      Exec.Rng.mix acc (Exec.Rng.mix e.Slicing.Slicer.e_dist stmt))
    0x51CE5 s.Slicing.Slicer.entries

let of_slice ?(salt = 0) program report slice =
  Exec.Rng.mix
    (Exec.Rng.mix salt (hash_failure program report))
    (hash_slice slice)

let compute ?salt program report =
  of_slice ?salt program report (Slicing.Slicer.compute program report)

let to_int fp = fp

(* ------------------------------------------------------------------ *)
(* Predictor-pattern canonicalization, for the collision audit and
   per-cluster artifacts.  Line-based (iids do not survive program
   reload), order-insensitive (sorted), duplicate-free. *)

let line_of (program : Ir.Types.program) iid =
  match Hashtbl.find_opt program.Ir.Types.by_iid iid with
  | Some (i, _) -> i.Ir.Types.loc.Ir.Types.line
  | None -> -1

let describe_predictor program (p : Predict.Predictor.t) =
  match p with
  | Predict.Predictor.Branch_taken (iid, taken) ->
    Printf.sprintf "branch@%d=%b" (line_of program iid) taken
  | Predict.Predictor.Data_value (iid, v) ->
    Printf.sprintf "value@%d=%s" (line_of program iid) v
  | Predict.Predictor.Value_range (iid, pred) ->
    Printf.sprintf "range@%d%s" (line_of program iid) pred
  | Predict.Predictor.Race (pat, a, b) ->
    Printf.sprintf "race:%s@%d->%d" pat (line_of program a) (line_of program b)
  | Predict.Predictor.Atomicity (pat, a, b, c) ->
    Printf.sprintf "atom:%s@%d-%d-%d" pat (line_of program a)
      (line_of program b) (line_of program c)

let predictor_pattern program preds =
  List.map (describe_predictor program) preds
  |> List.sort_uniq String.compare
  |> String.concat ";"

let pattern_of_ranked program (ranked : Predict.Stats.ranked list) =
  predictor_pattern program
    (List.map (fun r -> r.Predict.Stats.predictor) ranked)
