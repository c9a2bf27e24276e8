(* The service write-ahead journal.  See journal.mli for the recovery
   contract; the load loop's two failure classes (truncate vs Damaged)
   are the whole design. *)

module W = Hw.Wirebuf
module C = Hw.Codec

type record =
  | Round of { round : int; digest : int }
  | Completed of { id : int; digest : int }
  | Checkpoint of { round : int; state : string }
  | Submitted of { id : int; name : string; fp : int; disp : int }
  | Drained of { round : int }

(* Submitted payloads carry their own version byte: the disposition
   vocabulary can grow without a journal-wide version bump. *)
let submitted_version = 1

type entry = Rec of record | Damaged of { kind : int; reason : string }

type t = {
  buf : Buffer.t;
  (* Byte offsets of appended checkpoints, newest first, for
     {!compact}.  Only offsets still inside [buf] are kept. *)
  mutable ckpts : int list;
}

let version = 1

(* A record frame: the magic byte and the record kind, then the
   length-prefixed payload and its digest.  The digest key words
   (3, kind, 0, version) are fixed by the v1 byte format. *)
let frame =
  C.sized_frame
    ~key:(fun kind -> [ 3; kind; 0; version ])
    C.(magic byte 0xA7 *> uint)

(* Kind 1 held the pre-triage submission record; it is retired, so
   an old frame of that kind loads as [Damaged]. *)
let kind_of = function
  | Round _ -> 2
  | Completed _ -> 3
  | Checkpoint _ -> 4
  | Submitted _ -> 5
  | Drained _ -> 6

(* Each kind's payload codec; [append] picks it by [kind_of], so a
   codec only ever encodes records of its own kind. *)
let payloads : (int * record C.t) list =
  C.
    [
      ( 2,
        conv
          (function Round { round; digest } -> (round, digest) | _ -> assert false)
          (fun (round, digest) -> Round { round; digest })
          (pair uint uint) );
      ( 3,
        conv
          (function Completed { id; digest } -> (id, digest) | _ -> assert false)
          (fun (id, digest) -> Completed { id; digest })
          (pair uint uint) );
      ( 4,
        conv
          (function
            | Checkpoint { round; state } -> (round, state) | _ -> assert false)
          (fun (round, state) -> Checkpoint { round; state })
          (pair uint string) );
      ( 5,
        versioned submitted_version
          (conv
             (function
               | Submitted { id; name; fp; disp } -> (id, name, (fp, disp))
               | _ -> assert false)
             (fun (id, name, (fp, disp)) -> Submitted { id; name; fp; disp })
             (triple uint string (pair uint uint))) );
      ( 6,
        conv
          (function Drained { round } -> round | _ -> assert false)
          (fun round -> Drained { round })
          uint );
    ]

let create () = { buf = Buffer.create 4096; ckpts = [] }

let append t record =
  (match record with
   | Checkpoint _ -> t.ckpts <- Buffer.length t.buf :: t.ckpts
   | Round _ | Completed _ | Submitted _ | Drained _ -> ());
  let kind = kind_of record in
  C.seal frame t.buf kind (C.encode (List.assoc kind payloads) record)

let compact t =
  match t.ckpts with
  | newest :: prev :: _ when prev > 0 ->
    (* Keep the last two checkpoints (the newest for recovery, one
       older as the corrupted-checkpoint fallback) and every record
       after the older one; anything earlier can never be read again.
       Completions dropped here were harvested before [prev] landed —
       a checkpoint refuses to write over an unharvested completion —
       so at-least-once delivery is unaffected. *)
    let bytes = Buffer.contents t.buf in
    Buffer.clear t.buf;
    Buffer.add_substring t.buf bytes prev (String.length bytes - prev);
    t.ckpts <- [ newest - prev; 0 ]
  | _ -> ()

let contents t = Buffer.contents t.buf

(* Frames until the first structural break (a torn tail).  A frame
   whose digest or payload is refused inside intact framing becomes
   [Damaged] and the walk goes on past it. *)
let load bytes =
  let r = W.reader bytes in
  let damaged kind reason = Damaged { kind; reason } in
  let rec go acc =
    if W.eof r then List.rev acc
    else
      match C.unseal frame r with
      | Error _ -> List.rev acc
      | Ok { C.header = kind; intact = false; _ } ->
        go (damaged kind "checksum mismatch" :: acc)
      | Ok { C.header = kind; pos; len; _ } ->
        let entry =
          match List.assoc_opt kind payloads with
          | None -> damaged kind "unknown record kind"
          | Some c -> (
            match C.decode c ~pos ~len bytes with
            | Ok rec_ -> Rec rec_
            | Error e -> damaged kind (C.error_to_string e))
        in
        go (entry :: acc)
  in
  go []

let save_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let tear ~n bytes =
  let keep = max 0 (String.length bytes - max 0 n) in
  String.sub bytes 0 keep

let corrupt_last_checkpoint ~salt bytes =
  (* Remember the newest checkpoint frame's payload span, then flip
     one byte inside it. *)
  let r = W.reader bytes in
  let rec walk last =
    if W.eof r then last
    else
      match C.unseal frame r with
      | Error _ -> last
      | Ok { C.header = 4; pos; len; _ } when len > 0 -> walk (Some (pos, len))
      | Ok _ -> walk last
  in
  match walk None with
  | None -> None
  | Some (off, len) ->
    let b = Bytes.of_string bytes in
    let i = off + (abs salt mod len) in
    let x = 1 + (abs salt mod 255) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
    Some (Bytes.to_string b)
