(* Damage models for the fleet fault injector.

   Faults here simulate in-ring damage: the PT buffer or watchpoint
   log is harmed *before* the client seals its report, so the envelope
   checksum is consistent with the damaged payload and the server must
   catch the harm by structural validation (an unterminated stream, an
   out-of-range target, a trap on a statement that does not exist).
   Corruption is therefore structurally destructive by construction;
   value-preserving bit flips that decode to a plausible-but-wrong
   trace would need per-packet CRCs, which real PT does not have
   either (see DESIGN.md §7).

   Every function is a pure function of (salt, input). *)

(* Damage one packet in place.  All shapes are structurally invalid:
   a transfer target beyond the program, a PGE opening mid-segment, or
   a stray TIP where the decoder expects branch bits. *)
let corrupt_packets ~salt ~n_instrs packets =
  match packets with
  | [] -> []
  | _ ->
    let rng = Exec.Rng.create (Exec.Rng.mix salt 0x9e7) in
    let n = List.length packets in
    let idx = Exec.Rng.int rng n in
    let out_of_range () = n_instrs + 1 + Exec.Rng.int rng 64 in
    let damaged p =
      match Exec.Rng.int rng 3 with
      | 0 -> [ Hw.Pt.TIP (out_of_range ()) ]
      | 1 -> [ Hw.Pt.PGE (out_of_range ()) ]
      | _ -> [ Hw.Pt.TIP (out_of_range ()); p ]
    in
    List.concat (List.mapi (fun i p -> if i = idx then damaged p else [ p ]) packets)

(* Damage one watchpoint trap: point it at a statement that does not
   exist.  Caught by the server's semantic validation pass. *)
let corrupt_traps ~salt ~n_instrs traps =
  match traps with
  | [] -> []
  | _ ->
    let rng = Exec.Rng.create (Exec.Rng.mix salt 0x5b3) in
    let n = List.length traps in
    let idx = Exec.Rng.int rng n in
    let bad_iid = n_instrs + 1 + Exec.Rng.int rng 64 in
    List.mapi
      (fun i (t : Hw.Watchpoint.trap) ->
        if i = idx then { t with Hw.Watchpoint.w_iid = bad_iid } else t)
      traps

(* Whether a [Wp_corrupt] hit damages the log in-ring (pre-seal,
   caught semantically) or the report bytes in transit (post-seal,
   caught by the envelope checksum).  Both validation layers stay
   exercised under any fault mix. *)
let wp_corrupt_in_transit ~salt =
  let rng = Exec.Rng.create (Exec.Rng.mix salt 0x3d9) in
  Exec.Rng.bool rng

(* --- wire-level damage: harm lands on the encoded ring bytes --- *)

(* Cut the encoded ring short: keep a non-empty strict prefix of the
   bytes.  The ring's count header promises more packets than survive,
   so the decoder always reports [Truncated] (either a packet is cut
   mid-byte or the stream ends cleanly short of the count) -- never
   [Empty_stream], which is reserved for dropped rings. *)
let truncate_wire ~salt bytes =
  let n = String.length bytes in
  if n <= 1 then bytes
  else begin
    let rng = Exec.Rng.create (Exec.Rng.mix salt 0x7c1) in
    let keep = 1 + Exec.Rng.int rng (n - 1) in
    String.sub bytes 0 keep
  end

(* Damage one packet *through* the encoding: decode the ring, corrupt
   one packet structurally, re-encode.  The harm is expressed in ring
   bytes (what a real flipped page would carry) yet stays structurally
   destructive by construction -- an arbitrary byte flip could decode
   to a plausible-but-wrong trace, which per-packet-CRC-less PT cannot
   catch (DESIGN.md §7), so we don't model it as silent damage. *)
let corrupt_wire_packets ~salt ~n_instrs bytes =
  let packets, _ = Hw.Pt.Wire.decode bytes in
  match packets with
  | [] -> bytes
  | _ -> Hw.Pt.Wire.encode (corrupt_packets ~salt ~n_instrs packets)

(* In-transit damage to an already-sealed byte envelope: flip one bit
   of one byte.  The envelope digest covers every byte, so the server
   books this as checksum damage. *)
let flip_wire_byte ~salt bytes =
  let n = String.length bytes in
  if n = 0 then bytes
  else begin
    let rng = Exec.Rng.create (Exec.Rng.mix salt 0x6e5) in
    let idx = Exec.Rng.int rng n in
    let bit = Exec.Rng.int rng 8 in
    let b = Bytes.of_string bytes in
    Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lxor (1 lsl bit)));
    Bytes.unsafe_to_string b
  end
