(* An Intel Processor Trace simulator.

   Like the real feature (paper §3.2.2 and §6), it:
   - records only control flow: conditional-branch outcomes as TNT bits
     and return targets as TIP packets, delimited by PGE/PGD packets
     when tracing is toggled at runtime;
   - produces per-thread streams with *no order across threads* (the
     paper's per-core partial-order limitation; Gist compensates with
     hardware watchpoints);
   - carries no data values;
   - has a byte-accounted trace volume feeding the overhead model.

   Streams are packed: each per-thread stream is a growable packet
   array appended in place (real PT writes into a ring of physical
   pages), and pending TNT bits live in a fixed 8-slot buffer, so
   recording allocates nothing per packet beyond the packet itself.
   [packets_of] reads the array front to back — the same oldest-first
   order the previous newest-first list representation produced after
   its reversal.

   The decoder reconstructs the executed instruction sequence between
   each PGE/PGD pair by re-walking the program, consuming one TNT bit
   per conditional branch and one TIP per return.  The walk runs on the
   lowered successor table ([Ir.Lowered.l_dsteps], memoised by
   [Analysis.Cache.lowered]): one array load per reconstructed
   instruction, instead of a by-iid Hashtbl probe, a function-table
   lookup and an O(blocks) label scan. *)

open Ir.Types

(* A PTWRITE-style data packet: the hardware extension the paper's §6
   proposes ("if Intel PT also captured data addresses and values along
   with the control-flow, we could eliminate the need for hardware
   watchpoints and the complexity of a cooperative approach").  The TSC
   payload gives data packets a global order across per-thread streams,
   as real PTWRITE+TSC packets would. *)
type ptw = {
  p_tsc : int;
  p_iid : iid;
  p_addr : int;
  p_write : bool;
  p_value : Exec.Value.t;
}

type packet =
  | PGE of iid        (* trace enabled; payload = first traced pc *)
  | PGD of iid        (* trace disabled; payload = disable pc, -1 if truncated *)
  | TNT of bool list  (* up to 8 branch outcomes, oldest first *)
  | TIP of iid        (* return target; 0 = thread exit *)
  | PTW of ptw        (* extension: a data packet (address + value + TSC) *)

let packet_bytes = function
  | PGE _ -> 8
  | PGD _ -> 2
  | TNT _ -> 1
  | TIP _ -> 5
  | PTW _ -> 10

type stream = {
  s_tid : int;
  mutable enabled : bool;
  mutable buf : packet array;    (* packed ring; [buf.(0 .. len-1)] used *)
  mutable len : int;
  tnt_buf : bool array;          (* pending TNT bits, oldest first *)
  mutable tnt_len : int;         (* < 8 *)
  mutable last_pc : int;         (* last pc seen while enabled (FUP) *)
}

(* Streams are indexed by tid (the interpreter hands out dense tids
   from 0), so finding a thread's stream on every step is one array
   load; slots of threads that have no stream yet hold [absent]. *)
type recorder = {
  counters : Exec.Cost.t;
  mutable streams : stream array;
  mutable tsc : int; (* global timestamp counter for PTW packets *)
}

(* The array slots beyond [len] need a placeholder; PGD (-1) is as good
   as any and never read. *)
let placeholder = PGD (-1)

let absent =
  {
    s_tid = -1;
    enabled = false;
    buf = [||];
    len = 0;
    tnt_buf = [||];
    tnt_len = 0;
    last_pc = -1;
  }

let create counters = { counters; streams = Array.make 8 absent; tsc = 0 }

let new_stream r tid =
  let cap = Array.length r.streams in
  if tid >= cap then begin
    let bigger = Array.make (max (2 * cap) (tid + 1)) absent in
    Array.blit r.streams 0 bigger 0 cap;
    r.streams <- bigger
  end;
  let s =
    {
      s_tid = tid;
      enabled = false;
      buf = Array.make 64 placeholder;
      len = 0;
      tnt_buf = Array.make 8 false;
      tnt_len = 0;
      last_pc = -1;
    }
  in
  r.streams.(tid) <- s;
  s

(* A thread's stream, created on first use.  Tids are non-negative. *)
let stream r tid =
  if tid >= 0 && tid < Array.length r.streams then
    let s = Array.unsafe_get r.streams tid in
    if s != absent then s else new_stream r tid
  else new_stream r tid

let emit r s p =
  if s.len = Array.length s.buf then begin
    let bigger = Array.make (2 * s.len) placeholder in
    Array.blit s.buf 0 bigger 0 s.len;
    s.buf <- bigger
  end;
  s.buf.(s.len) <- p;
  s.len <- s.len + 1;
  r.counters.pt_packets <- r.counters.pt_packets + 1;
  r.counters.pt_bytes <- r.counters.pt_bytes + packet_bytes p

let flush_tnt r s =
  if s.tnt_len > 0 then begin
    emit r s (TNT (Array.to_list (Array.sub s.tnt_buf 0 s.tnt_len)));
    s.tnt_len <- 0
  end

let enabled r tid = (stream r tid).enabled

let enable r ~tid ~pc =
  let s = stream r tid in
  if not s.enabled then begin
    s.enabled <- true;
    emit r s (PGE pc);
    r.counters.pt_toggles <- r.counters.pt_toggles + 1
  end

let disable r ~tid ~pc =
  let s = stream r tid in
  if s.enabled then begin
    flush_tnt r s;
    emit r s (PGD pc);
    s.enabled <- false;
    r.counters.pt_toggles <- r.counters.pt_toggles + 1
  end

(* Track the current pc of an enabled stream so a crash-time flush can
   emit it, like the FUP accompanying a real PGD. *)
let note_pc r ~tid ~pc =
  let s = stream r tid in
  if s.enabled then s.last_pc <- pc

let on_branch r ~tid ~taken =
  let s = stream r tid in
  if s.enabled then begin
    s.tnt_buf.(s.tnt_len) <- taken;
    s.tnt_len <- s.tnt_len + 1;
    if s.tnt_len >= 8 then flush_tnt r s
  end

let on_ret r ~tid ~resume =
  let s = stream r tid in
  if s.enabled then begin
    flush_tnt r s;
    match resume with
    | Some i -> emit r s (TIP i)
    | None ->
      (* Thread exit: the return completed, so the segment closes with
         a sentinel PGD (-2) that never truncates the decode. *)
      emit r s (TIP 0);
      emit r s (PGD (-2));
      s.enabled <- false
  end

(* Extension: emit a PTWRITE-style data packet for an instrumented
   access (only while the stream is tracing). *)
let on_data r ~tid ~iid ~addr ~rw ~value =
  let s = stream r tid in
  if s.enabled then begin
    flush_tnt r s;
    r.tsc <- r.tsc + 1;
    emit r s
      (PTW
         {
           p_tsc = r.tsc;
           p_iid = iid;
           p_addr = addr;
           p_write = (rw = Exec.Interp.Write);
           p_value = value;
         })
  end

(* End of run: close any stream still tracing (e.g. the run crashed).
   The PGD carries -1: the decoder stops at the last packet-backed
   position, like a real decoder facing a truncated trace. *)
let finish r =
  Array.iter
    (fun s ->
      if s.enabled then begin
        flush_tnt r s;
        emit r s (PGD s.last_pc);
        s.enabled <- false
      end)
    r.streams

let packets_of r tid =
  let s = stream r tid in
  Array.to_list (Array.sub s.buf 0 s.len)

let all_tids r =
  Array.fold_right
    (fun s acc -> if s != absent then s.s_tid :: acc else acc)
    r.streams []

(* ------------------------------------------------------------------ *)
(* Typed decode faults, shared by the byte-level ring codec below and
   the control-flow walk: a damaged stream yields the clean decoded
   prefix plus one of these, never an out-of-bounds access.  Crash
   truncation is NOT an error -- [finish] terminates a crashed stream
   with a PGD, so a missing terminator can only mean the ring itself
   lost its tail. *)
type error =
  | Empty_stream            (* the ring arrived with no bytes at all *)
  | Truncated               (* stream does not end with a PGD *)
  | Bad_target of int       (* transfer target outside the program *)
  | Malformed_packet of string

let error_to_string = function
  | Empty_stream -> "empty ring (no bytes arrived)"
  | Truncated -> "truncated stream (missing PGD terminator)"
  | Bad_target pc -> Printf.sprintf "transfer target %d outside the program" pc
  | Malformed_packet m -> m

(* ------------------------------------------------------------------ *)
(* Wire: the binary ring representation.  Real PT writes packets into a
   ring of physical pages as bytes; this codec is that ring.  Packets
   are varint-packed and iid-delta-encoded (transfer targets are near
   each other, so deltas stay in one or two bytes), and the codec is
   the layer fleet tamper models damage -- harm lands on the encoded
   bytes, exactly where a real ring is harmed.

   Layout: one magic byte, a varint packet count, then packets.  Tag
   bytes: 0x01 PGE, 0x02 PGD, 0x04 TIP, 0x05 PTW, 0x10|n an n-bit TNT
   (n in 1..8) followed by one outcome-mask byte.  All iid payloads
   (PGE/PGD/TIP targets, PTW sites) share one zigzag delta chain; PTW
   timestamps delta-encode against the previous PTW in the stream.

   The count header makes every truncation detectable: a ring that
   lost its tail either cuts a packet mid-byte ([Wirebuf.Short]) or
   ends cleanly short of the promised count -- both decode to the
   clean packet prefix plus [Truncated].  A ring with {e no} bytes is
   the distinct [Empty_stream]: a dropped ring, not a damaged one
   (fleet-health counters must not book drops as corruption). *)
module Wire = struct
  let magic = 0xB7

  type chain = { mutable last_iid : int; mutable last_tsc : int }

  let add_packet b ch p =
    let delta_iid iid =
      let d = iid - ch.last_iid in
      ch.last_iid <- iid;
      Wirebuf.put_int b d
    in
    match p with
    | PGE pc ->
      Buffer.add_char b '\001';
      delta_iid pc
    | PGD pc ->
      Buffer.add_char b '\002';
      delta_iid pc
    | TIP pc ->
      Buffer.add_char b '\004';
      delta_iid pc
    | TNT bits ->
      let n = List.length bits in
      if n < 1 || n > 8 then
        invalid_arg "Pt.Wire: TNT carries 1..8 outcomes";
      Buffer.add_char b (Char.chr (0x10 lor n));
      let mask, _ =
        List.fold_left
          (fun (m, i) bit -> ((if bit then m lor (1 lsl i) else m), i + 1))
          (0, 0) bits
      in
      Buffer.add_char b (Char.chr mask)
    | PTW w ->
      Buffer.add_char b '\005';
      Wirebuf.put_uint b (w.p_tsc - ch.last_tsc);
      ch.last_tsc <- w.p_tsc;
      delta_iid w.p_iid;
      Wirebuf.put_int b w.p_addr;
      Wirebuf.put_bool b w.p_write;
      Wirebuf.put_value b w.p_value

  let encode_into b ~count packet_at =
    Buffer.add_char b (Char.chr magic);
    Wirebuf.put_uint b count;
    let ch = { last_iid = 0; last_tsc = 0 } in
    for i = 0 to count - 1 do
      add_packet b ch (packet_at i)
    done

  let encode packets =
    let b = Buffer.create (16 + (4 * List.length packets)) in
    let arr = Array.of_list packets in
    encode_into b ~count:(Array.length arr) (Array.get arr);
    Buffer.contents b

  let decode bytes =
    if String.length bytes = 0 then ([], Some Empty_stream)
    else
      let r = Wirebuf.reader bytes in
      if Wirebuf.byte r <> magic then
        ([], Some (Malformed_packet "bad ring magic"))
      else begin
        let acc = ref [] in
        let err = ref None in
        (try
           let count = Wirebuf.get_uint r in
           let ch = { last_iid = 0; last_tsc = 0 } in
           let next_iid () =
             ch.last_iid <- ch.last_iid + Wirebuf.get_int r;
             ch.last_iid
           in
           let i = ref 0 in
           while !i < count && !err = None do
             (match Wirebuf.byte r with
              | 0x01 -> acc := PGE (next_iid ()) :: !acc
              | 0x02 -> acc := PGD (next_iid ()) :: !acc
              | 0x04 -> acc := TIP (next_iid ()) :: !acc
              | 0x05 ->
                let tsc = ch.last_tsc + Wirebuf.get_uint r in
                ch.last_tsc <- tsc;
                let iid = next_iid () in
                let addr = Wirebuf.get_int r in
                let write = Wirebuf.get_bool r in
                let value = Wirebuf.get_value r in
                acc :=
                  PTW
                    {
                      p_tsc = tsc;
                      p_iid = iid;
                      p_addr = addr;
                      p_write = write;
                      p_value = value;
                    }
                  :: !acc
              | tag when tag land 0xF0 = 0x10 && tag land 0x0F >= 1
                         && tag land 0x0F <= 8 ->
                let n = tag land 0x0F in
                let mask = Wirebuf.byte r in
                acc :=
                  TNT (List.init n (fun i -> mask land (1 lsl i) <> 0)) :: !acc
              | tag ->
                err :=
                  Some
                    (Malformed_packet
                       (Printf.sprintf "unknown ring tag %#x" tag)));
             incr i
           done;
           if !err = None && !i < count then err := Some Truncated
           else if !err = None && not (Wirebuf.eof r) then
             err := Some (Malformed_packet "trailing ring bytes")
         with Wirebuf.Short -> err := Some Truncated);
        (List.rev !acc, !err)
      end
end

(* The ring as bytes, straight from the packed packet array (no
   intermediate packet list). *)
let wire_of r tid =
  let s = stream r tid in
  let b = Buffer.create (16 + (4 * s.len)) in
  Wire.encode_into b ~count:s.len (Array.get s.buf);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoder *)

type decoded = {
  d_iids : iid list;                (* executed instructions, in order *)
  d_branches : (iid * bool) list;   (* branch outcomes, in order *)
  d_data : ptw list;                (* PTWRITE data packets, in TSC order *)
}

exception Malformed of string
exception Stop_decode of error

type cursor = {
  mutable rest : packet list;
  mutable bits : bool list; (* bits of the TNT packet being consumed *)
}

let next_packet c =
  match c.rest with
  | [] -> None
  | p :: tl ->
    c.rest <- tl;
    Some p

let rec take_bit c =
  match c.bits with
  | b :: tl ->
    c.bits <- tl;
    Some b
  | [] -> (
    match c.rest with
    | TNT bits :: tl ->
      c.rest <- tl;
      c.bits <- bits;
      take_bit c
    | _ -> None)

(* Peek: is the next meaningful packet a PGD? (used to detect segment end) *)
let at_segment_end c = c.bits = [] && (match c.rest with PGD _ :: _ -> true | _ -> false)

let decode_checked program packets =
  (* No packets at all is its own condition, not a truncation: a thread
     whose stream never toggled on records nothing legitimately, while a
     dropped ring arrives empty illegitimately.  Only the caller can
     tell the two apart, so the decoder reports the fact and lets
     fleet-health accounting classify it. *)
  if packets = [] then
    ({ d_iids = []; d_branches = []; d_data = [] }, Some Empty_stream)
  else
  let dsteps = (Analysis.Cache.lowered program).Ir.Lowered.l_dsteps in
  let n = Array.length dsteps in
  (* Data packets carry their own timestamps; split them out so the
     control-flow walk sees a pure branch/transfer stream. *)
  let data, control =
    List.partition_map
      (function PTW w -> Left w | p -> Right p)
      packets
  in
  let data = List.sort (fun a b -> compare a.p_tsc b.p_tsc) data in
  let err = ref None in
  (* A complete stream is PGD-terminated: [finish] closes every
     still-enabled stream, so a non-PGD tail means the ring lost
     packets.  The prefix below still decodes. *)
  (match List.rev control with
   | last :: _ when (match last with PGD _ -> false | _ -> true) ->
     err := Some Truncated
   | _ -> ());
  let c = { rest = control; bits = [] } in
  let iids = ref [] and branches = ref [] in
  (* Decode one segment starting at [pc], until the PGD. *)
  let rec walk pc stop_pc =
    if pc = stop_pc then ()
    else if pc < 0 || pc >= n then
      (* A packet-carried target (PGE start or TIP resume) pointing
         outside the program: damaged stream, stop here. *)
      raise (Stop_decode (Bad_target pc))
    else begin
      iids := pc :: !iids;
      (* Straight-line instructions fall through — unless the trace is
         truncated (the run crashed while tracing), in which case the
         walk stops at the last packet-backed point rather than walking
         past the crash. *)
      let fall next =
        if stop_pc = -1 && c.bits = [] && c.rest = [] then ()
        else if stop_pc = -1 && at_segment_end c then ()
        else next ()
      in
      match dsteps.(pc) with
      | Ir.Lowered.D_jump target -> walk target stop_pc
      | Ir.Lowered.D_branch (bt, be) -> (
        match take_bit c with
        | None -> (
          (* No bit left: legitimate only when the stream ends here or
             at the segment's PGD (execution crashed at/just after this
             branch); anything else sitting where branch bits belong is
             damage. *)
          match c.rest with
          | [] | PGD _ :: _ -> ()
          | _ -> raise (Stop_decode (Malformed_packet "expected branch bits")))
        | Some taken ->
          branches := (pc, taken) :: !branches;
          walk (if taken then bt else be) stop_pc)
      | Ir.Lowered.D_call entry -> walk entry stop_pc
      | Ir.Lowered.D_ret -> (
        match next_packet c with
        | Some (TIP 0) -> () (* thread exit *)
        | Some (TIP resume) -> walk resume stop_pc
        | Some (PGD _) | None -> () (* truncated *)
        | Some _ ->
          raise (Stop_decode (Malformed_packet "expected TIP after return")))
      | Ir.Lowered.D_fall next_pc -> fall (fun () -> walk next_pc stop_pc)
      | Ir.Lowered.D_stop ->
        fall (fun () ->
            raise (Stop_decode (Malformed_packet "fell off block end")))
    end
  in
  let rec segments () =
    match next_packet c with
    | None -> ()
    | Some (PGE start) ->
      let stop_pc =
        (* Scan ahead for this segment's PGD payload (the disable pc). *)
        let rec scan = function
          | PGD pc :: _ -> pc
          | _ :: tl -> scan tl
          | [] -> -1
        in
        scan c.rest
      in
      walk start stop_pc;
      (* Consume through the PGD. *)
      let rec drop () =
        match next_packet c with
        | Some (PGD _) | None -> ()
        | Some _ -> drop ()
      in
      drop ();
      c.bits <- [];
      segments ()
    | Some _ ->
      raise (Stop_decode (Malformed_packet "expected PGE at segment start"))
  in
  (try segments () with Stop_decode e -> if !err = None then err := Some e);
  ( { d_iids = List.rev !iids; d_branches = List.rev !branches; d_data = data },
    !err )

let decode program packets =
  match decode_checked program packets with
  | d, None -> d
  (* A never-enabled stream is benign here: [decode] predates fleet
     health accounting and its callers treat "no packets" as "ran
     nothing traced". *)
  | d, Some Empty_stream -> d
  | _, Some e -> raise (Malformed (error_to_string e))

(* Decode every stream of a recorder. *)
let decode_all r program =
  List.map (fun tid -> (tid, decode program (packets_of r tid))) (all_tids r)
