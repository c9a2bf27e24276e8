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

   A ring has one form: bytes.  Each per-thread stream appends every
   packet's bytes to its ring as it records (real PT writes into a ring
   of physical pages), and pending TNT bits are an int mask plus a
   count, so recording allocates nothing per packet.  [Wire.encode]
   replays a packet list through the same writer, so the byte layout is
   written in one place.

   The trace has one reader, [decode]: the byte codec, then a
   control-flow walk that reconstructs the executed instruction
   sequence between each PGE/PGD pair by re-walking the program,
   consuming one TNT bit per conditional branch and one TIP per return.
   The walk runs on the lowered successor table
   ([Ir.Lowered.l_dsteps], memoised by [Analysis.Cache.lowered]): one
   array load per reconstructed instruction. *)

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
  let tag_pge = 0x01
  let tag_pgd = 0x02
  let tag_tip = 0x04
  let tag_ptw = 0x05

  (* A ring being written: the packet bytes that follow the header, the
     packet count the header will carry, and the two delta chains. *)
  type ring = {
    body : Buffer.t;
    mutable count : int;
    mutable last_iid : int;
    mutable last_tsc : int;
  }

  let ring () =
    { body = Buffer.create 64; count = 0; last_iid = 0; last_tsc = 0 }

  let put_iid w iid =
    Wirebuf.put_int w.body (iid - w.last_iid);
    w.last_iid <- iid

  (* A PGE, PGD or TIP: the tag, then the target on the iid chain. *)
  let put_transfer w tag pc =
    Buffer.add_char w.body (Char.unsafe_chr tag);
    put_iid w pc;
    w.count <- w.count + 1

  (* [n] outcomes, the oldest in bit 0 of [mask]. *)
  let put_tnt w ~n ~mask =
    Buffer.add_char w.body (Char.unsafe_chr (0x10 lor n));
    Buffer.add_char w.body (Char.unsafe_chr mask);
    w.count <- w.count + 1

  let put_ptw w ~tsc ~iid ~addr ~write ~value =
    Buffer.add_char w.body (Char.unsafe_chr tag_ptw);
    Wirebuf.put_uint w.body (tsc - w.last_tsc);
    w.last_tsc <- tsc;
    put_iid w iid;
    Wirebuf.put_int w.body addr;
    Wirebuf.put_bool w.body write;
    Wirebuf.put_value w.body value;
    w.count <- w.count + 1

  (* The finished ring: magic, varint count, body. *)
  let contents w =
    let b = Buffer.create (Buffer.length w.body + 10) in
    Buffer.add_char b (Char.unsafe_chr magic);
    Wirebuf.put_uint b w.count;
    Buffer.add_buffer b w.body;
    Buffer.contents b

  let put w = function
    | PGE pc -> put_transfer w tag_pge pc
    | PGD pc -> put_transfer w tag_pgd pc
    | TIP pc -> put_transfer w tag_tip pc
    | TNT bits ->
      let n = List.length bits in
      if n < 1 || n > 8 then
        invalid_arg "Pt.Wire: TNT carries 1..8 outcomes";
      let mask, _ =
        List.fold_left
          (fun (m, i) bit -> ((if bit then m lor (1 lsl i) else m), i + 1))
          (0, 0) bits
      in
      put_tnt w ~n ~mask
    | PTW p ->
      put_ptw w ~tsc:p.p_tsc ~iid:p.p_iid ~addr:p.p_addr ~write:p.p_write
        ~value:p.p_value

  let encode packets =
    let w = ring () in
    List.iter (put w) packets;
    contents w

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
           let last_iid = ref 0 and last_tsc = ref 0 in
           let next_iid () =
             last_iid := !last_iid + Wirebuf.get_int r;
             !last_iid
           in
           let i = ref 0 in
           while !i < count && !err = None do
             (match Wirebuf.byte r with
              | 0x01 -> acc := PGE (next_iid ()) :: !acc
              | 0x02 -> acc := PGD (next_iid ()) :: !acc
              | 0x04 -> acc := TIP (next_iid ()) :: !acc
              | 0x05 ->
                let tsc = !last_tsc + Wirebuf.get_uint r in
                last_tsc := tsc;
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

(* ------------------------------------------------------------------ *)
(* Recorder *)

type stream = {
  s_tid : int;
  mutable enabled : bool;
  ring : Wire.ring;
  mutable tnt_mask : int;        (* pending TNT bits, the oldest in bit 0 *)
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

let absent =
  {
    s_tid = -1;
    enabled = false;
    ring = Wire.ring ();
    tnt_mask = 0;
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
      ring = Wire.ring ();
      tnt_mask = 0;
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

(* Every packet books one packet and its cost-model trace volume
   (PGE 8, PGD 2, TIP 5, TNT 1, PTW 10 bytes), which is not its ring
   size. *)
let charge r volume =
  r.counters.pt_packets <- r.counters.pt_packets + 1;
  r.counters.pt_bytes <- r.counters.pt_bytes + volume

let pge r s pc =
  Wire.put_transfer s.ring Wire.tag_pge pc;
  charge r 8

let pgd r s pc =
  Wire.put_transfer s.ring Wire.tag_pgd pc;
  charge r 2

let tip r s pc =
  Wire.put_transfer s.ring Wire.tag_tip pc;
  charge r 5

let flush_tnt r s =
  if s.tnt_len > 0 then begin
    Wire.put_tnt s.ring ~n:s.tnt_len ~mask:s.tnt_mask;
    charge r 1;
    s.tnt_mask <- 0;
    s.tnt_len <- 0
  end

let enabled r tid = (stream r tid).enabled

let enable r ~tid ~pc =
  let s = stream r tid in
  if not s.enabled then begin
    s.enabled <- true;
    pge r s pc;
    r.counters.pt_toggles <- r.counters.pt_toggles + 1
  end

let disable r ~tid ~pc =
  let s = stream r tid in
  if s.enabled then begin
    flush_tnt r s;
    pgd r s pc;
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
    if taken then s.tnt_mask <- s.tnt_mask lor (1 lsl s.tnt_len);
    s.tnt_len <- s.tnt_len + 1;
    if s.tnt_len >= 8 then flush_tnt r s
  end

let on_ret r ~tid ~resume =
  let s = stream r tid in
  if s.enabled then begin
    flush_tnt r s;
    match resume with
    | Some i -> tip r s i
    | None ->
      (* Thread exit: the return completed, so the segment closes with
         a sentinel PGD (-2) that never truncates the decode. *)
      tip r s 0;
      pgd r s (-2);
      s.enabled <- false
  end

(* Extension: emit a PTWRITE-style data packet for an instrumented
   access (only while the stream is tracing). *)
let on_data r ~tid ~iid ~addr ~rw ~value =
  let s = stream r tid in
  if s.enabled then begin
    flush_tnt r s;
    r.tsc <- r.tsc + 1;
    Wire.put_ptw s.ring ~tsc:r.tsc ~iid ~addr
      ~write:(rw = Exec.Interp.Write) ~value;
    charge r 10
  end

(* End of run: close any stream still tracing (e.g. the run crashed).
   The PGD carries the last noted pc: the decoder stops at the last
   packet-backed position, like a real decoder facing a truncated
   trace. *)
let finish r =
  Array.iter
    (fun s ->
      if s.enabled then begin
        flush_tnt r s;
        pgd r s s.last_pc;
        s.enabled <- false
      end)
    r.streams

let wire_of r tid = Wire.contents (stream r tid).ring

let packets_of r tid = fst (Wire.decode (wire_of r tid))

let all_tids r =
  Array.fold_right
    (fun s acc -> if s != absent then s.s_tid :: acc else acc)
    r.streams []

(* ------------------------------------------------------------------ *)
(* Decoder *)

type decoded = {
  d_iids : iid list;                (* executed instructions, in order *)
  d_branches : (iid * bool) list;   (* branch outcomes, in order *)
  d_data : ptw list;                (* PTWRITE data packets, in TSC order *)
}

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

let rec last = function [ p ] -> Some p | [] -> None | _ :: tl -> last tl

(* Whether a crash-truncated segment ([stop_pc = -1]) has no packet
   left before its end: the walk stops here rather than falling
   through past the crash. *)
let crashed_here c stop_pc =
  stop_pc = -1 && c.bits = []
  && (match c.rest with [] | PGD _ :: _ -> true | _ -> false)

(* The control-flow walk over a decoded packet list.  No packets is a
   clean empty trace: a well-formed ring with no packets comes from a
   thread that never enabled tracing, and a dropped ring has already
   been flagged by the byte codec. *)
let walk program packets =
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
  (match last control with
   | None | Some (PGD _) -> ()
   | Some _ -> err := Some Truncated);
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
         walk stops at the last packet-backed point. *)
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
      | Ir.Lowered.D_fall next_pc ->
        if not (crashed_here c stop_pc) then walk next_pc stop_pc
      | Ir.Lowered.D_stop ->
        if not (crashed_here c stop_pc) then
          raise (Stop_decode (Malformed_packet "fell off block end"))
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

(* Byte-level damage came first, so its error wins over the walk's. *)
let decode program bytes =
  let packets, wire_err = Wire.decode bytes in
  let d, walk_err = walk program packets in
  (d, match wire_err with Some _ -> wire_err | None -> walk_err)
