(* Varint wire primitives shared by the binary encodings (the PT ring
   bytes of [Pt.Wire] and every format described with [Codec]).

   Writers append to a [Buffer.t]; readers walk a string with a mutable
   cursor and allocate nothing per scalar read (the only allocations a
   reader performs are the decoded payloads themselves: strings and
   boxed floats).  A read that would run past the end raises {!Short} --
   the caller maps it to its own typed truncation error; no primitive
   ever reads out of bounds. *)

exception Short

(* --- writers --- *)

(* LEB128: 7 bits per byte, low bits first, high bit = continuation.
   The OCaml int is 63-bit; negative inputs are a programming error
   (use [put_int]).  The loop is a top-level function so that a call
   builds no closure: the PT recorder writes a varint per packet. *)
let rec put_varint b n =
  if n < 0x80 then Buffer.add_char b (Char.chr n)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (n land 0x7F)));
    put_varint b (n lsr 7)
  end

let put_uint b n =
  if n < 0 then invalid_arg "Wirebuf.put_uint: negative";
  put_varint b n

(* Zigzag: small magnitudes of either sign stay one byte. *)
let put_int b n = put_uint b ((n lsl 1) lxor (n asr 62))

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

(* Fixed 8 bytes, little-endian IEEE bits: floats must round-trip
   exactly (report checksums and diagnosis output depend on it). *)
let put_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let put_string b s =
  put_uint b (String.length s);
  Buffer.add_string b s

let put_value b (v : Exec.Value.t) =
  match v with
  | Exec.Value.VInt i ->
    Buffer.add_char b '\001';
    put_int b i
  | Exec.Value.VPtr a ->
    Buffer.add_char b '\002';
    put_int b a
  | Exec.Value.VStr s ->
    Buffer.add_char b '\003';
    put_string b s
  | Exec.Value.VTid t ->
    Buffer.add_char b '\004';
    put_int b t
  | Exec.Value.VNull -> Buffer.add_char b '\005'
  | Exec.Value.VUnit -> Buffer.add_char b '\006'

(* --- readers --- *)

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit src =
  let limit = Option.value ~default:(String.length src) limit in
  if pos < 0 || pos > limit || limit > String.length src then
    invalid_arg "Wirebuf.reader: window outside the string";
  { src; pos; limit }

let eof r = r.pos >= r.limit

let byte r =
  if r.pos >= r.limit then raise Short;
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

(* [put_uint] writes at most nine bytes and never a value with bit 62
   set, so a longer varint, or one that decodes negative, is damage:
   refuse it rather than hand a negative length or count onward. *)
let get_uint r =
  let c = byte r in
  if c < 0x80 then c
  else
    let rec go shift acc =
      let c = byte r in
      let acc = acc lor ((c land 0x7F) lsl shift) in
      if c < 0x80 then if acc < 0 then raise Short else acc
      else if shift >= 56 then raise Short
      else go (shift + 7) acc
    in
    go 7 (c land 0x7F)

let get_int r =
  let z = get_uint r in
  (z lsr 1) lxor (-(z land 1))

let get_bool r = byte r <> 0

let get_float r =
  if r.limit - r.pos < 8 then raise Short;
  let bits = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits bits

(* Lengths are compared against the bytes left, never added to [pos]:
   [pos + n] wraps for [n] near [max_int]. *)
let get_string r =
  let n = get_uint r in
  if n > r.limit - r.pos then raise Short;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_value r : Exec.Value.t =
  match byte r with
  | 1 -> Exec.Value.VInt (get_int r)
  | 2 -> Exec.Value.VPtr (get_int r)
  | 3 -> Exec.Value.VStr (get_string r)
  | 4 -> Exec.Value.VTid (get_int r)
  | 5 -> Exec.Value.VNull
  | 6 -> Exec.Value.VUnit
  | _ -> raise Short
