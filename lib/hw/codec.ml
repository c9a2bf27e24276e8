(* Typed binary codecs: one description per format yields its encoder
   and its total decoder.  See codec.mli for the count-bound and
   framing rules.

   Decoders signal failure with the private [Fail] exception (and
   [Wirebuf.Short] from the primitives); [decode] and [unseal] are the
   only places that catch them, so no exception escapes a decode. *)

module W = Wirebuf

type error =
  | Truncated
  | Bad_count of int
  | Bad_tag of int
  | Bad_magic of int
  | Bad_version of int
  | Bad_digest
  | Trailing of int
  | Invalid of string

let error_to_string = function
  | Truncated -> "truncated"
  | Bad_count n -> Printf.sprintf "count %d exceeds the bytes left" n
  | Bad_tag t -> Printf.sprintf "unknown tag %d" t
  | Bad_magic m -> Printf.sprintf "wrong magic %d" m
  | Bad_version v -> Printf.sprintf "unknown version %d" v
  | Bad_digest -> "digest mismatch"
  | Trailing n -> Printf.sprintf "%d trailing bytes" n
  | Invalid what -> what

exception Fail of error

let fail e = raise (Fail e)
let invalid what = fail (Invalid what)

type ('w, 'r) codec = { put : Buffer.t -> 'w -> unit; get : W.reader -> 'r }
type 'a t = ('a, 'a) codec

let put c = c.put

let encode c v =
  let b = Buffer.create 256 in
  c.put b v;
  Buffer.contents b

(* Every decode ends up here (or in [unseal]): the one place failures
   become values. *)
let run get =
  match get () with
  | v -> Ok v
  | exception Fail e -> Error e
  | exception W.Short -> Error Truncated

let decode c ?(pos = 0) ?len s =
  let len = Option.value ~default:(String.length s - pos) len in
  if pos < 0 || len < 0 || len > String.length s - pos then Error Truncated
  else
    let r = W.reader ~pos ~limit:(pos + len) s in
    run (fun () ->
        let v = c.get r in
        if not (W.eof r) then fail (Trailing (r.W.limit - r.W.pos));
        v)

(* The count bound: an element count can never exceed the bytes left,
   because every element takes at least one byte.  Checked before
   anything is allocated ([Wirebuf.get_string] holds string lengths to
   the same bound). *)
let count r =
  let n = W.get_uint r in
  if n > r.W.limit - r.W.pos then fail (Bad_count n);
  n

(* --- scalars --- *)

let uint = { put = W.put_uint; get = W.get_uint }
let int = { put = W.put_int; get = W.get_int }
let bool = { put = W.put_bool; get = W.get_bool }
let float = { put = W.put_float; get = W.get_float }
let value = { put = W.put_value; get = W.get_value }
let byte = { put = (fun b n -> Buffer.add_char b (Char.chr n)); get = W.byte }

let string = { put = W.put_string; get = W.get_string }

let fixed32 =
  {
    put = (fun b n -> Buffer.add_int32_le b (Int32.of_int n));
    get =
      (fun r ->
        if r.W.limit - r.W.pos < 4 then raise W.Short;
        let v = Int32.to_int (String.get_int32_le r.W.src r.W.pos) land 0xFFFFFFFF in
        r.W.pos <- r.W.pos + 4;
        v);
  }

let deltas =
  {
    put =
      (fun b l ->
        W.put_uint b (List.length l);
        ignore
          (List.fold_left
             (fun last x ->
               W.put_int b (x - last);
               x)
             0 l));
    get =
      (fun r ->
        let n = count r in
        let rec go k last acc =
          if k = 0 then List.rev acc
          else
            let x = last + W.get_int r in
            go (k - 1) x (x :: acc)
        in
        go n 0 []);
  }

(* --- structure --- *)

let list c =
  {
    put =
      (fun b l ->
        W.put_uint b (List.length l);
        List.iter (c.put b) l);
    get =
      (fun r ->
        let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (c.get r :: acc) in
        go (count r) []);
  }

let array c =
  {
    put =
      (fun b a ->
        W.put_uint b (Array.length a);
        Array.iter (c.put b) a);
    get =
      (fun r ->
        match count r with
        | 0 -> [||]
        | n ->
          let a = Array.make n (c.get r) in
          for i = 1 to n - 1 do
            a.(i) <- c.get r
          done;
          a);
  }

let option c =
  {
    put =
      (fun b -> function
        | None -> W.put_uint b 0
        | Some x ->
          W.put_uint b 1;
          c.put b x);
    get =
      (fun r ->
        match W.get_uint r with
        | 0 -> None
        | 1 -> Some (c.get r)
        | t -> fail (Bad_tag t));
  }

let pair a b =
  {
    put =
      (fun buf (x, y) ->
        a.put buf x;
        b.put buf y);
    get =
      (fun r ->
        let x = a.get r in
        (x, b.get r));
  }

let triple a b c =
  {
    put =
      (fun buf (x, y, z) ->
        a.put buf x;
        b.put buf y;
        c.put buf z);
    get =
      (fun r ->
        let x = a.get r in
        let y = b.get r in
        (x, y, c.get r));
  }

let conv into out c =
  { put = (fun b x -> c.put b (into x)); get = (fun r -> out (c.get r)) }

let constant c k err =
  {
    put = (fun b () -> c.put b k);
    get = (fun r -> match c.get r with v when v = k -> () | v -> fail (err v));
  }

let magic c k = constant c k (fun v -> Bad_magic v)
let version v = constant uint v (fun v -> Bad_version v)

let ( *> ) a c =
  {
    put =
      (fun b x ->
        a.put b ();
        c.put b x);
    get =
      (fun r ->
        a.get r;
        c.get r);
  }

let versioned v c = version v *> c

(* --- variants --- *)

type ('w, 'r) case = {
  tag : int;
  cput : Buffer.t -> 'w -> bool;  (* false: not this case *)
  cget : W.reader -> 'r;
}

let case tag c project inject =
  {
    tag;
    cput =
      (fun b w ->
        match project w with
        | None -> false
        | Some p ->
          W.put_uint b tag;
          c.put b p;
          true);
    cget = (fun r -> inject (c.get r));
  }

let const tag v =
  {
    tag;
    cput =
      (fun b w ->
        if w <> v then false
        else begin
          W.put_uint b tag;
          true
        end);
    cget = (fun _ -> v);
  }

let rec put_case b w = function
  | [] -> invalid_arg "Codec.variant: no case encodes the value"
  | c :: cases -> if not (c.cput b w) then put_case b w cases

let variant cases =
  let by_tag = Array.make (1 + List.fold_left (fun m c -> max m c.tag) 0 cases) None in
  List.iter (fun c -> by_tag.(c.tag) <- Some c) cases;
  {
    put = (fun b w -> put_case b w cases);
    get =
      (fun r ->
        let t = W.get_uint r in
        match if t < Array.length by_tag then by_tag.(t) else None with
        | Some c -> c.cget r
        | None -> fail (Bad_tag t));
  }

(* --- records --- *)

(* [fget r k] applies the constructor [k] to the fields decoded so
   far, in byte order; [|+] appends one more. *)
type ('w, 'c, 'k) fields = {
  fput : Buffer.t -> 'w -> unit;
  fget : W.reader -> 'c -> 'k;
}

let fields = { fput = (fun _ _ -> ()); fget = (fun _ k -> k) }

let ( |+ ) fs (c, proj) =
  {
    fput =
      (fun b w ->
        fs.fput b w;
        c.put b (proj w));
    fget =
      (fun r k ->
        let f = fs.fget r k in
        f (c.get r));
  }

let record k fs = { put = fs.fput; get = (fun r -> fs.fget r k) }

(* --- digest and frames --- *)

(* A splitmix-style avalanche on the native 63-bit int, allocation-free.
   Multiplications wrap, which is fine for mixing; the result is masked
   positive so [lsr] stays benign. *)
let mix h x =
  let z = h + (((x lsl 1) lor 1) * 0x9E3779B97F4A7C1) in
  let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land 0x3FFFFFFFFFFFFFFF

(* One multiply-xor per word of bulk bytes: a third of [mix]'s cost,
   still propagating any change through the rest of the fold. *)
let step h x = ((h lxor x) * 0x9E3779B97F4A7C1) land 0x3FFFFFFFFFFFFFFF

(* A range fold, not [String.sub] + fold: the verifying side must not
   copy a payload just to hash it.  Folds a 32-bit little-endian word
   per step (byte tail last): a word fits a 63-bit int with no
   truncation, so every payload bit reaches the hash -- a wider word
   would shed its top bits into [step]'s 62-bit mask.  The length is
   mixed in last, so truncation never cancels out. *)
let digest ~key ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Codec.digest: range outside the string";
  let h = ref (List.fold_left mix 0x77A9 key) in
  let stop = pos + len in
  let i = ref pos in
  while !i + 4 <= stop do
    h := step !h (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF);
    i := !i + 4
  done;
  while !i < stop do
    h := step !h (Char.code (String.unsafe_get s !i));
    incr i
  done;
  mix !h len

type 'h frame = { fheader : 'h t; key : 'h -> int list; sized : bool }

let frame ~key header = { fheader = header; key; sized = false }
let sized_frame ~key header = { fheader = header; key; sized = true }

let put_digest b d = Buffer.add_int64_le b (Int64.of_int d)

(* Digests are 62-bit, so a stored word with either top bit set is
   damage: map it to -1, which no digest equals ([Int64.to_int] alone
   would drop bit 63 and let a flip of it pass). *)
let get_digest r =
  if r.W.limit - r.W.pos < 8 then raise W.Short;
  let d = String.get_int64_le r.W.src r.W.pos in
  r.W.pos <- r.W.pos + 8;
  if Int64.shift_right_logical d 62 <> 0L then -1 else Int64.to_int d

let seal f b h payload =
  f.fheader.put b h;
  let d = digest ~key:(f.key h) payload in
  if f.sized then begin
    W.put_uint b (String.length payload);
    Buffer.add_string b payload;
    put_digest b d
  end
  else begin
    put_digest b d;
    Buffer.add_string b payload
  end

type 'h sealed = { header : 'h; pos : int; len : int; intact : bool }

let unseal f r =
  run (fun () ->
      let header = f.fheader.get r in
      let d, pos, len =
        if f.sized then begin
          let len = count r in
          let pos = r.W.pos in
          r.W.pos <- pos + len;
          (get_digest r, pos, len)
        end
        else begin
          let d = get_digest r in
          let pos = r.W.pos in
          r.W.pos <- r.W.limit;
          (d, pos, r.W.limit - pos)
        end
      in
      { header; pos; len; intact = digest ~key:(f.key header) ~pos ~len r.W.src = d })

let sealed_digest f s =
  let read () =
    let r = W.reader s in
    ignore (f.fheader.get r);
    get_digest r
  in
  match run read with
  | Ok d when not f.sized -> d
  | _ -> invalid_arg "Codec.sealed_digest: not a sealed frame"
