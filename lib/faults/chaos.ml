type rates = {
  kill : float;
  ckpt_corrupt : float;
  torn_write : float;
  poison : float;
}

let zero = { kill = 0.0; ckpt_corrupt = 0.0; torn_write = 0.0; poison = 0.0 }

let is_zero r =
  r.kill = 0.0 && r.ckpt_corrupt = 0.0 && r.torn_write = 0.0 && r.poison = 0.0

let spread p =
  {
    kill = p;
    ckpt_corrupt = p /. 2.0;
    torn_write = p /. 2.0;
    poison = p /. 4.0;
  }

type plan = {
  p_kill : bool;
  p_torn : int option;
  p_ckpt_corrupt : int option;
}

let no_plan = { p_kill = false; p_torn = None; p_ckpt_corrupt = None }

(* Distinct stream tags so the round stream and the poison stream never
   correlate even at equal (seed, index). *)
let tag_round = 0x5EC1
let tag_poison = 0x5EC2

let draw rates ~seed ~round =
  if rates.kill = 0.0 then no_plan
  else begin
    let seed = Exec.Rng.mix (Exec.Rng.mix seed tag_round) round in
    let rng = Exec.Rng.create seed in
    let hit p = Exec.Rng.float rng < p in
    let p_kill = hit rates.kill in
    (* Draw the damage kinds unconditionally so the stream position —
       and therefore every later round's decisions from this rng — does
       not depend on whether this round was killed. *)
    let torn = hit rates.torn_write in
    let torn_len = 1 + Exec.Rng.int rng 24 in
    let corrupt = hit rates.ckpt_corrupt in
    let salt = Exec.Rng.int rng 0x3FFFFFFF in
    if not p_kill then no_plan
    else
      {
        p_kill;
        p_torn = (if torn then Some torn_len else None);
        p_ckpt_corrupt = (if corrupt then Some salt else None);
      }
  end

let poisoned rates ~seed ~name =
  rates.poison > 0.0
  &&
  let h = Hw.Codec.digest ~key:[] name in
  let rng = Exec.Rng.create (Exec.Rng.mix (Exec.Rng.mix seed tag_poison) h) in
  Exec.Rng.float rng < rates.poison
