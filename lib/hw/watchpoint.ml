(* Hardware watchpoints: x86 exposes four debug registers (DR0-DR3,
   paper §3.2.3).  A trap records the globally sequenced access --
   watchpoints are the only source of *total* cross-thread order and of
   data values in Gist (Intel PT provides neither). *)

open Ir.Types

type trap = {
  w_seq : int;
  w_tid : int;
  w_iid : iid;
  w_addr : int;
  w_rw : Exec.Interp.rw;
  w_value : Exec.Value.t;
}

type t = {
  capacity : int;
  mutable slots : int list; (* watched addresses, |slots| <= capacity *)
  mutable traps : trap list; (* newest first *)
  mutable seq : int;
  counters : Exec.Cost.t;
}

let create ?(capacity = 4) counters = { capacity; slots = []; traps = []; seq = 0; counters }

let watched t addr = List.mem addr t.slots

let free_slots t = t.capacity - List.length t.slots

(* Arm a watchpoint; returns false when out of debug registers or the
   address is already watched (Gist keeps a set of active watchpoints
   to avoid double-arming, §3.2.3). *)
let arm t addr =
  if watched t addr then false
  else if free_slots t <= 0 then false
  else begin
    t.slots <- addr :: t.slots;
    t.counters.wp_arms <- t.counters.wp_arms + 1;
    true
  end

(* The interpreter's mem_access hook. *)
let on_access t ~tid ~iid ~addr ~rw ~value =
  if watched t addr then begin
    t.seq <- t.seq + 1;
    t.counters.wp_traps <- t.counters.wp_traps + 1;
    t.traps <-
      { w_seq = t.seq; w_tid = tid; w_iid = iid; w_addr = addr; w_rw = rw;
        w_value = value }
      :: t.traps
  end

let traps t = List.rev t.traps
