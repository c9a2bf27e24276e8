(* Event counters feeding the overhead cost model (Figs 11 and 13).
   The interpreter counts base work; tracing layers (PT, watchpoints,
   record/replay, software tracing) count their own extra events here. *)

type t = {
  mutable instrs : int;          (* base work: executed IR instructions *)
  mutable branches : int;        (* conditional branches executed *)
  mutable mem_accesses : int;    (* shared (heap/global) accesses *)
  mutable sched_switches : int;
  mutable pt_packets : int;
  mutable pt_bytes : int;        (* PT trace volume while enabled *)
  mutable pt_toggles : int;      (* PGE/PGD transitions (ioctl cost) *)
  mutable wp_traps : int;        (* hardware watchpoint hits *)
  mutable wp_arms : int;         (* debug-register writes (ptrace cost) *)
  mutable rr_events : int;       (* record/replay nondeterministic events *)
  mutable sw_trace_events : int; (* software control-flow tracing events *)
}

let create () =
  {
    instrs = 0;
    branches = 0;
    mem_accesses = 0;
    sched_switches = 0;
    pt_packets = 0;
    pt_bytes = 0;
    pt_toggles = 0;
    wp_traps = 0;
    wp_arms = 0;
    rr_events = 0;
    sw_trace_events = 0;
  }

(* Cost constants, in abstract cycles.  Calibrated so that the *shape*
   of the paper's §5.3 numbers holds on the bugbase workloads:
   full-PT tracing lands near ~10% overhead on branchy programs,
   Gist's adaptive tracking in the low single digits, watchpoint
   arming/traps sub-1%, software tracing 3x-5000x, and rr record/replay
   orders of magnitude above PT. *)
let base_cycles_per_instr = 10.0
let cycles_per_pt_byte = 10.0
let cycles_per_pt_toggle = 120.0
let cycles_per_wp_trap = 120.0
let cycles_per_wp_arm = 250.0
let cycles_per_rr_event = 110.0
let cycles_per_sw_trace_event = 60.0

let base_cycles c = base_cycles_per_instr *. float_of_int c.instrs

let pt_extra_cycles c =
  (cycles_per_pt_byte *. float_of_int c.pt_bytes)
  +. (cycles_per_pt_toggle *. float_of_int c.pt_toggles)

let wp_extra_cycles c =
  (cycles_per_wp_trap *. float_of_int c.wp_traps)
  +. (cycles_per_wp_arm *. float_of_int c.wp_arms)

let rr_extra_cycles c = cycles_per_rr_event *. float_of_int c.rr_events

let sw_trace_extra_cycles c =
  cycles_per_sw_trace_event *. float_of_int c.sw_trace_events

(* Overhead of a tracing layer as a percentage of base work. *)
let percent ~extra ~base = if base <= 0.0 then 0.0 else 100.0 *. extra /. base

let gist_overhead_percent c =
  percent ~extra:(pt_extra_cycles c +. wp_extra_cycles c) ~base:(base_cycles c)

let pt_overhead_percent c =
  percent ~extra:(pt_extra_cycles c) ~base:(base_cycles c)

let rr_overhead_percent c =
  percent ~extra:(rr_extra_cycles c) ~base:(base_cycles c)

let sw_trace_overhead_percent c =
  percent ~extra:(sw_trace_extra_cycles c) ~base:(base_cycles c)
