(** Flight recorder: a second observability layer on top of the {!Obs}
    ring (crash forensics, streaming latency histograms and a
    per-compartment health report).

    A [Forensics.t] is fed the same event stream as the trace ring but
    independently of it — [Machine.emit] forwards every event to
    {!ingest} when a recorder is attached, with or without a ring — and
    folds it {e online} into O(1)-memory state:

    - fixed log2-bucket {e histograms} of compartment-call latency,
      IRQ-entry-to-dispatch latency, allocation size and free→release
      (quarantine residency) latency, all in simulated cycles;
    - per-compartment counters (calls, faults, micro-reboots, live heap
      bytes and high-water mark);
    - an {!Obs.Tracker} holding the per-thread caller→callee call
      chains and the exact cycle attribution (it never drops an event,
      unlike a bounded ring), plus a bounded ring of recent events;
      chains and recent events are snapshotted into a {e crash dump} at
      every compartment fault, forced unwind and switcher abort
      ({!record_fault}, called by the kernel's trap paths).

    Like the trace ring, the recorder is {e observationally invisible}:
    nothing in here ticks the clock, touches simulated memory or feeds
    back into control flow (enforced by the all-sinks golden-cycles
    rule in [bench/dune] and the QCheck equality property in
    [test/test_obs_props.ml]).  [CHERIOT_OBS=forensics] attaches one to
    every new machine (see [Machine]).

    Layering: [cheriot_obs] keeps its tiny dependency cone — it never
    sees a capability.  The kernel hands {!record_fault} the register
    names and a function that renders one register from a copy of the
    register file taken at the fault ([Interp.save_regs], 64 ints), so
    the text is produced here only when a dump is read.

    Cost: every campaign scenario carries a recorder, so both halves
    stay cheap, and neither renders text.  {!ingest} does integer work:
    labels are the tracker's interned ids (found by pointer, so no
    string is hashed); the recent ring holds each event taken apart
    into ints and the emitters' strings, so it keeps no event alive
    through a minor collection; the tracker's frames and the heap
    tables (chunk base -> size, owner, cycle) are int arrays.  It
    allocates nothing but to grow an array.
    A fault copies the call chain and selects the recent events (the
    ring slots are overwritten later); {!regs}, {!recent_lines},
    {!dump_json} and {!pp_dump} render on every call, with one
    [Printf.sprintf] per register ([Capability.to_string]) and per line
    ({!Obs.event_line}), never through a formatter.  Rendering is pure,
    so a dump may be read any number of times, from any domain. *)

type t

val create : unit -> t
(** A fresh recorder.  At most 256 crash dumps are retained, dropping
    the oldest. *)

val ingest : t -> cycle:int -> Obs.kind -> unit
(** Fold one event into the recorder.  Called by [Machine.emit] for
    every traced event; must stay cheap and simulation-invisible. *)

val snapshot : t -> unit -> unit
(** [snapshot t] deep-copies the full ingest state (dumps, the tracker,
    per-compartment stats, all histograms, the recent-event ring) and
    returns a thunk restoring it in place.  Building block of
    {!Machine.snapshot}. *)

(* Crash dumps *)

type dump = {
  d_cycle : int;  (** simulated cycle of the fault *)
  d_comp : string;  (** faulting compartment *)
  d_thread : int;
  d_cause : string;
  d_addr : int;  (** faulting data address, -1 when not applicable *)
  d_pc : int;  (** faulting PC / entry address, -1 when unknown *)
  d_instr : string;  (** disassembled instruction or native entry label *)
  d_reg_names : string array;
      (** names of the captured capability registers, in register-file
          order; read them without rendering anything *)
  d_reg_value : int -> string;
      (** [d_reg_value i] renders register [i] of the file as it was at
          the fault, afresh on every call: a pure function over a copy
          the kernel took, safe to call from any domain and any number
          of times (see {!regs}) *)
  d_chain : Obs.Tracker.call list;
      (** switcher call chain at the fault, innermost first *)
  d_recent : Obs.event list;
      (** last ring events relevant to the faulting compartment,
          oldest first, selected at the fault (see {!recent_lines}) *)
  d_live_bytes : int;  (** compartment-owned live heap bytes at fault *)
  d_live_hwm : int;  (** compartment live-bytes high-water mark *)
  d_quarantine_bytes : int;  (** global outstanding quarantine bytes *)
  d_quarantine_chunks : int;
  d_handler_ran : bool;  (** the compartment's error handler was invoked *)
  mutable d_rebooted : bool;  (** a micro-reboot followed ({!note_reboot}) *)
}

val record_fault :
  t ->
  cycle:int ->
  comp:string ->
  thread:int ->
  cause:string ->
  addr:int ->
  pc:int ->
  instr:string ->
  regs:string array ->
  reg_value:(int -> string) ->
  handler_ran:bool ->
  unit
(** Snapshot a crash dump.  Called by the kernel at every compartment
    fault / forced unwind / switcher abort, before the unwind pops the
    recorder's call chain.  [regs] names the registers and [reg_value]
    renders one of them (see {!dump}); the recorder selects the recent
    events and copies the call chain now, and renders nothing. *)

val note_reboot : t -> comp:string -> unit
(** Record a completed micro-reboot of [comp]: bumps the compartment's
    reboot counter and marks its most recent dump as rebooted. *)

val dumps : t -> dump list
(** Retained dumps, oldest first. *)

val regs : dump -> (string * string) list
(** The register file as [(name, value)] pairs, rendered now with
    [Capability.to_string] by the dump's [d_reg_value]. *)

val recent_lines : dump -> string list
(** The dump's recent events rendered now as golden-trace lines
    ({!Obs.event_line}), oldest first. *)

val dump_json : dump -> Json.t
val pp_dump : Format.formatter -> dump -> unit

val dump_brief : dump -> string
(** One deterministic line (cycle, compartment, cause, addr, pc,
    instruction): the forensic anchor a containment-matrix row prints
    for each fault, and what the attack determinism properties compare
    across runs and job counts. *)

(* Streaming histograms: fixed log2 buckets, O(1) memory, simulated
   cycles only — never wall-clock. *)

type hist

val hist_create : unit -> hist
val hist_add : hist -> int -> unit
val hist_count : hist -> int
val hist_sum : hist -> int
val hist_min : hist -> int
val hist_max : hist -> int

val hist_quantile : hist -> float -> int
(** Deterministic quantile estimate: the upper bound of the first bucket
    whose cumulative count reaches the rank, clamped to the observed
    [min]/[max].  0 on an empty histogram. *)

val hist_copy : hist -> hist
(** An independent deep copy. *)

val hist_merge : hist -> hist -> hist
(** A fresh histogram equal to ingesting both inputs' observation
    streams (counts, sums and buckets add; min/max combine).  Exact,
    not approximate — log2 buckets are loss-free under union — hence
    associative and commutative with {!hist_create} as identity (the
    QCheck algebra in [test/test_forensics.ml]), which is what lets
    fleet rollups ({!Agg}) merge per-machine histograms in any
    grouping.  Inputs are not mutated. *)

val hist_buckets : hist -> (int * int) list
(** Non-empty buckets as [(upper_bound, count)] pairs, ascending —
    the raw material of OpenMetrics cumulative-bucket rendering. *)

val call_latency : t -> hist  (** Call_enter → Call_leave, per call *)
val irq_latency : t -> hist  (** Irq_enter → next Thread_dispatch *)
val alloc_size : t -> hist  (** bytes per successful allocation *)
val quarantine_residency : t -> hist  (** Quarantine → Release, per chunk *)

val comp_counters : t -> (string * int * int * int) list
(** Per-compartment [(name, calls, faults, reboots)], sorted by name —
    the counter snapshot {!Agg} merges across machines. *)

(* The per-compartment health report *)

val attribution : t -> total_cycles:int -> (string * int) list
(** The recorder's tracker totals ({!Obs.Tracker.totals}): the cycle
    attribution of every event ingested, equal to {!Obs.attribute} over
    an unbounded ring of the same run. *)

val report_json : t -> total_cycles:int -> Json.t
(** Fold dumps + histograms + the {!attribution} into one report: per-compartment rows (calls, faults,
    reboots, p50/p99 call cycles, heap high-water, quarantine-residency
    p99, attributed cycles), the four global histograms, every retained
    dump, and a sum check that the attribution partitions
    [total_cycles] exactly.  Output is deterministically sorted (pinned
    by [test/golden_report.expected]). *)

val report_table : t -> total_cycles:int -> string
(** The same fold as a fixed-width text table. *)
