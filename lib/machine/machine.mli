(** The simulated CHERIoT core: tagged SRAM, MMIO bus, cycle clock,
    timer + interrupt lines, and the background hardware revoker (§2.1).

    All RTOS code runs "on" a [t]: memory is reached through the checked,
    cycle-charged accessors here, and modelled work is charged with
    [tick].  Interrupts are delivered at [tick] boundaries through a
    pluggable hook (installed by the scheduler); the hook runs with
    interrupts disabled.

    Internally [tick] is built around a {e next-event horizon}: the
    machine caches the earliest future cycle at which anything observable
    can happen (timer deadline, listener wakeup, the revoker sweep
    reaching a tagged granule or completing, a deliverable interrupt) and
    ticks that stay below it reduce to a single addition.  This is a host
    performance optimisation only — simulated cycle counts, trap points
    and interrupt timing are bit-identical to the straightforward
    implementation (enforced by the golden-cycles regression test). *)

(** A memory-mapped device. *)
module Device : sig
  type t = {
    name : string;
    read : addr:int -> size:int -> int;
    write : addr:int -> size:int -> int -> unit;
  }

  val ram : name:string -> size:int -> t
  (** A trivial register-file device backed by bytes (for tests/LED). *)
end

type t

val create : ?sram_size:int -> unit -> t
(** SRAM at 0x20000000, by default 256 KiB — the paper's Arty A7 setup.
    Attaches the observability sinks [CHERIOT_OBS] selects (see
    {!set_trace}); raises [Failure] on a bad [CHERIOT_OBS]. *)

val mem : t -> Memory.t
val sram_base : t -> int
val sram_size : t -> int

(* Clock *)

val cycles : t -> int

val tick : t -> int -> unit
(** Charge [n] cycles of work: advances the clock, progresses the
    revoker, fires the timer, and delivers pending interrupts if
    enabled. *)

val defer_window : t -> int -> bool
(** [defer_window m n] is [true] when charging up to [n] cycles as a
    single batched [tick] at the end of the batch is observationally
    identical to charging them one instruction at a time: the whole
    batch lies strictly below the cached event horizon, so no listener,
    timer deadline or IRQ delivery can fire inside it.  Anything that
    invalidates the horizon ([raise_irq], enabling interrupts with one
    pending, device work) makes this answer [false] until the next slow
    tick. *)

val defer_room : t -> int
(** [defer_window m n] is [n < defer_room m]: for a caller that sizes
    a batch instead of testing one. *)

val in_sram : t -> int -> bool
(** Whether [addr] lies inside SRAM (as opposed to MMIO space). *)

val clock_mhz : int
(** 33 MHz, the paper's FPGA clock; used to convert cycles to seconds. *)

val seconds_of_cycles : int -> float

(* Interrupts *)

val timer_irq : int
val revoker_irq : int
val ethernet_irq : int
val first_user_irq : int

val irq_enabled : t -> bool
val set_irq_enabled : t -> bool -> unit
(** Set the interrupt posture.  Invalidates the event horizon only when
    it enables delivery while an interrupt is already pending (the one
    case that can make an event happen sooner), or when a sink is
    attached ({!tracing}) and a revoker sweep is in flight, so that the
    next tick settles the sweep and its [Revoker_quantum] events land
    where they always did.  Untraced, the skipped settlement is
    invisible: sweep progress is additive. *)

val raise_irq : t -> int -> unit
(** Mark interrupt line [n] pending. *)

val pending : t -> int -> bool

val set_deliver_hook : t -> (int -> unit) option -> unit
(** Installed by the scheduler; called once per delivered interrupt with
    interrupts disabled.  The pending bit is cleared before the call. *)

val set_timer : t -> int option -> unit
(** Absolute cycle deadline for the next timer interrupt (None = off). *)

val timer_deadline : t -> int option

val skew_timer : t -> int -> unit
(** Shift the pending timer deadline by [delta] cycles (fault injection:
    a drifting or glitching timer).  Clamped so the deadline never moves
    into the past; no-op when no timer is armed. *)

(* Tick listeners — simulated external hardware (network world, fault
   engine).  Listeners must not call [tick]. *)

type listener_handle

val add_tick_listener : ?period:int -> t -> (int -> unit) -> listener_handle
(** Register a listener, O(1).  [period] (default 1) is the wakeup
    cadence in cycles: the listener is called from the first [tick] that
    reaches each wakeup, with the current cycle count, before interrupt
    delivery.  The default reproduces the legacy every-tick behaviour;
    [period = 0] parks the listener so it only runs at wakeups explicitly
    scheduled with {!set_listener_wakeup} — event-driven hardware should
    use this so quiescent devices cost nothing per tick. *)

val set_listener_wakeup : t -> listener_handle -> at:int -> unit
(** Schedule the listener's next wakeup at the given absolute cycle
    (overrides any pending wakeup; [max_int] parks it).  For periodic
    listeners this resets the phase; the period re-arms afterwards. *)

val remove_tick_listener : t -> listener_handle -> unit
(** Deregister; the handle becomes inert (double-remove is harmless).
    Lets scenario teardown (fault engine, netsim) detach cleanly instead
    of leaking listeners. *)

val set_post_tick_hook : t -> (unit -> unit) option -> unit
(** Called at the end of every tick that does event work, after interrupt
    delivery has completed.  The kernel uses it to take preemption
    decisions in a context where performing an effect is safe.  A hook
    that needs to run again at the very next tick even without a new
    event must call {!request_attention}. *)

val request_attention : t -> unit
(** Force the next [tick] onto the event path (and hence the post-tick
    hook to run), regardless of the computed horizon.  Sticky until the
    next event-path tick.  Used by the kernel when a preemption decision
    is pending but cannot be taken yet. *)

(* Observability — see {!Obs}, {!Forensics}, {!Profiler}.  Attaching any
   sink is observationally invisible: emission never ticks the clock,
   touches simulated memory or moves the event horizon later, so
   simulated cycle counts are bit-identical with sinks on or off
   (enforced by the golden-cycles rules in bench/dune and
   test_obs_props).  The one horizon difference is an extra no-op slow
   tick after a posture change during a revoker sweep (see
   {!set_irq_enabled}), which settles the sweep where the traced event
   stream has always shown it.

   Environment auto-attach (the one place this is documented): [create]
   reads [CHERIOT_OBS], a comma-separated subset of [trace] (a trace
   ring of {!Obs.create}'s default capacity),
   [forensics] (a flight recorder) and [profile] (an exact profiler;
   sampled profiling is [bench -- profile --interval N]).  Each sink
   attaches if and only if it is named, so every subset composes; an
   unknown name raises [Failure] naming the accepted ones.  {!emit}
   forwards every event to each attached sink, and {!tracing} answers
   [true] when at least one is attached. *)

val set_trace : t -> Obs.t option -> unit
val trace : t -> Obs.t option
(** The attached trace ring. *)

val tracing : t -> bool
(** Whether any sink (trace ring, flight recorder or profiler) is
    attached — the gate every emitter tests before building an event. *)

val set_forensics : t -> Forensics.t option -> unit
val forensics : t -> Forensics.t option
(** The attached flight recorder ({!Forensics}).  Fed from {!emit}
    like the trace ring, but independent of it. *)

val set_profiler : t -> Profiler.t option -> unit
val profiler : t -> Profiler.t option
(** The attached sampling profiler ({!Profiler}).  Fed from {!emit},
    independent of the other sinks. *)

val emit : t -> Obs.kind -> unit
(** Append an event stamped with the current cycle to every attached
    sink; no-op without one.  Hot paths should test {!tracing} first so
    the event payload is not even allocated when no sink is attached. *)

(* MMIO *)

val add_device : t -> base:int -> size:int -> Device.t -> unit
val device_regions : t -> (string * int * int) list
(** [(name, base, size)] for the loader's import-table MMIO grants. *)

val find_device : t -> string -> (int * int) option

(* Checked, cycle-charged memory access.  Dispatches SRAM or MMIO. *)

val load : t -> auth:Capability.t -> addr:int -> size:int -> int
val store : t -> auth:Capability.t -> addr:int -> size:int -> int -> unit
val load_cap : t -> auth:Capability.t -> addr:int -> Capability.t

val charge_load_cap : t -> auth:Capability.t -> addr:int -> unit
(** [load_cap] up to the load: its cycles and its checks
    ({!Memory.check_load_cap}), raising the same fault.  A caller that
    then loads the granule packed ({!Memory.load_cap_into}) before
    anything else can tick or store gets [load_cap]'s value without
    boxing it. *)
val store_cap : t -> auth:Capability.t -> addr:int -> Capability.t -> unit

val zero : t -> auth:Capability.t -> addr:int -> len:int -> unit
(** Checked zeroing, charged at capability-store width. *)

(* Revoker *)

val revoker_epoch : t -> int
(** Number of completed sweeps since boot (the hardware-exposed counter
    the allocator reads, §3.1.3). *)

val revoker_busy : t -> bool

val revoker_kick : t -> unit
(** Start a sweep if the revoker is idle. *)

val set_revoker_rate : t -> cycles_per_granule:int -> unit
(** Ablation knob (default {!Cost.revoker_cycles_per_granule}). *)

val run_revoker_to_completion : t -> unit
(** Spin (charging idle cycles) until the current sweep finishes.  Test
    and allocator-stall helper. *)

(* Snapshot / restore.

   A snapshot captures the entire reachable simulation state — memory
   with its tag and revocation bitmaps, the clock, interrupt and timer
   state, the revoker (including a mid-sweep position), the listener
   table, the trace ring and flight recorder, and every component that
   registered a capture with [on_snapshot] (interpreter register file,
   kernel, allocator, scheduler, netsim, firewall, fault engine).  [restore] puts
   it all back in place on the same live instances, so closures handed
   out before the snapshot keep working afterwards.

   Restorable points are {e quiescent} points: no interrupt delivery in
   flight ([snapshot] raises [Invalid_argument] otherwise) and no kernel
   thread suspended mid-effect (effect continuations are not copyable;
   see the snapshot-reachability invariant in DESIGN.md).  Post-boot /
   pre-run and post-run states qualify; the fault campaign forks every
   scenario from a shared post-boot image this way. *)

type snapshot_handle

val on_snapshot : t -> (unit -> unit -> unit) -> unit
(** Register a component capture: called at [snapshot] time, it keeps
    the component's state (its immutable state record as is, copies of
    anything mutated in place) and returns a thunk writing it back into
    the live instance.  Components register once, at
    creation/installation.  Captures run in registration order; restores
    likewise.  [make snapshot-gate] fails on a [mutable] field of a
    capturing unit that no capture reads or writes. *)

val snapshot : t -> snapshot_handle
(** Capture the full machine state.  Pure: the machine is not perturbed
    (same clock, same horizon, same event stream). *)

val restore : t -> snapshot_handle -> unit
(** Rewind the machine to the snapshot point.  Raises [Invalid_argument]
    if the snapshot was taken on a different machine.  Listeners and
    component captures registered {e after} the snapshot are forgotten
    (their handles become inert). *)

(* Input journal — see {!Replay}.  When a handler is installed, every
   nondeterministic-looking input crossing the machine boundary (IRQ
   raises, injected network frames, fault-engine injections) is reported
   with its cycle stamp.  Logging is observationally invisible: it never
   ticks the clock or touches simulated memory. *)

val set_input_log : t -> (cycle:int -> string -> unit) option -> unit

val input_logging : t -> bool

val log_input : t -> string -> unit
(** Report one input event stamped with the current cycle; no-op without
    a handler.  [raise_irq] calls this itself; devices log richer
    payloads (netsim frames, fault notes) before raising. *)
