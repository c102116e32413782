(** Seeded, deterministic fault injection across the simulated hardware
    and RTOS.

    An engine is created from a campaign seed and draws *every* fault
    decision — what, when, where — from one [Random.State].  Since the
    simulation underneath is deterministic, re-running a scenario with
    the same seed reproduces the identical fault trace byte-for-byte,
    which is what makes campaign failures debuggable.

    Two classes of fault:
    - immediate (applied from the machine tick listener): heap-payload
      tag clears and bit flips, spurious interrupts, interrupt storms,
      timer skew;
    - armed (delivered later through a wired hook): allocator OOM,
      crash-on-compartment-call, and per-frame network chaos
      (drop / corrupt / duplicate / reorder).

    Memory faults are confined to *live allocation payloads* (via the
    region source): they model an in-compartment adversary corrupting
    its own reachable memory — exactly the corruption the paper claims
    the rest of the system survives — not magical corruption of
    allocator metadata that no capability can reach. *)

type net_fault = Net_drop | Net_corrupt | Net_duplicate | Net_reorder

type kind =
  | Tag_clear
  | Bit_flip
  | Spurious_irq
  | Irq_storm
  | Timer_skew
  | Oom
  | Net of net_fault
  | Crash

type t

val create :
  ?period:int ->
  ?weights:(kind * int) list ->
  seed:int ->
  Machine.t ->
  t
(** Register the engine's tick listener on the machine.  [period] is the
    mean gap in cycles between injections (uniform draw in
    [1..period]); [weights] the relative fault mix.  An interrupt storm
    re-raises its line for 12 consecutive ticks.  The engine starts
    disarmed. *)

val reseed : t -> seed:int -> unit
(** Rewind the engine onto a fresh seed: replaces the RNG with the state
    [create ~seed] would have built.  Used by {!Fault_campaign.run},
    which restores each chunk's shared post-boot machine image
    (resetting the engine with it) and then points the engine at the
    scenario's own seed before running. *)

val injected : t -> int
(** Number of fault decisions taken so far. *)

val trace : t -> string list
(** The fault history, oldest first, each entry stamped with the cycle
    count.  Printing this on a violation gives an exact replay recipe
    together with the seed. *)

val arm : t -> unit
val disarm : t -> unit
(** While disarmed every hook is inert and no injections fire; run
    verification passes disarmed so checkers observe a quiescent
    system. *)

val detach : t -> unit
(** Disarm and deregister the engine's tick listener from the machine,
    so a harness reusing one machine across scenarios does not leak
    listeners.  The engine is inert afterwards. *)

val set_region_source : t -> (unit -> (int * int) list) -> unit
(** Where memory faults may land: [(payload base, size)] list, normally
    {!Allocator.live_payload_regions}. *)

val wire_allocator : t -> Allocator.t -> unit
(** Install the OOM hook: an armed OOM fault makes the next allocation
    fail with [No_memory]. *)

val wire_netsim : t -> Netsim.t -> unit
(** Install the per-frame chaos hook: each armed network fault is
    consumed by the next frame queued for delivery to the device. *)

val wire_kernel : t -> Kernel.t -> victims:string list -> unit
(** Install the crash hook: an armed crash makes the next compartment
    call into one of [victims] trap on entry (error handler runs, the
    caller sees [Fault_in_callee]). *)

val observe_reboots : t -> unit
(** Route {!Microreboot} completion events from the kernel passed to
    {!wire_kernel} into this engine's trace.  Per-kernel: engines in
    concurrently running simulations never observe each other's reboots.
    Raises [Invalid_argument] before {!wire_kernel}. *)
