(** The CHERIoT RTOS kernel runtime: boots a firmware image, dispatches
    compartment calls through the interpreted switcher, routes traps to
    compartment error handlers, and schedules the static threads.

    Execution model (see DESIGN.md): compartment bodies are OCaml
    closures registered against firmware entry points.  A compartment
    call places the sealed import capability and arguments in the
    interpreter's registers and jumps through the switcher's sentry; the
    interpreted switcher performs the real work (unseal, trusted-stack
    frame, stack truncation and zeroing, register clearing) against
    simulated memory, then jumps to the callee's native trampoline
    address, at which point the kernel runs the registered closure.  The
    return path re-enters the switcher.  Thread context switches and trap
    unwinding are native with modelled costs.

    Threads are OCaml effect handlers: kernel primitives ([yield],
    [sleep], [suspend]) perform effects that return control to the
    scheduler loop.  Preemption is driven by the machine timer. *)

type t

type value = Capability.t
(** Argument/return values are capabilities; plain integers travel as
    NULL-derived untagged capabilities ({!Interp.int_value}). *)

(** Execution context handed to every compartment entry: the identity of
    the current protection domain. *)
type ctx = {
  kernel : t;
  comp_id : int;
  thread_id : int;
  csp : value;  (** stack capability of the running call *)
  cgp : value;  (** globals capability of the current compartment *)
}

type fault_info = {
  fault_cause : string;
  fault_addr : int;
  fault_comp : string;
  fault_thread : int;
}

type entry_impl = ctx -> value array -> value * value
(** May raise {!Memory.Fault} / {!Capability.Derivation}: those are CHERI
    traps, handled by the switcher path. *)

type error_handler = ctx -> fault_info -> [ `Unwind ]
(** Global error handler (§3.2.6): runs in the compartment's context with
    a description of the fault; may repair state or trigger a
    micro-reboot, then the thread unwinds to the caller. *)

type call_error =
  | Fault_in_callee  (** callee trapped; unwound out of the compartment *)
  | Invalid_import  (** sealed capability refused by the switcher *)
  | Insufficient_stack  (** §3.2.5 entry stack requirement not met *)
  | Trusted_stack_exhausted
  | Compartment_poisoned  (** target is being micro-rebooted *)

val pp_call_error : call_error Fmt.t

(* Boot *)

val boot : machine:Machine.t -> Firmware.t -> (t, string) result
(** Run the loader, erase it, and prepare the runtime.  The preemption
    timeslice is 2000 cycles. *)

val machine : t -> Machine.t
val interp : t -> Interp.t
val loader : t -> Loader.t
val firmware : t -> Firmware.t

val implement : t -> comp:string -> entry:string -> entry_impl -> unit
(** Attach the closure for a firmware entry point, replacing any earlier
    one.  The name is resolved once, here, through {!Loader.entry_index}:
    each compartment's implementations form an array indexed like its
    export table, which compartment and library calls index directly.
    An entry nobody implemented fails with
    [Failure "entry <comp>.<entry> has no implementation"] when called.
    Implementations are part of {!Machine.snapshot}: [restore] brings back
    the ones bound at snapshot time.  Raises [Invalid_argument] for
    unknown compartments/entries. *)

val implement1 : t -> comp:string -> entry:string -> (ctx -> value array -> value) -> unit
(** Single-return convenience. *)

val set_error_handler : t -> comp:string -> error_handler -> unit
(** Raises [Invalid_argument] if the firmware did not declare
    [error_handler] for this compartment (the export-table flag is set by
    the loader and audited). *)

(* Compartment and library calls *)

val import_cap : t -> comp:string -> string -> value
(** Load the capability in compartment (or library) [comp]'s import-table
    slot [name] (e.g. ["sealed:app_quota"], ["mmio:uart"]), through the
    import-table authority the loader gave [comp].  Raises
    [Invalid_argument] if [comp] has no such import. *)

val call :
  ctx -> import:string -> value list -> (value * value, call_error) result
(** Cross-compartment call through the named import-table slot.

    Result contract: the callee's two results travel back in the
    interpreter's ca0/ca1, which the switcher's return leg clears
    around but never writes, and [call] reads them from there, unpacked,
    right after that leg exits at the return pad.  So nothing may run on
    the kernel's interpreter between the end of the return leg and that
    read; nothing does, because the return leg runs with interrupts
    disabled and its final sentry jump leaves the interpreter without a
    further tick, so no preemption, listener or other thread's call can
    intervene.  Keep it so: code added between the leg's exit and the
    read (a tick, a traced hook that calls into a compartment) would
    hand the caller another call's registers. *)

val call1 : ctx -> import:string -> value list -> (value, call_error) result
(** [call], reading only ca0: the second result is never unpacked. *)

val lib_call : ctx -> import:string -> value list -> value * value
(** Shared-library call (§3): a sentry jump within the caller's security
    domain — no switcher, no stack zeroing; faults propagate to the
    *caller's* handler.  The import must be a [Lib_call] slot. *)

(* Threads and scheduling primitives *)

type wake_reason = Woken of int | Timed_out

val yield : ctx -> unit
val sleep : ctx -> int -> unit
(** Sleep for a number of cycles. *)

val suspend :
  ctx -> ?deadline:int -> register:((wake_reason -> bool) -> unit) -> unit ->
  wake_reason
(** Block the current thread.  [register] receives the waker exactly
    once; calling the waker makes the thread runnable and returns [true];
    later calls (or calls after a timeout won) return [false].  If
    [deadline] (absolute cycles) passes first, the thread wakes with
    [Timed_out].  Foundation for futexes (§3.2.4). *)

val thread_count : t -> int
val thread_name : t -> int -> string

val run : ?until_cycles:int -> t -> unit
(** Start every firmware thread at its entry point and run the scheduler
    until all threads finish (or the cycle limit passes).  A thread
    starts with a switcher call through the sealed export capability the
    loader minted for it ({!Loader.thread_layout.lt_entry_cap}); the
    kernel seals nothing itself.  Raises [Failure] on
    all-threads-deadlocked. *)

val idle_cycles : t -> int
(** Cycles spent with no runnable thread — the basis of the CPU-load
    measurements of Fig. 7. *)

val context_switches : t -> int

(* Ephemeral claims (switcher hazard slots, §3.2.5) *)

val ephemeral_claim : ctx -> value -> unit
(** Hold the object against free until the thread's next compartment
    call or ephemeral claim set. *)

val ephemeral_claims : t -> thread:int -> value list
(** Read by the allocator when deciding whether an object may be freed. *)

(* Micro-reboot (§3.2.6).  All recovery state is per-kernel, never
   module-level: one kernel per farm domain must run without observing
   another kernel's reboots or budgets (see DESIGN.md, "no cross-machine
   global state"), and all of it is part of {!Machine.snapshot}. *)

type reboot_steps = {
  wake_blocked : unit -> unit;
      (** step 2: make every thread blocked inside the compartment
          observe a dead object / closed handle when it resumes *)
  release_heap : unit -> unit;
      (** step 3: free the heap the compartment's quota owns
          ({!Allocator.free_all}) *)
  reset_state : unit -> unit;  (** step 4, beyond the globals reset *)
}

val micro_reboot : ctx -> reboot_steps -> unit
(** Micro-reboot the compartment [ctx] runs in, from inside its error
    handler, in five steps: (1) poison it, so calls into it fail with
    [Compartment_poisoned]; (2) [wake_blocked]; (3) [release_heap];
    (4) reset its globals to the boot image (all zeros: firmware declares
    no initial data), charged [globals_size / 8 * Cost.mem_cap] cycles,
    then [reset_state]; charge {!reboot_cycles}, count the reboot, mark
    it in the machine's {!Forensics} recorder if one is attached and call
    the reboot hook with the current cycle; (5) reopen it, unless the
    rate limiter ({!set_reboot_limit}) trips. *)

val reboot_count : t -> comp:string -> int

val reboot_cycles : t -> int
(** Modelled micro-reboot reset latency in cycles (default 50_000, about
    1.5 ms at 33 MHz).  The 0.27 s of Fig. 7 (8_900_000 cycles) is what
    {!Iot_scenario} sets with {!set_reboot_cycles} at the paper
    profile. *)

val set_reboot_cycles : t -> int -> unit

val set_reboot_hook : t -> (comp:string -> cycle:int -> unit) option -> unit
(** The one post-reboot callback (the fault engine's trace), called by
    {!micro_reboot}; [None] silences it.  Like {!set_call_fault_hook},
    the slot is part of {!Machine.snapshot}. *)

(* Repeat-attack mitigation (§5.1.2): error handlers maintain
   availability, but an attacker who can trigger traps repeatedly could
   force a victim to spend all its cycles micro-rebooting.  The paper
   points at Gecko's shadow compartments; the rate limiter is the
   simplest version of that defence: past a reboot budget within a time
   window, the compartment stays offline (poisoned) instead of
   thrashing, turning a CPU-exhaustion attack into a contained outage
   detectable by a watchdog. *)

val set_reboot_limit :
  t -> comp:string -> max_reboots:int -> window:int -> unit
(** Allow at most [max_reboots] within any [window] cycles; beyond that
    {!micro_reboot} leaves the compartment poisoned. *)

val locked_out : t -> comp:string -> bool
(** Did the rate limiter trip (and the compartment stay offline)? *)

val clear_lockout : t -> comp:string -> unit
(** Operator/watchdog action: reopen the compartment and reset the
    budget. *)

(* Interrupt plumbing for the scheduler compartment *)

val set_irq_handler : t -> (int -> unit) option -> unit
(** The one interrupt callback ({!Scheduler}'s interrupt futexes),
    called with interrupts disabled for each delivered interrupt;
    setting it replaces the previous one. *)

(* Fault injection and self-audit *)

val set_call_fault_hook : t -> (comp:string -> entry:string -> bool) option -> unit
(** When the hook returns [true] for a dispatched compartment call, the
    callee is treated as having trapped on its first instruction: its
    error handler runs, the switcher force-unwinds, and the caller gets
    [Fault_in_callee].  The deterministic crash-injection point of the
    fault campaign. *)

val record_scoped_fault : ctx -> cause:string -> addr:int -> unit
(** Flight-recorder hook for the hardening layer ({!Scoped}): snapshot a
    crash dump for a fault caught by a scoped handler (the fault never
    reaches the switcher unwind, so the kernel's own capture sites miss
    it).  No-op unless tracing is on and a {!Forensics} recorder is
    attached — purely observational. *)

val check_sanity : t -> (unit, string) result
(** Structural run-queue invariants, checkable from outside the
    scheduler loop: wake deadlines only on blocked threads, blocked
    threads resumable, at most one running thread consistent with the
    current-thread slot, stack watermarks within stack bounds. *)

(* Introspection for benches *)

val with_interrupts_disabled : ctx -> (unit -> 'a) -> 'a
val stack_watermark : t -> thread:int -> int
(** Lowest stack address observed for the thread (§3.2.5 tooling). *)

val note_stack_use : ctx -> int -> ctx
(** Model the current call using [n] bytes of stack: returns a context
    whose [csp] cursor is lowered (affects nested calls' available
    stack and the watermark). *)

val stack_alloc : ctx -> int -> ctx * value
(** Carve an [n]-byte buffer out of the current stack frame: lowers the
    stack cursor (so nested compartment calls — and their stack-window
    zeroing — stay below it) and returns the new context plus an exactly
    bounded capability to the buffer. *)
