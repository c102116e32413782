(** The switcher: the most privileged component after boot (§3.1.2),
    written in {!Isa} assembly so that its size (instruction count) and
    per-call cycle cost are measured, not modelled.

    It performs compartment calls and returns over the per-thread trusted
    stack held in the MTDC special register.  The call path: unseal the
    export capability (only the switcher holds the unsealing key, in
    MSCRATCHC), check trusted-stack and stack space, push a frame,
    truncate and zero the callee's stack window, clear non-argument
    registers, load the callee's code/globals capabilities and jump with
    the entry's interrupt posture.  The return path pops the frame, zeroes
    the callee's stack window, restores the caller's capabilities and
    clears non-return registers.

    Trap handling and thread context switches are performed natively by
    the kernel with modelled costs (see DESIGN.md, execution model). *)

val program : Isa.program
(** The assembled switcher. *)

val instruction_count : int
(** §5.1.1 reports ~355 instructions for the full switcher; ours omits
    the assembly trap path (native), so expect fewer. *)

val trusted_stack_overflow : string
(** The [Trapif] message of the call path's refusal when the trusted
    stack has no free frame; {!Kernel} maps it to
    [Trusted_stack_exhausted]. *)

val insufficient_stack : string
(** The [Trapif] message of the call path's refusal when the caller's
    stack is smaller than the entry's declared minimum; {!Kernel} maps
    it to [Insufficient_stack]. *)

val install : Interp.t -> unit
(** Map the switcher segment at {!Abi.switcher_code_base}. *)

val pcc : Capability.t
(** The switcher's program counter capability: executable over the
    segment, with [Perm.System_registers] — the only code granted access
    to the trusted-stack special register. *)

val call_sentry : Capability.t
(** Interrupt-disabling forward sentry to the call entry point; this is
    what the loader places in every compartment's import table. *)

val return_sentry : Capability.t
(** Interrupt-disabling forward sentry to the return entry point: the
    value the call leg leaves in [ra] for the callee, on every call
    (the leg builds it from its own pcc).  The kernel enters the return
    leg through this constant rather than reading [ra] back;
    [test_interp_equiv] checks the two agree after every call leg. *)
