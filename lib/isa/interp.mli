(** Interpreter for the {!Isa} subset, executing against a {!Machine}.

    Interpreted code (the switcher, test programs) lives in code segments
    — instruction arrays mapped at addresses outside SRAM, as firmware
    executed in place.  A jump whose target address falls outside every
    segment leaves the interpreter ([Exited]); the kernel uses such
    addresses as native trampolines for compartment entry points written
    in OCaml.

    Each executed instruction charges {!Cost.instr} plus memory costs.
    CHERI violations become [Trapped] outcomes carrying the faulting PC,
    exactly where the hardware would trap.

    There is one execution engine: the {!Superblock} compiler, which
    fuses straight-line runs into closures with bounds checks hoisted to
    block entry, memoizes nothing that can go stale, and batches ticks
    under the event horizon.  When a block's preconditions fail it runs
    a one-instruction block instead, so it is its own slow path.  Its
    reference semantics live outside the library, in the deliberately
    slow executable spec [test/isa_spec.ml] (boxed capabilities, one
    step at a time); [test_interp_equiv] and [test_snapshot_equiv] pin
    the engine to it on registers, cycles, instret, traps and the trace
    event stream. *)

type t

val create : Machine.t -> t

val map_segment : t -> base:int -> Isa.program -> unit
(** Map a program at [base] (4 bytes per instruction).  Overlap is a
    programming error. *)

(* The 16 merged registers live packed ({!Superblock.Packed_cap}) in
   one flat int array so the hot loop never allocates; boxed
   [Capability.t] values are materialized only at this accessor
   boundary.  Register 0 reads
   as NULL; writes to it are discarded. *)

val get_reg : t -> int -> Capability.t
val set_reg : t -> int -> Capability.t -> unit

val read_regs : t -> Capability.t array
(** A fresh 16-element snapshot of the register file (not an alias:
    mutating the returned array does not touch the registers). *)

val clear_regs : t -> unit
(** Reset every register to NULL. *)

type saved_regs
(** A copy of the register file's packed words. *)

val save_regs : t -> saved_regs
(** Copy the register file as it stands, boxing nothing: later writes
    to the registers do not reach the copy. *)

val saved_reg : saved_regs -> int -> Capability.t
(** Register [r] of a copy, boxed afresh on every call (register 0
    reads as NULL). *)

val load_cap_reg : t -> int -> addr:int -> perms:Perm.Set.t -> unit
(** [load_cap_reg t r ~addr ~perms]: {!Memory.load_cap_into} straight
    into register [r] (1..15), for an access the caller has already
    charged and checked ({!Machine.charge_load_cap}); nothing is
    boxed. *)

val set_special : t -> int -> Capability.t -> unit
(** Direct access to special capability registers (reset/loader only;
    running code must use [Cspecialrw], which demands
    [Perm.System_registers]). *)

val instret : t -> int
(** Instructions retired since [create]. *)

val compiled_blocks : t -> int
(** Blocks the block caches of every mapped segment hold (a block
    compiled for more than one pcc shape counts once, as its latest
    compilation); a read of the caches, which nothing in the hot path
    counts. *)

val int_value : int -> Capability.t
(** An integer as a NULL-derived untagged capability. *)

val to_int : Capability.t -> int
(** Read a register value as an integer (its cursor). *)

type trap_cause = Cap_fault of Capability.violation | Software of string

type trap = { tcause : trap_cause; tpc : int }

val pp_trap : trap Fmt.t

type outcome =
  | Halted  (** executed [Halt] *)
  | Exited of Capability.t
      (** jumped to an address outside every segment; the capability is
          the (unsealed) jump target with posture applied *)
  | Trapped of trap

val run : ?fuel:int -> t -> Capability.t -> outcome
(** Jump to the capability (applying sentry semantics: data-sealed
    targets trap, sentries unseal and may switch the interrupt posture)
    and interpret until an outcome is reached.  [fuel] bounds the number
    of instructions (default 1_000_000) and exceeding it is a [Software]
    trap.  Total on every mapped program: {!Isa.assemble} rejects
    out-of-range register operands, so a run never raises.  The boxing
    wrapper of {!enter}'s engine, for tests and tools. *)

(** {2 Fixed entry points}

    The kernel enters the switcher's two legs through constant sentries
    on every compartment call, so it takes each apart once ({!entry})
    and enters it with nothing boxed ({!enter}). *)

type entry
(** A sentry's unsealed pcc and interrupt posture. *)

val entry : Capability.t -> entry
(** [entry s]: what [run] derives from [s] before it executes — [s]
    must be a tagged sentry whose unsealed form has [Perm.Execute], so
    that [run] takes it without a trap; raises [Invalid_argument]
    otherwise. *)

exception Trap_exn of trap

val enter : t -> entry -> int
(** [enter t e]: [run t s] for the sentry [s] that [e] was taken from,
    at the default fuel, answering the address the run exited to (the
    [Exited] target's address) and allocating nothing of its own.  Sets
    [e]'s posture, then runs the same engine.  A trap raises [Trap_exn]
    with the trap [run] would answer [Trapped] with; a run that executes
    [Halt] raises [Invalid_argument]. *)
