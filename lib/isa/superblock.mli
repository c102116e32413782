(** Superblock compiler, the interpreter's one execution engine: fuses
    the trace from a jump or branch target to the next unconditional
    control transfer (or back-edge to its own entry) into a single
    closure chain, with per-instruction dispatch, segment-range and
    PCC-bounds checks hoisted to block entry.  Other conditional
    branches do not end a block: taken, they exit it mid-way; not taken,
    execution continues.  The {!Interp} dispatcher validates a block's
    preconditions once, for its full length, then either runs the fused
    closure or, when one fails, the one-instruction block at that pc —
    the engine is its own slow path.  Compiled blocks are observationally
    identical to one-instruction-at-a-time execution — registers,
    cycles, instret, trap cause + PC and the Obs event stream — which
    [test_interp_equiv] pins against the executable ISA spec in
    [test/isa_spec.ml].

    The block-precondition invariant (see DESIGN.md): any state a
    compiled block assumes constant must be guarded at block entry (PCC
    bounds, fuel and the event-horizon window for deferred tick
    batching, all checked for the longest path, so they also cover an
    early exit); everything else is read live.  Memory arms check each
    access directly on the packed authority (tag, seal and permissions
    in one mask and compare, bounds, SRAM range, alignment,
    {!Memory.base_filtered}) and take the full checked path on any
    failure, so nothing is cached that could go stale. *)

type dslot = { d_ins : Isa.instr; d_target : int (* -1 = no label operand *) }
(** One pre-decoded instruction: branch label operands resolved to
    absolute addresses at decode time. *)

type trap_cause = Cap_fault of Capability.violation | Software of string

type trap = { tcause : trap_cause; tpc : int }

exception Trap_exn of trap

type ctx = {
  sm : Machine.t;
  smem : Memory.t;
  spk : int array;
      (** the 16 merged registers, packed: 4 ints per register
          ({!Packed_cap}) so steady-state arm bodies allocate nothing *)
  sspec : Capability.t array;  (** the 3 special registers *)
  mutable sinstret : int;
  mutable sjump : Capability.t;
      (** Cjalr target handoff from terminator to dispatcher *)
  mutable sret_acc : int;
      (** pending deferred-cycle batch handed back by a block exit
          instead of flushing, so the dispatcher can carry it into the
          next block ([-1] = nothing pending); valid only immediately
          after [b_run] returns *)
  mutable sret_len : int;
      (** instructions retired by the [b_run] call that just returned —
          on its last trip, for a self-loop that spun (every earlier
          trip retired [b_len]); the dispatcher charges fuel from it *)
  mutable sspins : int;
      (** extra self-loop trips a [b_self] block may take inside the
          compiled closure; the dispatcher sets it from the remaining
          fuel before a deferred entry and reads back the unused count.
          Safe as shared state because deferred execution is atomic:
          every tick below the horizon takes the fast path and cannot
          run effects, so no other run can interleave mid-spin. *)
}
(** Execution state shared by every compiled block.  Everything
    per-run (pcc, deferred-cycle accumulator) is threaded through the
    compiled closures as arguments instead, so a preemption effect
    suspending one run cannot corrupt another. *)

val make_ctx : Machine.t -> ctx

val x_halt : int
(** Block exit code: executed [Halt]. *)

val x_jump : int
(** Block exit code: executed [Cjalr]; the unsealed target is in
    [ctx.sjump].  Any non-negative exit is the next pc. *)

type block = {
  b_len : int;
      (** instructions on the longest path (an execution that takes a
          mid-block exit retires fewer, see [sret_len]) *)
  b_maxcost : int;
      (** worst-case cycle cost, the [Machine.defer_window] argument *)
  b_self : bool;
      (** the last instruction's taken target is this block's own
          entry: a tight loop that spins inside the closure, bounded by
          [ctx.sspins] and the per-trip horizon re-check.  A
          stack-zeroing loop (see {!compile}) runs those trips in
          closed form: as many at once as the same bounds allow *)
  b_run : Capability.t -> int -> int;
      (** [b_run pcc acc]: [acc >= 0] enters deferred tick batching
          with [acc] cycles already pending (0 on a fresh entry, more
          when the dispatcher carries a batch across blocks — always
          re-validated against [Machine.defer_window] first);
          [acc = -1] charges every cycle immediately.  Returns an exit
          code with [sret_acc] set to the still-pending batch (or -1)
          and [sret_len] to the instructions retired;
          raises [Trap_exn] / [Memory.Fault] / derivation errors with
          all pending cycles flushed. *)
}

val compile : single:bool -> ctx -> dslot array -> base:int -> idx:int -> block
(** Compile the block entered at slot [idx] of a segment's decoded
    array ([base] = segment base address); with [~single:true], just the
    one instruction at [idx] (the dispatcher's slow path).  Register
    operands are in range because {!Isa.assemble} checked them.  Pure
    code cache: a compiled block holds no memoized machine state, so it
    stays valid for the segment's lifetime, across snapshot restore.

    A block of exactly the switcher's stack-zeroing shape, [Cgetaddr
    r,c; Beq r,e,out; Csc zero,0(c); Csc zero,8(c); Cincaddrimm
    c,c,16; J entry] with r, c and e distinct and non-zero, is
    recognised here, by its instructions.  On a deferred entry it runs
    n full trips at once: n is bounded by the trips left to [e] and by
    [1 + min sspins j], j the back-edges that fit under the event
    horizon ({!Machine.defer_room}).  One check of the store authority
    over the whole range (meta mask, bounds, SRAM, 8-byte alignment,
    {!Memory.base_filtered}) replaces the per-store checks, one
    {!Memory.zero_priv} the stores, and cycles, instret, the cursor,
    [r] and [sspins] are settled as n trips would leave them.  When
    any precondition fails (not deferring, [e] not a whole positive
    number of trips ahead, a failing check) the block runs trip by
    trip. *)

val apply_jump_target :
  Machine.t -> int -> Capability.t -> Capability.t * Capability.Otype.sentry
(** Sentry semantics shared by Cjalr and the external entry point:
    unseal sentries, apply interrupt-posture changes, and return the
    unsealed target plus the backward sentry kind restoring the
    previous posture.  Traps (at the given pc) on untagged, data-sealed
    or non-executable targets. *)
