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

(** The packed capability register file: flat and allocation-free.

    Each register occupies four consecutive ints of one flat int array:
    the packed meta word ([Capability.meta]: tag | permission bits |
    otype code), then base, top and cursor.  Writing or deriving a
    capability in place touches only untagged ints — no minor-heap
    allocation.

    {!t} is abstract, so only this module indexes the array, and every
    access it makes is compiled against [int array]: plain loads and
    stores.  Element-polymorphic array code would pay a float-array tag
    test per read and a [caml_modify] write barrier per write
    (DESIGN.md, "Packed register-file invariant").  It is a submodule
    of {!Superblock} so that the compiled blocks' accessor calls inline
    in every build, [--profile dev]'s [-opaque] included.

    Invariant (see DESIGN.md): the packed form never escapes the
    interpreter.  [Capability.t] stays the architectural source of
    truth at every boundary — switcher legs, kernel entry, traps,
    Obs/Forensics rendering, snapshot capture — converting through
    {!pack}/{!unpack}, an exact bijection pinned by QCheck
    (test_cap_props), as is per-helper packed-vs-boxed equivalence.

    Register 0 reads as NULL and discards writes, exactly like the
    boxed file it replaces; out-of-range register indices raise
    [Invalid_argument] from the checked accessors' bounds check
    ([Isa.assemble] rejects such operands, so interpreted code never
    supplies one). *)
module Packed_cap : sig
  type t
  (** A packed register file. *)

  val make : int -> t
  (** [make n] is a fresh all-zero file of [n] registers (all NULL). *)

  (* Whole-file operations (snapshot capture and restore, call reset). *)

  val save : t -> t
  (** A fresh copy of the file, sharing nothing with it. *)

  val restore : t -> from:t -> unit
  (** [restore pk ~from] overwrites every register of [pk] with
      [from]'s ([from] holds at least as many, e.g. [save pk]). *)

  val clear : t -> unit
  (** Reset every register to NULL. *)

  (* Violation codes.  The in-place derivation helpers return [ok]
     (= 0) on success and a non-zero code otherwise, so the success
     path allocates nothing. *)

  val ok : int

  val violation : int -> Capability.violation
  (** Decode a non-zero helper result into the exact violation the
      boxed [Capability] operation returns. *)

  (* Slot accessors (bounds-checked). *)

  val meta : t -> int -> int
  val base : t -> int -> int
  val top : t -> int -> int
  val cursor : t -> int -> int

  (* Unchecked accessors for the compiled blocks: the register must be
     one of the file's (the interpreter's file has 16, and
     [Isa.assemble] keeps every operand in 0..15).  Register 0 reads as
     NULL and its writes are discarded, as with the checked ones. *)

  val umeta : t -> int -> int
  val ubase : t -> int -> int
  val utop : t -> int -> int
  val ucursor : t -> int -> int

  val uset_int : t -> int -> int -> unit
  (** [uset_int pk rd v]: NULL with cursor [v] ([Interp.int_value]). *)

  val ucopy : t -> dst:int -> src:int -> unit

  val uset_cursor : t -> int -> int -> unit
  (** [uset_cursor pk r a] sets [r]'s cursor to [a], keeping its meta
      and bounds: [Capability.with_address] on a register the caller
      already knows is unsealed. *)

  (* Boundary conversion. *)

  val pack : t -> int -> Capability.t -> unit
  val unpack : t -> int -> Capability.t

  val pack_at : t -> int -> Capability.t -> int -> unit
  (** [pack_at pk r c addr] packs [c] with its cursor replaced by
      [addr]: [Capability.with_address_unsealed c addr] without the
      boxed intermediate. *)

  (* In-place derivations; each mirrors the [Capability] operation of
     the same (or evident) name — same checks, same check order, same
     violation. *)

  val incr_addr : t -> dst:int -> src:int -> int -> int
  (** [Capability.incr_address]. *)

  val set_addr : t -> dst:int -> src:int -> int -> int
  (** [Capability.with_address]. *)

  val set_bounds : t -> dst:int -> src:int -> int -> int
  (** [Capability.set_bounds ~length]. *)

  val and_perms : t -> dst:int -> src:int -> Perm.Set.t -> int
  (** [Capability.and_perms]. *)

  val clear_tag : t -> dst:int -> src:int -> unit

  val seal : t -> dst:int -> src:int -> key:int -> int
  (** [Capability.seal]. *)

  val unseal : t -> dst:int -> src:int -> key:int -> int
  (** [Capability.unseal]. *)

  val seal_entry : t -> dst:int -> src:int -> int -> int
  (** [seal_entry pk ~dst ~src code]: [Capability.seal_entry] with the
      sentry kind given as its [Capability.sentry_code]. *)
end

type dslot = { d_ins : Isa.instr; d_target : int (* -1 = no label operand *) }
(** One pre-decoded instruction: branch label operands resolved to
    absolute addresses at decode time. *)

type trap_cause = Cap_fault of Capability.violation | Software of string

type trap = { tcause : trap_cause; tpc : int }

exception Trap_exn of trap

type ctx = {
  sm : Machine.t;
  smem : Memory.t;
  spk : Packed_cap.t;
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
