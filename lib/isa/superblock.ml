module Cap = Capability

(* Superblock compiler: the interpreter's only execution engine.

   A superblock is the code reachable from a jump or branch target
   through forward control transfers: a forward conditional branch is a
   two-way closure whose arms both continue in the block, a forward [J]
   continues at its target, and the block ends only at a backward
   branch or [J] (back to its own entry, a self-loop), [Cjal], [Cjalr],
   [Halt] or [Trapif] (see [compile] for the shape and the memoised
   per-path counts).  So a switcher leg, with its refusal checks,
   argument-clearing skips and posture diamond, is one block up to its
   stack-zeroing loop and one block from there.  On first execution the
   pre-decoded slots are compiled into a graph of fused OCaml closures —
   one closure per instruction and per count of instructions retired
   before it, each tail-calling the next with one argument, the pending
   batch, and a forward branch's taken arm compiled when it first runs —
   so the per-step dispatch, segment-range and PCC-bounds checks
   disappear from the hot path: the dispatcher in [Interp] validates the
   whole block's preconditions once at entry and either runs the fused
   closure or, when one fails, the one-instruction block at that pc
   ([compile ~single:true]), which is the engine's own slow path.  The
   preconditions cover every path (PCC bounds over the slot span, fuel
   and sample room over the longest path, the event horizon over the
   costliest path to a deferral guard), so they stay sufficient for
   whichever path runs; each exit reports how many instructions its path
   retired ([sret_len]) and the dispatcher charges fuel from that.

   A block is compiled for the shape of the pcc it runs under (meta
   word and bounds), which every closure that reads the pcc captures:
   every such use sets the address, so the cursor never matters, and
   the dispatcher recompiles a block entered under another shape.

   Register file: the packed capability file ([Packed_cap]) — each
   register is four untagged ints (meta, base, top, cursor) in one flat
   int array, so the steady-state arm bodies (ALU, branches, data
   loads/stores, capability loads and stores, in-place derivations)
   perform zero minor-heap allocation.  The file's type is abstract: every read
   and write goes through a [Packed_cap] accessor (the [u]-prefixed ones
   unchecked, since [Isa.assemble] keeps register operands in 0..15),
   compiled against [int array], so no register write pays a GC write
   barrier.  Capabilities loaded and stored on the direct path move
   between the file and [Memory]'s packed capability store as the same
   four ints ([uload_cap], [store_packed]), and the special registers
   are a small file of the same form.  Boxed [Cap.t] values appear only
   at boundaries: the block's pcc, the [Machine] memory authority and
   the stored value on the full checked path, Cjalr targets/links — all
   converted through the exact [pack]/[unpack] bijection.

   Equivalence contract (every rule here exists to keep registers,
   cycles, instret, trap cause + PC and the Obs event stream bit-
   identical to one-instruction-at-a-time execution, as the executable
   ISA spec in test/ defines it):

   - Per-run state (pending deferred cycles) is threaded through the
     closure chain as an ARGUMENT, never stored in [ctx], and the pcc is
     fixed per compiled block.  A tick can suspend the whole run via the
     kernel's preemption effect and re-enter the interpreter for another
     thread; argument threading keeps each run's state in its own
     captured continuation.  The
     packed file itself is shared across interleaved runs exactly as
     the physical register file would be — the switcher saves and
     restores it around every context switch.

   - Deferred tick batching ([acc] >= 0) is only entered when the
     block's worst-case cost up to its first deferral guard (the taken
     arm of a folded forward branch) fits strictly below the machine's
     event horizon ([Machine.defer_window]), and each guard re-checks
     the next stretch the same way, settling the batch and running on
     per step when it does not fit: then every elided tick would have
     taken the fast path (no listener, timer or IRQ delivery), nothing
     can observe the clock mid-block, and one batched tick at the
     terminator is exact.  With a sink attached the dispatcher also
     requires every path through the block to retire before the next
     [Instr_sample] instret, so no sample falls inside a deferred
     block.  [acc] = -1 means "not deferring": every charge ticks
     immediately, which is the per-step behaviour instruction for
     instruction (and the only mode in which preemption, tracing
     samples or fault-injection listeners can fire mid-block).

   - Every raise out of a compiled closure flushes pending cycles first,
     so a trapping block leaves the clock exactly where per-step
     execution would.

   - Anything with an observer flushes before it runs and disables
     deferral after: MMIO device access (devices read the clock and
     raise IRQs), a capability store that may set a tag while a
     revoker sweep is in flight (the tag-set hook settles the sweep
     against the live clock).  A NULL capability store only clears a
     tag, and with the revoker idle the tag-set hook does nothing, so
     both stay deferred.

   - Memory arms check the access directly on the packed authority
     ([direct] below): the same outcome as the full check chain, from
     the live register and the live revocation bitmap, with nothing
     cached.  The load filter is re-read after the access charge when
     that charge really ticks, exactly where the full chain runs it. *)

(* ---- The packed register file ---------------------------------- *)

(* Flat, allocation-free capability register file.  Each register is
   four consecutive ints in one flat int array: the packed meta word
   (tag | perms | otype, see [Capability.meta]), then base, top and
   cursor.  Storing or deriving a capability in place touches only
   untagged ints — no minor-heap allocation — which is what takes the
   steady-state interpreter loop to zero allocations per instruction.

   Monomorphic access: [t] is abstract outside this module, the rest of
   this file included, and every function here takes its file as
   [(pk : t)] with [t = int array], so every access compiles as an
   int-array access: reads are plain loads, writes plain stores.  Code
   polymorphic in the array's element type compiles to generic array
   code instead — a float-array tag test per read, a [caml_modify]
   write barrier per write — so no other code may index the file.  The
   module lives in this compilation unit rather than a file of its own
   so that the block closures' register accesses, which must inline to
   stay plain loads and stores, inline in every build: the default
   build inlines across compilation units, but [--profile dev] passes
   [-opaque], which stops that.  The [alloc-gate] make target checks
   the compiled object for the generic code's tag test.

   The packed form leaves the interpreter only for [Memory]'s
   capability store, which keeps the same [Capability.meta] encoding;
   every other boundary (switcher legs, kernel entry, traps,
   Obs/Forensics rendering, snapshot capture) converts through
   [pack]/[unpack], whose exactness reduces to the
   [Capability.meta]/[of_meta] bijection (QCheck-pinned in
   test_cap_props, together with per-helper packed-vs-boxed derivation
   equivalence and [Capability.attenuate_loaded_meta]).

   Error discipline: the in-place derivation helpers return an int
   violation code instead of a [result] so the success path allocates
   nothing; [violation] decodes a non-zero code into the exact
   [Capability.violation] the boxed operation would have returned
   (allocating only on the trap path, where the engine is about to
   unwind anyway).

   Register 0 is the architectural zero register: reads see NULL (its
   slots are never written, so they stay all-zero, which is exactly
   NULL's packed form) and writes are discarded — the [set_slots] guard
   mirrors the old boxed file's [set] guard.  Indexing is bounds-
   checked except in the [u]-prefixed accessors, whose callers
   guarantee a register of the file ([Isa.assemble] keeps other
   operands out of interpreted code); a checked out-of-range register
   raises [Invalid_argument]. *)
module Packed_cap : sig
  type t

  val make : int -> t
  val save : t -> t
  val restore : t -> from:t -> unit
  val clear : t -> unit
  val ok : int
  val violation : int -> Cap.violation
  val m_tag : int -> bool
  val m_otype : int -> int
  val m_perm_bits : int -> int
  val m_has_perm : Perm.t -> int -> bool
  val m_unsealed : int -> int
  val access_key : Perm.Set.t -> int
  val access_mask : int -> int
  val meta : t -> int -> int
  val base : t -> int -> int
  val top : t -> int -> int
  val cursor : t -> int -> int
  val length : t -> int -> int
  val tag_bit : t -> int -> int
  val otype_code : t -> int -> int
  val perm_bits : t -> int -> int
  val umeta : t -> int -> int
  val ubase : t -> int -> int
  val utop : t -> int -> int
  val ucursor : t -> int -> int
  val uset_int : t -> int -> int -> unit
  val ucopy : t -> dst:int -> src:int -> unit
  val uset_cursor : t -> int -> int -> unit
  val pack : t -> int -> Cap.t -> unit
  val uload_cap : t -> int -> Memory.t -> addr:int -> perms:Perm.Set.t -> unit
  val unpack : t -> int -> Cap.t
  val pack_at : t -> int -> Cap.t -> int -> unit
  val uspecial_rw : t -> rd:int -> t -> int -> rs:int -> unit
  val incr_addr : t -> dst:int -> src:int -> int -> int
  val set_addr : t -> dst:int -> src:int -> int -> int
  val set_bounds : t -> dst:int -> src:int -> int -> int
  val and_perms : t -> dst:int -> src:int -> Perm.Set.t -> int
  val clear_tag : t -> dst:int -> src:int -> unit
  val seal : t -> dst:int -> src:int -> key:int -> int
  val unseal : t -> dst:int -> src:int -> key:int -> int
  val seal_entry : t -> dst:int -> src:int -> int -> int
end = struct
  type t = int array

  let slots = 4

  let make n : t = Array.make (n * slots) 0

  (* File-level copies for snapshot capture and restore, and the reset a
     compartment call starts from. *)

  let save (pk : t) : t = Array.copy pk

  let restore (pk : t) ~(from : t) =
    for i = 0 to Array.length pk - 1 do
      Array.unsafe_set pk i from.(i)
    done

  (* A loop rather than [Array.fill], which calls the C primitive
     [caml_array_fill] on every compartment call. *)
  let clear (pk : t) =
    for i = 0 to Array.length pk - 1 do
      Array.unsafe_set pk i 0
    done

  (* Violation codes: 0 = success.  Codes >= [v_permit_base] encode
     [Permit_violation] of the permission with bit index
     [code - v_permit_base]. *)

  let ok = 0
  let v_tag = 1
  let v_seal = 2
  let v_bounds = 3
  let v_otype = 4
  let v_permit_base = 16
  let v_permit p = v_permit_base + Perm.bit p

  let violation = function
    | 1 -> Cap.Tag_violation
    | 2 -> Cap.Seal_violation
    | 3 -> Cap.Bounds_violation
    | 4 -> Cap.Otype_violation
    | c when c >= v_permit_base -> (
        match Perm.of_bit (c - v_permit_base) with
        | Some p -> Cap.Permit_violation p
        | None -> invalid_arg "Packed_cap.violation")
    | _ -> invalid_arg "Packed_cap.violation"

  (* Meta-word predicates (pure int functions; also used directly by the
     block closures on meta words read with [umeta]). *)

  let[@inline] m_tag m = m land 1 <> 0
  let[@inline] m_sealed m = m lsr 13 <> 0
  let[@inline] m_otype m = m lsr 13
  let[@inline] m_perm_bits m = (m lsr 1) land 0xfff
  let[@inline] m_has_perm p m = m land (1 lsl (Perm.bit p + 1)) <> 0
  let[@inline] m_unsealed m = m land 0x1fff

  (* Direct access checks: [meta land access_mask key = key] holds iff
     the tag and every permission bit of [key] are set and every otype bit
     is clear (unsealed). *)
  let access_key ps = 1 lor (Perm.Set.to_bits ps lsl 1)
  let access_mask key = key lor (-1 lsl 13)

  (* Slot accessors (bounds-checked). *)

  let[@inline] meta (pk : t) r = pk.(r * 4)
  let[@inline] base (pk : t) r = pk.((r * 4) + 1)
  let[@inline] top (pk : t) r = pk.((r * 4) + 2)
  let[@inline] cursor (pk : t) r = pk.((r * 4) + 3)
  let[@inline] tag_bit (pk : t) r = meta pk r land 1
  let[@inline] otype_code (pk : t) r = m_otype (meta pk r)
  let[@inline] perm_bits (pk : t) r = m_perm_bits (meta pk r)
  let[@inline] length (pk : t) r = top pk r - base pk r

  (* Unchecked accessors for the compiled blocks.  Register 0 reads its
     all-zero slots (NULL) and the writes discard it, as [set_slots]
     does. *)

  let[@inline] umeta (pk : t) r = Array.unsafe_get pk (r lsl 2)
  let[@inline] ubase (pk : t) r = Array.unsafe_get pk ((r lsl 2) + 1)
  let[@inline] utop (pk : t) r = Array.unsafe_get pk ((r lsl 2) + 2)
  let[@inline] ucursor (pk : t) r = Array.unsafe_get pk ((r lsl 2) + 3)

  let[@inline] uset_int (pk : t) rd v =
    if rd <> 0 then begin
      let o = rd lsl 2 in
      Array.unsafe_set pk o 0;
      Array.unsafe_set pk (o + 1) 0;
      Array.unsafe_set pk (o + 2) 0;
      Array.unsafe_set pk (o + 3) v
    end

  let[@inline] ucopy (pk : t) ~dst ~src =
    if dst <> 0 then begin
      let os = src lsl 2 and od = dst lsl 2 in
      Array.unsafe_set pk od (Array.unsafe_get pk os);
      Array.unsafe_set pk (od + 1) (Array.unsafe_get pk (os + 1));
      Array.unsafe_set pk (od + 2) (Array.unsafe_get pk (os + 2));
      Array.unsafe_set pk (od + 3) (Array.unsafe_get pk (os + 3))
    end

  (* Moves the cursor alone, keeping meta and bounds: the caller has
     already established that the register is unsealed. *)
  let[@inline] uset_cursor (pk : t) r v =
    if r <> 0 then Array.unsafe_set pk ((r lsl 2) + 3) v

  (* The single write point: register 0 discards writes (after any reads
     of the sources, so out-of-range sources still raise first). *)
  let[@inline] set_slots (pk : t) r m b t c =
    if r <> 0 then begin
      let o = r * 4 in
      pk.(o) <- m;
      pk.(o + 1) <- b;
      pk.(o + 2) <- t;
      pk.(o + 3) <- c
    end

  (* Boundary conversion. *)

  let pack (pk : t) r c =
    set_slots pk r (Cap.meta c) (Cap.base c) (Cap.top c) (Cap.address c)

  (* A prechecked capability load ([Memory.load_cap_into]) straight
     into register [r]; register 0 discards it (the load has no side
     effect to keep). *)
  let[@inline] uload_cap (pk : t) r mem ~addr ~perms =
    if r <> 0 then Memory.load_cap_into mem ~addr ~perms pk (r lsl 2)

  let pack_at (pk : t) r c addr =
    set_slots pk r (Cap.meta c) (Cap.base c) (Cap.top c) addr

  let unpack (pk : t) r =
    if r = 0 then Cap.null
    else
      let o = r * 4 in
      Cap.of_meta ~meta:pk.(o) ~base:pk.(o + 1) ~top:pk.(o + 2)
        ~cursor:pk.(o + 3)

  (* [Cspecialrw]'s exchange with the special-register file [sp], whose
     special [i] is its register [i + 1] (clear of register 0's write
     guard): the old special is read first, then register [rs] (unless
     it is register 0) replaces it, then the old value goes to [rd]. *)
  let uspecial_rw (pk : t) ~rd (sp : t) i ~rs =
    let o = (i + 1) lsl 2 in
    let m = Array.unsafe_get sp o and b = Array.unsafe_get sp (o + 1)
    and tp = Array.unsafe_get sp (o + 2) and c = Array.unsafe_get sp (o + 3) in
    if rs <> 0 then begin
      let os = rs lsl 2 in
      Array.unsafe_set sp o (Array.unsafe_get pk os);
      Array.unsafe_set sp (o + 1) (Array.unsafe_get pk (os + 1));
      Array.unsafe_set sp (o + 2) (Array.unsafe_get pk (os + 2));
      Array.unsafe_set sp (o + 3) (Array.unsafe_get pk (os + 3))
    end;
    if rd <> 0 then begin
      let od = rd lsl 2 in
      Array.unsafe_set pk od m;
      Array.unsafe_set pk (od + 1) b;
      Array.unsafe_set pk (od + 2) tp;
      Array.unsafe_set pk (od + 3) c
    end

  (* In-place derivations.  Each mirrors the corresponding
     [Capability] operation exactly — same checks, same order, same
     violation — per the QCheck equivalence suite. *)

  (* [Capability.incr_address] / [with_address]: only sealedness blocks a
     cursor move. *)
  let incr_addr (pk : t) ~dst ~src delta =
    let o = src * 4 in
    let m = pk.(o) in
    if m_sealed m then v_seal
    else begin
      set_slots pk dst m pk.(o + 1) pk.(o + 2) (pk.(o + 3) + delta);
      ok
    end

  let set_addr (pk : t) ~dst ~src addr =
    let o = src * 4 in
    let m = pk.(o) in
    if m_sealed m then v_seal
    else begin
      set_slots pk dst m pk.(o + 1) pk.(o + 2) addr;
      ok
    end

  (* [Capability.set_bounds]: guard_exact, then the requested window must
     sit inside the old bounds with the cursor at its base. *)
  let set_bounds (pk : t) ~dst ~src len =
    let o = src * 4 in
    let m = pk.(o) in
    if not (m_tag m) then v_tag
    else if m_sealed m then v_seal
    else if len < 0 then v_bounds
    else
      let b = pk.(o + 1) and t = pk.(o + 2) and c = pk.(o + 3) in
      if c < b || c + len > t then v_bounds
      else begin
        set_slots pk dst m c (c + len) c;
        ok
      end

  (* [Capability.and_perms]: guard_exact then intersect.  The source is
     tagged and unsealed on success, so the result meta is rebuilt from
     the masked permission bits alone. *)
  let and_perms (pk : t) ~dst ~src mask =
    let o = src * 4 in
    let m = pk.(o) in
    if not (m_tag m) then v_tag
    else if m_sealed m then v_seal
    else begin
      set_slots pk dst
        (1 lor ((m_perm_bits m land Perm.Set.to_bits mask) lsl 1))
        pk.(o + 1) pk.(o + 2) pk.(o + 3);
      ok
    end

  let clear_tag (pk : t) ~dst ~src =
    let o = src * 4 in
    let m = pk.(o) and b = pk.(o + 1) and t = pk.(o + 2) and c = pk.(o + 3) in
    set_slots pk dst (m land lnot 1) b t c

  (* [Capability.seal]: Seal permission on the key first, then the key's
     own validity (tag, unsealed, cursor in bounds, cursor a data otype),
     then guard_exact on the sealee. *)
  let seal (pk : t) ~dst ~src ~key =
    let ko = key * 4 in
    let km = pk.(ko) and kb = pk.(ko + 1) and kt = pk.(ko + 2)
    and kc = pk.(ko + 3) in
    let so = src * 4 in
    let sm = pk.(so) in
    if not (m_has_perm Perm.Seal km) then v_permit Perm.Seal
    else if not (m_tag km) then v_tag
    else if m_sealed km then v_seal
    else if kc < kb || kc >= kt then v_bounds
    else if kc < Cap.Otype.data_first || kc > Cap.Otype.data_last then v_otype
    else if not (m_tag sm) then v_tag
    else if m_sealed sm then v_seal
    else begin
      set_slots pk dst (sm lor (kc lsl 13)) pk.(so + 1) pk.(so + 2) pk.(so + 3);
      ok
    end

  (* [Capability.unseal]: Unseal permission and key validity as above,
     then the sealee must be tagged and data-sealed with the key's exact
     otype. *)
  let unseal (pk : t) ~dst ~src ~key =
    let ko = key * 4 in
    let km = pk.(ko) and kb = pk.(ko + 1) and kt = pk.(ko + 2)
    and kc = pk.(ko + 3) in
    let so = src * 4 in
    let sm = pk.(so) in
    if not (m_has_perm Perm.Unseal km) then v_permit Perm.Unseal
    else if not (m_tag km) then v_tag
    else if m_sealed km then v_seal
    else if kc < kb || kc >= kt then v_bounds
    else if kc < Cap.Otype.data_first || kc > Cap.Otype.data_last then v_otype
    else if not (m_tag sm) then v_tag
    else if m_otype sm <> kc then v_otype
    else begin
      set_slots pk dst (sm land 0x1fff) pk.(so + 1) pk.(so + 2) pk.(so + 3);
      ok
    end

  (* [Capability.seal_entry]: guard_exact, Execute permission, then stamp
     the sentry code. *)
  let seal_entry (pk : t) ~dst ~src code =
    let so = src * 4 in
    let sm = pk.(so) in
    if not (m_tag sm) then v_tag
    else if m_sealed sm then v_seal
    else if not (m_has_perm Perm.Execute sm) then v_permit Perm.Execute
    else begin
      set_slots pk dst (sm lor (code lsl 13)) pk.(so + 1) pk.(so + 2)
        pk.(so + 3);
      ok
    end
end

module Pk = Packed_cap

type dslot = { d_ins : Isa.instr; d_target : int (* -1 = no label operand *) }

type trap_cause = Cap_fault of Cap.violation | Software of string

type trap = { tcause : trap_cause; tpc : int }

exception Trap_exn of trap

(* Shared execution state: the packed register file and counters the
   compiled blocks read and write in place.  [sj_meta], [sj_base],
   [sj_top] and [sj_addr] carry a Cjalr's unsealed target, packed, from
   the terminator closure to the dispatcher, [sret_acc] the
   pending deferred-cycle batch that a block exit hands back instead of
   flushing, and [sret_len] the instructions that execution retired
   (each written and read back-to-back with no tick in between, so a
   preempting run cannot clobber them).  Carrying
   the batch across blocks lets a tight loop make many trips on a
   single flush; the dispatcher re-validates [Machine.defer_window]
   against the carried batch plus the next block's worst case before
   every entry, so the eventual flush still lands strictly below the
   event horizon. *)
type ctx = {
  sm : Machine.t;
  smem : Memory.t;
  spk : Pk.t;
  sspec : Pk.t;  (* special [i] in register [i + 1] *)
  mutable sinstret : int;
  mutable sj_meta : int;
  mutable sj_base : int;
  mutable sj_top : int;
  mutable sj_addr : int;
  mutable sret_acc : int;
  mutable sret_len : int;
  mutable sbudget : int;
}

let make_ctx machine =
  {
    sm = machine;
    smem = Machine.mem machine;
    spk = Pk.make 16;
    sspec = Pk.make 4;
    sinstret = 0;
    sj_meta = 0;
    sj_base = 0;
    sj_top = 0;
    sj_addr = 0;
    sret_acc = -1;
    sret_len = 0;
    sbudget = 0;
  }

(* Block exits, encoded as ints so the hot path never allocates: a
   non-negative value is the next pc (fall-through or branch target);
   [x_halt] is Halt; [x_jump] is a Cjalr whose unsealed target is in
   [ctx.sj_*]. *)
let x_halt = -1
let x_jump = -2

type block = {
  b_pmeta : int;
  b_pbase : int;
  b_ptop : int;
      (* the pcc shape the block was compiled for: [Cap.meta], base and
         top of the pcc, whose cursor no closure reads *)
  b_span : int;  (* slots from the entry to the farthest slot any path runs *)
  b_len : int;  (* instructions retired on the longest path *)
  b_maxcost : int;  (* worst-case cycles to a deferral guard or exit: the defer_window precondition *)
  b_self : bool;  (* some path branches back to the entry *)
  b_run : int -> int;  (* acc -> exit *)
}

let trap pc cause = raise (Trap_exn { tcause = cause; tpc = pc })
let cap_result pc = function Ok c -> c | Error v -> trap pc (Cap_fault v)

(* Sentry semantics shared by Cjalr and the external entry point: unseal
   sentries and apply interrupt-posture changes. *)
let set_posture machine = function
  | Cap.Otype.Call_inherit -> ()
  | Cap.Otype.Call_disable | Cap.Otype.Return_disable ->
      Machine.set_irq_enabled machine false
  | Cap.Otype.Call_enable | Cap.Otype.Return_enable ->
      Machine.set_irq_enabled machine true

let apply_jump_target machine pc target =
  let module O = Cap.Otype in
  if not (Cap.tag target) then trap pc (Cap_fault Cap.Tag_violation);
  let unsealed =
    match Cap.otype target with
    | O.Unsealed -> target
    | O.Data _ -> trap pc (Cap_fault Cap.Seal_violation)
    | O.Sentry k ->
        set_posture machine k;
        cap_result pc (Cap.unseal_sentry target)
  in
  if not (Cap.has_perm Perm.Execute unsealed) then
    trap pc (Cap_fault (Cap.Permit_violation Perm.Execute));
  unsealed

(* acc discipline helpers.  [flushx] settles pending deferred cycles;
   the batch is below the horizon by the block precondition, so the tick
   takes the fast path and nothing fires inside it. *)
let[@inline] flushx m acc = if acc > 0 then Machine.tick m acc

let[@inline] charge m acc n =
  if acc >= 0 then acc + n
  else begin
    Machine.tick m n;
    -1
  end

(* Retire one instruction: charge Cost.instr, bump instret, and emit the
   periodic trace sample.  Tick-before-increment is the per-step
   order — a preemption inside the tick can retire other
   instructions, and the sample boundary must see the post-preemption
   count.  Under deferral no preemption is possible and no sample
   boundary lies inside the block, so the inverted order is
   unobservable there. *)
let[@inline] retire ctx acc =
  if acc >= 0 then begin
    (* Deferred: the dispatcher deferred this block (and bounded its
       spin) only if it retires before the next sample instret whenever
       a sink is attached, so the sample check cannot fire — skip it. *)
    ctx.sinstret <- ctx.sinstret + 1;
    acc + Cost.instr
  end
  else begin
    Machine.tick ctx.sm Cost.instr;
    let n = ctx.sinstret + 1 in
    ctx.sinstret <- n;
    if n land 1023 = 0 && Machine.tracing ctx.sm then
      Machine.emit ctx.sm (Obs.Instr_sample { instret = n });
    -1
  end

(* Flush-then-raise: a trap must leave the clock where per-step execution
   would, so pending deferred cycles are settled before the raise. *)
let trapfx m acc pc cause =
  flushx m acc;
  raise (Trap_exn { tcause = cause; tpc = pc })

(* Packed-derivation result check: non-zero codes decode to the exact
   boxed violation and trap with pending cycles flushed. *)
let[@inline] pkfx m acc pc code =
  if code <> 0 then trapfx m acc pc (Cap_fault (Pk.violation code))

(* Direct access checks on the packed authority.  An [sz]-byte access at
   [addr] through register [r] passes every check of the
   full checked path iff
   - its meta word holds [key]'s tag and permission bits and no otype
     bits (one mask and compare, see [Pk.access_mask]);
   - [addr, addr + sz) lies inside the capability's bounds and inside
     SRAM ([lo], [hi]: the memory's range);
   - [addr] is size-aligned;
   - the load filter passes on the authority's base.
   Nothing is remembered between accesses, so nothing can go stale: a
   revocation edit, a filter toggle or a snapshot restore is seen by
   the very next access.  When the predicate holds the arm goes straight
   to the backing store; when it fails the arm takes the full checked
   [Machine] path, which raises the exact fault at the exact cycle. *)
let[@inline] direct mem lo hi pk r key mask addr sz =
  Pk.umeta pk r land mask = key
  && addr >= Pk.ubase pk r
  && addr + sz <= Pk.utop pk r
  && addr >= lo
  && addr + sz <= hi
  && addr land (sz - 1) = 0
  && not (Memory.base_filtered mem (Pk.ubase pk r))

let k_load = Pk.access_key (Perm.Set.of_list [ Perm.Load ])
let m_load = Pk.access_mask k_load
let k_store = Pk.access_key (Perm.Set.of_list [ Perm.Store ])
let m_store = Pk.access_mask k_store
let k_store_cap = Pk.access_key (Perm.Set.of_list [ Perm.Store; Perm.Mem_cap ])
let m_store_cap = Pk.access_mask k_store_cap

(* The non-deferred half of a direct access.  The full path runs the
   load filter after the access charge, and that charge may tick into a
   listener that edits revocation bits, so re-read the filter there (on
   the base read before the charge, as the full path's boxed authority
   was) and raise its exact fault. *)
let refilter m acc mem base addr access =
  if Memory.base_filtered mem base then begin
    flushx m acc;
    raise (Memory.Fault { Memory.cause = Cap.Tag_violation; addr; access })
  end

(* A tagged capability store may skip the Store_local fault: the source
   (meta [sm]) is untagged or Global, or the authority ([am]) has
   Store_local. *)
let[@inline] local_ok sm am =
  (not (Pk.m_tag sm))
  || Pk.m_has_perm Perm.Global sm
  || Pk.m_has_perm Perm.Store_local am

(* [Csc]'s store of register [r] once the access has passed [direct]:
   the register's ints go into the capability store as they are, with no
   capability built. *)
let[@inline] store_packed mem addr pk r =
  Memory.store_cap_unchecked mem addr ~meta:(Pk.umeta pk r) ~base:(Pk.ubase pk r)
    ~top:(Pk.utop pk r) ~cursor:(Pk.ucursor pk r)

(* [Clc]'s attenuation and Mem_cap rule read only the authority's
   permissions. *)
let[@inline] perms_of am = Perm.Set.of_bits (Pk.m_perm_bits am)

(* [apply_jump_target] on a packed target register: the same checks in
   the same order and the same posture change, leaving the unsealed
   target packed in [ctx.sj_*] (written after the posture change, and
   read by the dispatcher before anything can tick).  Nothing is boxed:
   the dispatcher boxes the target only when it is a pcc to run on. *)
let jump_target_pk ctx pk rs pc =
  let module O = Cap.Otype in
  let meta = Pk.meta pk rs in
  if not (Pk.m_tag meta) then trap pc (Cap_fault Cap.Tag_violation);
  (match Cap.otype_of_code (Pk.m_otype meta) with
  | O.Unsealed -> ()
  | O.Data _ -> trap pc (Cap_fault Cap.Seal_violation)
  | O.Sentry k -> set_posture ctx.sm k);
  let meta = Pk.m_unsealed meta in
  if not (Pk.m_has_perm Perm.Execute meta) then
    trap pc (Cap_fault (Cap.Permit_violation Perm.Execute));
  ctx.sj_meta <- meta;
  ctx.sj_base <- Pk.base pk rs;
  ctx.sj_top <- Pk.top pk rs;
  ctx.sj_addr <- Pk.cursor pk rs

let jump_cap ctx =
  Cap.of_meta ~meta:ctx.sj_meta ~base:ctx.sj_base ~top:ctx.sj_top ~cursor:ctx.sj_addr


(* Block shape.  A block is the code reachable from its entry slot
   through forward control transfers.  A conditional branch whose target
   lies ahead is a two-way closure whose arms both continue inside the
   block, and a [J] whose target lies ahead continues at its target.  A
   block ends only at a backward conditional branch or [J] (back to the
   entry it is a self-loop, see [back]; any other backward target is an
   exit, and so is a backward branch's not-taken side), at [Cjal],
   [Cjalr], [Halt] and [Trapif], and where a path runs off the end of
   the segment.  Following forward edges only makes the block a DAG, so
   compilation terminates.

   Per-path counts.  A closure is compiled for a (slot, instructions
   retired before it) pair, memoised on that pair where two paths can
   enter the slot: paths that meet at a slot after retiring the same
   number of instructions share the rest of the block, and paths that
   meet with different counts (the two arms of an uneven diamond) get a
   copy each.  So every exit's retired count
   ([sret_len]) is a compile-time constant.  A forward branch's taken
   arm is compiled when it first runs ([later]), so a block holds copies
   only for the paths executions have taken: compiling the block costs
   its fall-through path, and each new path costs its own slots.

   Deferral windows.  The taken arm of a folded forward branch is a
   deferral guard: a deferred run re-checks the event horizon there for
   the cost up to the next guard or exit, and when that does not fit it
   settles the batch and runs on per step (exact, since the batch so far
   lay below the horizon).  So a block's deferral precondition, and a
   self-loop's per-trip re-check, cover only the window from the entry
   to the first guard: a loop whose exit arm folds a long tail defers
   as readily as the bare loop.

   Block figures.  The dispatcher checks the PCC bounds over the slot
   span (the entry to the farthest slot any path runs), fuel and the
   sample room against the longest path, and the event horizon against
   [b_maxcost], the worst cost from the entry to a guard or exit. *)

(* A taken arm compiled on first use (see [compile]). *)
type later = { mutable lk : int -> int }

(* The closures compiled for join slots, one per slot and count of
   instructions retired before it. *)
type copies = No_copy | Copy of { j : int; c : int; k : int -> int; rest : copies }

(* A guarded taken arm: [k] runs at most [kw] cycles before its next
   guard or exit. *)
let[@inline] take m k kw acc =
  if acc >= 0 && not (Machine.defer_window m (acc + kw)) then begin
    flushx m acc;
    k (-1)
  end
  else k acc

(* Worst-case cycle cost of one instruction, for the defer_window
   precondition (mem_cap = mmio = 3 dominates mem_word). *)
let instr_maxcost = function
  | Isa.Lw _ | Isa.Sw _ | Isa.Clc _ | Isa.Csc _ -> Cost.instr + Cost.mem_cap
  | _ -> Cost.instr

(* The number of [Mv rd, zero] (register clears) from slot [j] on. *)
let zero_run dec j =
  let rec go l =
    if j + l < Array.length dec then
      match dec.(j + l).d_ins with Isa.Mv (_, 0) -> go (l + 1) | _ -> l
    else l
  in
  go 0

(* Every exit hands back the pending batch and the number of
   instructions this execution retired (on the last trip, for a
   self-loop). *)
let[@inline] leave ctx acc n pc =
  ctx.sret_acc <- acc;
  ctx.sret_len <- n;
  pc

(* The switcher's stack-zeroing loop, recognised by its instructions:
   the 6-slot self-loop [Cgetaddr r,c; Beq r,e,out; Csc zero,0(c);
   Csc zero,8(c); Cincaddrimm c,c,16; J entry] with r, c and e distinct
   and non-zero (so only the loop itself writes c, and e and the
   authority's bounds stay put) and [out] ahead of the [Beq] (so the
   exit folds into the block and a trip is the six slots).  [Some (r,
   c, e)] when the block entered at [idx] has that shape. *)
let zero_loop_shape dec ~base ~idx =
  let entry = base + (4 * idx) in
  if idx + 5 >= Array.length dec then None
  else
    let ins j = dec.(idx + j).d_ins in
    match (ins 0, ins 1, ins 2, ins 3, ins 4, ins 5) with
    | ( Isa.Cgetaddr (r, c),
        Isa.Beq (r', e, _),
        Isa.Csc (0, 0, c2),
        Isa.Csc (0, 8, c3),
        Isa.Cincaddrimm (c4, c5, 16),
        Isa.J _ )
      when r' = r && c2 = c && c3 = c && c4 = c && c5 = c
           && dec.(idx + 5).d_target = entry
           && dec.(idx + 1).d_target > entry + 4
           && r <> 0 && c <> 0 && e <> 0 && r <> c && r <> e && c <> e ->
        Some (r, c, e)
    | _ -> None

(* The zeroing loop in closed form.  On a deferred entry it runs [n]
   full trips at once, [n] bounded by the trips left to [e] and by the
   back-edges the per-trip closure would take: [1 + min s j], [s] the
   extra trips the spin budget ([sbudget], which must still cover a
   longest path after each trip) allows and [j] the largest trip count
   whose back-edge check [defer_window (acc' + worst)] still passes.
   One range-wide check stands for the [2n] direct checks of the NULL
   stores, all on the same authority with the same meta, bounds and
   base: the mask and compare, both bounds, SRAM, 8-byte alignment of
   the cursor (every store is then aligned) and the load filter.  It
   settles the state exactly as [n] trips of [per_trip] would (memory,
   instret, batch, cursor, [r], spent budget), then takes the back-edge
   after the last trip itself, so the exit path (the folded tail behind
   [out]) or the hand-back to the dispatcher is [per_trip]'s own.
   Anything else (not deferring, [e] not a whole number of trips ahead,
   a failing check) runs [per_trip]. *)
let zero_loop ctx ~lo ~hi ~len ~worst ~trip_len ~trip_cost ~r ~c ~e ~per_trip ~back =
  let m = ctx.sm and mem = ctx.smem and pk = ctx.spk in
  fun acc ->
    let cur = Pk.ucursor pk c in
    let left = Pk.ucursor pk e - cur in
    if acc < 0 || left <= 0 || left land 15 <> 0 then per_trip acc
    else begin
      let backs = Int.max 0 ((Machine.defer_room m - acc - worst - 1) / trip_cost) in
      let spins = Int.max 0 ((ctx.sbudget - len) / trip_len) in
      let n = Int.min (left lsr 4) (1 + Int.min spins backs) in
      let fin = cur + (16 * n) in
      let b = Pk.ubase pk c in
      if
        Pk.umeta pk c land m_store_cap = k_store_cap
        && cur >= b
        && fin <= Pk.utop pk c
        && cur >= lo
        && fin <= hi
        && cur land 7 = 0
        && not (Memory.base_filtered mem b)
      then begin
        Memory.zero_priv mem ~addr:cur ~len:(fin - cur);
        ctx.sinstret <- ctx.sinstret + (trip_len * n);
        Pk.uset_int pk r (fin - 16);
        Pk.uset_cursor pk c fin;
        ctx.sbudget <- ctx.sbudget - (trip_len * (n - 1));
        back trip_len (acc + (trip_cost * n))
      end
      else per_trip acc
    end

let compile ~single ctx dec ~base ~idx ~pcc =
  let m = ctx.sm and mem = ctx.smem and pk = ctx.spk in
  let lo = Memory.base mem in
  let hi = lo + Memory.size mem in
  let n = Array.length dec in
  let entry = base + (4 * idx) in
  let slot_of tpc = (tpc - base) lsr 2 in
  (* The slots a path runs next after slot [j], -1 for none (one past
     the segment end is a fall-off exit): [fall j] continues without a
     guard (the next slot, or a forward [J]'s target), [taken j] is a
     forward branch's taken arm, a deferral guard. *)
  let fall j =
    if single then -1
    else
      let d = Array.unsafe_get dec j in
      match d.d_ins with
      | Isa.Beq _ | Isa.Bne _ | Isa.Bltu _ | Isa.Bgeu _ ->
          if d.d_target > base + (4 * j) then j + 1 else -1
      | Isa.J _ -> if d.d_target > base + (4 * j) then slot_of d.d_target else -1
      | Isa.Cjal _ | Isa.Cjalr _ | Isa.Halt | Isa.Trapif _ -> -1
      | _ -> j + 1
  in
  let taken j =
    if single then -1
    else
      let d = Array.unsafe_get dec j in
      match d.d_ins with
      | (Isa.Beq _ | Isa.Bne _ | Isa.Bltu _ | Isa.Bgeu _) when d.d_target > base + (4 * j) ->
          slot_of d.d_target
      | _ -> -1
  in
  (* Block figures, from the slots alone: the longest path, the span and
     the deferral windows depend on which slots a path runs, not on the
     counts its closures are compiled for.  A forward pass marks the
     slots the block reaches, then a backward pass takes, per slot, the
     longest path from it and its window (the worst cost up to a guard
     or exit).  Both are indexed from the entry slot, and sized for the entry slot
     alone in a one-instruction block. *)
  let size = if single then 1 else n - idx in
  let len = Array.make size 0 and win = Array.make size 0 in
  (* Slots two paths can enter: the only ones whose copies need
     memoising, since every other slot is compiled from its one
     predecessor's copies, once each. *)
  let join = Bytes.make size '\000' in
  let reached s = s >= idx && s < n in
  let enter s =
    if reached s then
      if len.(s - idx) = 0 then len.(s - idx) <- 1 else Bytes.set join (s - idx) '\001'
  in
  let far = ref idx and self = ref false in
  len.(0) <- 1;
  for j = idx to idx + size - 1 do
    if len.(j - idx) > 0 then begin
      far := j;
      (match dec.(j).d_ins with
      | Isa.Beq _ | Isa.Bne _ | Isa.Bltu _ | Isa.Bgeu _ | Isa.J _ ->
          if dec.(j).d_target = entry then self := true
      | _ -> ());
      enter (fall j);
      enter (taken j)
    end
  done;
  for j = !far downto idx do
    if len.(j - idx) > 0 then begin
      let f = fall j and t = taken j in
      let lf = if reached f then len.(f - idx) else 0
      and lt = if reached t then len.(t - idx) else 0 in
      len.(j - idx) <- 1 + Int.max lf lt;
      win.(j - idx) <-
        (instr_maxcost dec.(j).d_ins + if reached f then win.(f - idx) else 0)
    end
  done;
  let longest = len.(0) and window = win.(0) in
  (* Self-loop support: a back-edge to this block's own entry re-enters
     the chain head directly (knot tied through [head]) while the spin
     budget [ctx.sbudget] still covers a longest path after this trip's
     [nt] retirements, re-checking the event horizon against the
     accumulated batch each time.  Deferred execution is atomic — every
     tick inside it is below the horizon, so it takes the fast path and
     cannot run effects — which is what makes the shared budget sound:
     nothing can preempt mid-spin.  The dispatcher sets the budget to the
     smaller of the fuel and the sample room, so the skipped sample check
     stays sound, and charges fuel as the budget spent plus the last
     trip's [sret_len]. *)
  let head = ref (fun (_ : int) -> x_halt) in
  let back nt acc =
    if acc >= 0 && ctx.sbudget - nt >= longest && Machine.defer_window m (acc + window)
    then begin
      ctx.sbudget <- ctx.sbudget - nt;
      !head acc
    end
    else leave ctx acc nt entry
  in
  (* Every copy compiled at a join slot. *)
  let memo = ref No_copy in
  (* The backward sentry a Cjal or Cjalr at [pc] links (the pcc at
     [pc + 4], sealed as [kind]), or the violation deriving it raises. *)
  let link pc kind =
    Result.bind (Cap.with_address pcc (pc + 4)) (fun c -> Cap.seal_entry c kind)
  in
  let exit_to c1 tpc acc = leave ctx acc c1 tpc in
  (* [build j c]: the closure that runs slot [j] after [c] retirements. *)
  let rec build j c =
    if j >= n || (single && j > idx) then
      (* Off the end of the segment (or of a one-instruction block): the
         dispatcher re-checks segment and bounds at the returned pc,
         exactly as a one-instruction step would. *)
      exit_to c (base + (4 * j))
    else if Bytes.get join (j - idx) = '\000' then node j c
    else
      let rec find = function
        | No_copy ->
            let k = node j c in
            memo := Copy { j; c; k; rest = !memo };
            k
        | Copy cp -> if cp.j = j && cp.c = c then cp.k else find cp.rest
      in
      find !memo
  (* The taken arm of a forward branch, compiled when it first runs: a
     block compiles only the paths it takes (a trap arm or an arity the
     callers never use costs nothing), and every later run calls the
     compiled arm through the cell. *)
  and later j c =
    let cell = { lk = (fun _ -> x_halt) } in
    cell.lk <-
      (fun acc ->
        let k = build j c in
        cell.lk <- k;
        k acc);
    cell
  (* The taken arm (a cell), its window (guarded, see [take]) and the
     not-taken continuation of a conditional branch at slot [j], after
     [c1] retirements, that does not go back to the entry. *)
  and arms j c1 tpc =
    let pc = base + (4 * j) in
    if tpc <= pc then ({ lk = exit_to c1 tpc }, 0, exit_to c1 (pc + 4))
    else
      let t = slot_of tpc in
      (later t c1, (if t < idx + size then win.(t - idx) else 0), build (j + 1) c1)
  and node j c =
    let slot = Array.unsafe_get dec j in
    let pc = base + (4 * j) in
    let c1 = c + 1 in
    let f =
      match slot.d_ins with
      (* --- straight-line instructions: call the continuation --- *)
      | Isa.Li (rd, v) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd v;
            k acc
      | Isa.Mv (_, 0) when (not single) && zero_run dec j >= 2 ->
          (* A run of register clears (the switcher's scrubs) in one
             closure: deferred, one batched retirement for the run;
             otherwise each clear retires first, as per step. *)
          let regs =
            Array.init (zero_run dec j) (fun i ->
                match dec.(j + i).d_ins with Isa.Mv (rd, _) -> rd | _ -> 0)
          in
          let len = Array.length regs in
          let k = build (j + len) (c + len) in
          fun acc ->
            if acc >= 0 then begin
              ctx.sinstret <- ctx.sinstret + len;
              for i = 0 to len - 1 do
                Pk.uset_int pk (Array.unsafe_get regs i) 0
              done;
              k (acc + (len * Cost.instr))
            end
            else begin
              for i = 0 to len - 1 do
                ignore (retire ctx acc);
                Pk.uset_int pk (Array.unsafe_get regs i) 0
              done;
              k acc
            end
      | Isa.Mv (rd, rs) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.ucopy pk ~dst:rd ~src:rs;
            k acc
      | Isa.Addi (rd, rs, v) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.ucursor pk rs + v);
            k acc
      | Isa.Add (rd, a, b) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.ucursor pk a + Pk.ucursor pk b);
            k acc
      | Isa.Sub (rd, a, b) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.ucursor pk a - Pk.ucursor pk b);
            k acc
      | Isa.Andi (rd, rs, v) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.ucursor pk rs land v);
            k acc
      (* --- memory: direct checks on the packed authority.  Deferred
         and passing, the arm retires and charges in one batched add.
         Otherwise it retires (a real tick when not deferring; the
         registers are re-read after it, as per-step execution reads
         them); a passing access then charges, re-reads the load filter
         after the charge and goes straight to the backing store, and
         anything else takes the full checked [Machine] path. --- *)
      | Isa.Lw (rd, imm, rs) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let addr = Pk.ucursor pk rs + imm in
            if acc >= 0 && direct mem lo hi pk rs k_load m_load addr 4 then begin
              ctx.sinstret <- ctx.sinstret + 1;
              Pk.uset_int pk rd (Memory.load32_unchecked mem addr);
              k (acc + (Cost.instr + Cost.mem_word))
            end
            else begin
              let acc = retire ctx acc in
              let addr = Pk.ucursor pk rs + imm in
              if direct mem lo hi pk rs k_load m_load addr 4 then begin
                let b = Pk.ubase pk rs in
                let acc = charge m acc Cost.mem_word in
                refilter m acc mem b addr Memory.Read;
                Pk.uset_int pk rd (Memory.load32_unchecked mem addr);
                k acc
              end
              else begin
                let auth = Pk.unpack pk rs in
                if Machine.in_sram m addr then begin
                  let v =
                    try Machine.load m ~auth ~addr ~size:4
                    with e ->
                      flushx m acc;
                      raise e
                  in
                  Pk.uset_int pk rd v;
                  k acc
                end
                else begin
                  (* MMIO (or unmapped): the device observes the clock and
                     may raise IRQs — flush first, stop deferring after. *)
                  flushx m acc;
                  let v = Machine.load m ~auth ~addr ~size:4 in
                  Pk.uset_int pk rd v;
                  k (-1)
                end
              end
            end
      | Isa.Sw (rs2, imm, rs1) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let addr = Pk.ucursor pk rs1 + imm in
            if acc >= 0 && direct mem lo hi pk rs1 k_store m_store addr 4 then begin
              ctx.sinstret <- ctx.sinstret + 1;
              Memory.store32_unchecked mem addr (Pk.ucursor pk rs2);
              k (acc + (Cost.instr + Cost.mem_word))
            end
            else begin
              let acc = retire ctx acc in
              let addr = Pk.ucursor pk rs1 + imm in
              if direct mem lo hi pk rs1 k_store m_store addr 4 then begin
                let b = Pk.ubase pk rs1 and v = Pk.ucursor pk rs2 in
                let acc = charge m acc Cost.mem_word in
                refilter m acc mem b addr Memory.Write;
                Memory.store32_unchecked mem addr v;
                k acc
              end
              else begin
                let auth = Pk.unpack pk rs1 in
                if Machine.in_sram m addr then begin
                  (try Machine.store m ~auth ~addr ~size:4 (Pk.ucursor pk rs2)
                   with e ->
                     flushx m acc;
                     raise e);
                  k acc
                end
                else begin
                  flushx m acc;
                  Machine.store m ~auth ~addr ~size:4 (Pk.ucursor pk rs2);
                  k (-1)
                end
              end
            end
      | Isa.Clc (rd, imm, rs) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let addr = Pk.ucursor pk rs + imm in
            if acc >= 0 && direct mem lo hi pk rs k_load m_load addr Memory.granule_size
            then begin
              ctx.sinstret <- ctx.sinstret + 1;
              let perms = perms_of (Pk.umeta pk rs) in
              Pk.uload_cap pk rd mem ~addr ~perms;
              k (acc + (Cost.instr + Cost.mem_cap))
            end
            else begin
              let acc = retire ctx acc in
              let addr = Pk.ucursor pk rs + imm in
              if direct mem lo hi pk rs k_load m_load addr Memory.granule_size then begin
                let perms = perms_of (Pk.umeta pk rs)
                and b = Pk.ubase pk rs in
                let acc = charge m acc Cost.mem_cap in
                refilter m acc mem b addr Memory.Read;
                Pk.uload_cap pk rd mem ~addr ~perms;
                k acc
              end
              else begin
                let auth = Pk.unpack pk rs in
                let v =
                  try Machine.load_cap m ~auth ~addr
                  with e ->
                    flushx m acc;
                    raise e
                in
                Pk.pack pk rd v;
                k acc
              end
            end
      | Isa.Csc (0, imm, rs1) ->
          (* NULL store (the switcher's zeroing loops and frame scrub):
             untagged, so it never runs the tag-set hook. *)
          let k = build (j + 1) c1 in
          fun acc ->
            let addr = Pk.ucursor pk rs1 + imm in
            if
              acc >= 0
              && direct mem lo hi pk rs1 k_store_cap m_store_cap addr Memory.granule_size
            then begin
              ctx.sinstret <- ctx.sinstret + 1;
              Memory.zero_granule_unchecked mem addr;
              k (acc + (Cost.instr + Cost.mem_cap))
            end
            else begin
              let acc = retire ctx acc in
              let addr = Pk.ucursor pk rs1 + imm in
              if direct mem lo hi pk rs1 k_store_cap m_store_cap addr Memory.granule_size
              then begin
                let b = Pk.ubase pk rs1 in
                let acc = charge m acc Cost.mem_cap in
                refilter m acc mem b addr Memory.Write;
                Memory.zero_granule_unchecked mem addr;
                k acc
              end
              else begin
                flushx m acc;
                Machine.store_cap m ~auth:(Pk.unpack pk rs1) ~addr Cap.null;
                k (-1)
              end
            end
      | Isa.Csc (rs2, imm, rs1) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let addr = Pk.ucursor pk rs1 + imm in
            (* A store that may set a tag runs the tag-set hook.  With the
               revoker idle that hook does nothing, and nothing inside a
               deferred batch can start a sweep, so the store stays in
               the batch. *)
            if
              acc >= 0
              && (not (Machine.revoker_busy m))
              && direct mem lo hi pk rs1 k_store_cap m_store_cap addr Memory.granule_size
              && local_ok (Pk.umeta pk rs2) (Pk.umeta pk rs1)
            then begin
              ctx.sinstret <- ctx.sinstret + 1;
              store_packed mem addr pk rs2;
              k (acc + (Cost.instr + Cost.mem_cap))
            end
            else begin
              (* Otherwise the hook settles a sweep against the live
                 clock: flush first, stop deferring after. *)
              let acc = retire ctx acc in
              flushx m acc;
              let addr = Pk.ucursor pk rs1 + imm in
              if
                direct mem lo hi pk rs1 k_store_cap m_store_cap addr Memory.granule_size
                && local_ok (Pk.umeta pk rs2) (Pk.umeta pk rs1)
              then begin
                let b = Pk.ubase pk rs1 in
                Machine.tick m Cost.mem_cap;
                refilter m (-1) mem b addr Memory.Write;
                store_packed mem addr pk rs2;
                k (-1)
              end
              else begin
                Machine.store_cap m ~auth:(Pk.unpack pk rs1) ~addr (Pk.unpack pk rs2);
                k (-1)
              end
            end
      | Isa.Cincaddr (rd, a, b) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.incr_addr pk ~dst:rd ~src:a (Pk.ucursor pk b));
            k acc
      | Isa.Cincaddrimm (rd, a, v) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.incr_addr pk ~dst:rd ~src:a v);
            k acc
      | Isa.Csetaddr (rd, a, b) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_addr pk ~dst:rd ~src:a (Pk.ucursor pk b));
            k acc
      | Isa.Csetbounds (rd, a, b) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_bounds pk ~dst:rd ~src:a (Pk.ucursor pk b));
            k acc
      | Isa.Csetboundsimm (rd, a, v) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_bounds pk ~dst:rd ~src:a v);
            k acc
      | Isa.Candperm (rd, a, mask) ->
          let k = build (j + 1) c1 in
          let pset = Perm.Set.of_bits mask in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.and_perms pk ~dst:rd ~src:a pset);
            k acc
      | Isa.Cgetaddr (rd, a) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.ucursor pk a);
            k acc
      | Isa.Cgetbase (rd, a) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.base pk a);
            k acc
      | Isa.Cgetlen (rd, a) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.length pk a);
            k acc
      | Isa.Cgettag (rd, a) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.tag_bit pk a);
            k acc
      | Isa.Cgettype (rd, a) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            (* The packed otype code IS the architectural CGetType
               encoding. *)
            Pk.uset_int pk rd (Pk.otype_code pk a);
            k acc
      | Isa.Cgetperm (rd, a) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.uset_int pk rd (Pk.perm_bits pk a);
            k acc
      | Isa.Cseal (rd, a, key) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.seal pk ~dst:rd ~src:a ~key);
            k acc
      | Isa.Cunseal (rd, a, key) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.unseal pk ~dst:rd ~src:a ~key);
            k acc
      | Isa.Csealentry (rd, a, kind) ->
          let k = build (j + 1) c1 in
          let code = Cap.sentry_code kind in
          fun acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.seal_entry pk ~dst:rd ~src:a code);
            k acc
      | Isa.Auipcc (rd, _) ->
          let k = build (j + 1) c1 in
          let tgt = slot.d_target in
          (* [Cap.with_address pcc tgt], packed without boxing. *)
          if Cap.is_sealed pcc then fun acc ->
            trapfx m (retire ctx acc) pc (Cap_fault Cap.Seal_violation)
          else fun acc ->
            let acc = retire ctx acc in
            Pk.pack_at pk rd pcc tgt;
            k acc
      | Isa.Cspecialrw (rd, sidx, rs) ->
          let k = build (j + 1) c1 in
          let spec = ctx.sspec in
          if not (Cap.has_perm Perm.System_registers pcc) then fun acc ->
            trapfx m (retire ctx acc) pc
              (Cap_fault (Cap.Permit_violation Perm.System_registers))
          else fun acc ->
            let acc = retire ctx acc in
            Pk.uspecial_rw pk ~rd spec sidx ~rs;
            k acc
      | Isa.Ccleartag (rd, a) ->
          let k = build (j + 1) c1 in
          fun acc ->
            let acc = retire ctx acc in
            Pk.clear_tag pk ~dst:rd ~src:a;
            k acc
      (* --- conditional branches: back to the entry, a self-loop;
         otherwise two-way, both arms continuing in the block when the
         target lies ahead and both exiting when it lies behind --- *)
      | Isa.Beq (a, b, _) ->
          let tpc = slot.d_target in
          if tpc = entry then begin
            self := true;
            let nt = pc + 4 in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a = Pk.ucursor pk b then back c1 acc
              else leave ctx acc c1 nt
          end
          else
            let kt, kw, kn = arms j c1 tpc in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a = Pk.ucursor pk b then take m kt.lk kw acc
              else kn acc
      | Isa.Bne (a, b, _) ->
          let tpc = slot.d_target in
          if tpc = entry then begin
            self := true;
            let nt = pc + 4 in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a <> Pk.ucursor pk b then back c1 acc
              else leave ctx acc c1 nt
          end
          else
            let kt, kw, kn = arms j c1 tpc in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a <> Pk.ucursor pk b then take m kt.lk kw acc
              else kn acc
      | Isa.Bltu (a, b, _) ->
          let tpc = slot.d_target in
          if tpc = entry then begin
            self := true;
            let nt = pc + 4 in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a < Pk.ucursor pk b then back c1 acc
              else leave ctx acc c1 nt
          end
          else
            let kt, kw, kn = arms j c1 tpc in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a < Pk.ucursor pk b then take m kt.lk kw acc
              else kn acc
      | Isa.Bgeu (a, b, _) ->
          let tpc = slot.d_target in
          if tpc = entry then begin
            self := true;
            let nt = pc + 4 in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a >= Pk.ucursor pk b then back c1 acc
              else leave ctx acc c1 nt
          end
          else
            let kt, kw, kn = arms j c1 tpc in
            fun acc ->
              let acc = retire ctx acc in
              if Pk.ucursor pk a >= Pk.ucursor pk b then take m kt.lk kw acc
              else kn acc
      (* --- jumps: a forward J continues at its target; a J back to the
         entry is a self-loop; the rest hand back the batch and return
         the exit --- *)
      | Isa.J _ ->
          let tgt = slot.d_target in
          if tgt = entry then begin
            self := true;
            fun acc -> back c1 (retire ctx acc)
          end
          else if tgt > pc then
            let k = build (slot_of tgt) c1 in
            fun acc -> k (retire ctx acc)
          else begin
            fun acc -> leave ctx (retire ctx acc) c1 tgt
          end
      | Isa.Cjal (0, _) ->
          let tgt = slot.d_target in
          fun acc -> leave ctx (retire ctx acc) c1 tgt
      | Isa.Cjal (rd, _) ->
          let tgt = slot.d_target in
          let link_en = link pc Cap.Otype.Return_enable
          and link_dis = link pc Cap.Otype.Return_disable in
          fun acc ->
            let acc = retire ctx acc in
            Pk.pack pk rd (Cap.exn (if Machine.irq_enabled m then link_en else link_dis));
            leave ctx acc c1 tgt
      | Isa.Cjalr (rd, rs) ->
          (* Flushed before the posture change: a change that dirties the
             horizon (enabling interrupts with one pending, or a traced
             change mid-sweep) must see the clock where per-step
             execution has it.  The link reads the posture before the
             jump changes it. *)
          if rd = 0 then fun acc ->
            flushx m (retire ctx acc);
            jump_target_pk ctx pk rs pc;
            leave ctx (-1) c1 x_jump
          else
            let link_en = link pc Cap.Otype.Return_enable
            and link_dis = link pc Cap.Otype.Return_disable in
            fun acc ->
              flushx m (retire ctx acc);
              let link = if Machine.irq_enabled m then link_en else link_dis in
              jump_target_pk ctx pk rs pc;
              Pk.pack pk rd (Cap.exn link);
              leave ctx (-1) c1 x_jump
      | Isa.Halt ->
          fun acc ->
            flushx m (retire ctx acc);
            leave ctx (-1) c1 x_halt
      | Isa.Trapif cause ->
          fun acc ->
            flushx m (retire ctx acc);
            trap pc (Software cause)
    in
    f
  in
  let f = build idx 0 in
  let f =
    match if single then None else zero_loop_shape dec ~base ~idx with
    | Some (r, c, e) ->
        let trip_cost = ref 0 in
        for j = idx to idx + 5 do
          trip_cost := !trip_cost + instr_maxcost dec.(j).d_ins
        done;
        zero_loop ctx ~lo ~hi ~len:longest ~worst:window ~trip_len:6 ~trip_cost:!trip_cost
          ~r ~c ~e ~per_trip:f ~back
    | None -> f
  in
  head := f;
  { b_pmeta = Cap.meta pcc; b_pbase = Cap.base pcc; b_ptop = Cap.top pcc;
    b_span = !far - idx + 1; b_len = longest; b_maxcost = window; b_self = !self; b_run = f }
