module Cap = Capability
module Pk = Packed_cap

(* Superblock compiler: the third interpreter back-end.

   A superblock is the straight-line run from a jump target (or branch
   fall-through) to the next control-flow instruction, inclusive.  On
   first execution the pre-decoded slots of that run are compiled into a
   single fused OCaml closure chain — one closure per instruction, each
   tail-calling the next — so the per-step dispatch, segment-range and
   PCC-bounds checks disappear from the hot path: the dispatcher in
   [Interp] validates the whole block's preconditions once at entry and
   either runs the fused closure or side-exits to the exact per-
   instruction engine.

   Register file: the packed capability file ([Packed_cap]) — each
   register is four untagged ints (meta, base, top, cursor) in one flat
   [int array], so the steady-state arm bodies (ALU, branches, cached
   loads/stores, in-place derivations) perform zero minor-heap
   allocation and no GC write barriers.  Boxed [Cap.t] values appear
   only at boundaries: the threaded pcc, [Machine] memory authority on
   cache misses, Cjalr targets/links, special registers — all converted
   through the exact [pack]/[unpack] bijection.

   Equivalence contract (every rule here exists to keep registers,
   cycles, instret, trap cause + PC and the Obs event stream bit-
   identical to the legacy engine):

   - Per-run state (pcc, pending deferred cycles) is threaded through
     the closure chain as ARGUMENTS, never stored in [ctx].  A tick can
     suspend the whole run via the kernel's preemption effect and
     re-enter the interpreter for another thread; argument threading
     keeps each run's state in its own captured continuation.  The
     packed file itself is shared across interleaved runs exactly as
     the physical register file would be — the switcher saves and
     restores it around every context switch.

   - Deferred tick batching ([acc] >= 0) is only entered when the whole
     block's worst-case cost fits strictly below the machine's event
     horizon ([Machine.defer_window]): then every elided tick would have
     taken the fast path (no listener, timer or IRQ delivery), nothing
     can observe the clock mid-block, and one batched tick at the
     terminator is exact.  [acc] = -1 means "not deferring": every
     charge ticks immediately, which is the legacy behaviour instruction
     for instruction (and the only mode in which preemption, tracing
     samples or fault-injection listeners can fire mid-block).

   - Every raise out of a compiled closure flushes pending cycles first,
     so a trapping block leaves the clock exactly where the legacy
     engine would.

   - Anything with an observer flushes before it runs and disables
     deferral after: MMIO device access (devices read the clock and
     raise IRQs), a capability store that may set a tag (the tag-set
     hook settles the revoker against the live clock).  A NULL
     capability store only clears a tag and stays deferred.

   - The per-slot access caches ([acache] below) are valid iff the
     authorising register's packed meta/base/top equal the fill-time
     snapshot and [Memory.filter_epoch] is unchanged; the address is
     re-checked on every access (bounds, alignment, SRAM range).  The
     epoch bumps on every revocation-bit edit, load-filter toggle and
     snapshot restore, so a covered access has the same (passing)
     outcome as the full check chain. *)

type dslot = { d_ins : Isa.instr; d_target : int (* -1 = no label operand *) }

type trap_cause = Cap_fault of Cap.violation | Software of string

type trap = { tcause : trap_cause; tpc : int }

exception Trap_exn of trap

(* Shared execution state: the packed register file and counters every
   engine reads and writes in place.  [sjump] carries a Cjalr target
   from the terminator closure to the dispatcher, and [sret_acc] the
   pending deferred-cycle batch that a pure-control terminator hands
   back instead of flushing (each written and read back-to-back with no
   tick in between, so a preempting run cannot clobber them).  Carrying
   the batch across blocks lets a tight loop make many trips on a
   single flush; the dispatcher re-validates [Machine.defer_window]
   against the carried batch plus the next block's worst case before
   every entry, so the eventual flush still lands strictly below the
   event horizon. *)
type ctx = {
  sm : Machine.t;
  smem : Memory.t;
  spk : int array;
  sspec : Cap.t array;
  mutable sinstret : int;
  mutable sjump : Cap.t;
  mutable sret_acc : int;
  mutable sspins : int;
}

let make_ctx machine =
  {
    sm = machine;
    smem = Machine.mem machine;
    spk = Pk.make 16;
    sspec = Array.make 3 Cap.null;
    sinstret = 0;
    sjump = Cap.null;
    sret_acc = -1;
    sspins = 0;
  }

(* Block exits, encoded as ints so the hot path never allocates: a
   non-negative value is the next pc (fall-through or branch target);
   [x_halt] is Halt; [x_jump] is a Cjalr whose unsealed target is in
   [ctx.sjump]. *)
let x_halt = -1
let x_jump = -2

type block = {
  b_len : int;  (* instructions in the block; 0 = uncompilable, side-exit *)
  b_maxcost : int;  (* worst-case cycles: the defer_window precondition *)
  b_self : bool;  (* terminator's taken target is the block's own entry *)
  b_run : Cap.t -> int -> int;  (* pcc -> acc -> exit *)
}

let trap pc cause = raise (Trap_exn { tcause = cause; tpc = pc })
let cap_result pc = function Ok c -> c | Error v -> trap pc (Cap_fault v)

(* Sentry semantics shared by Cjalr and the external entry point: unseal
   sentries, apply interrupt-posture changes, and compute the backward
   sentry kind that restores the previous posture. *)
let set_posture machine = function
  | Cap.Otype.Call_inherit -> ()
  | Cap.Otype.Call_disable | Cap.Otype.Return_disable ->
      Machine.set_irq_enabled machine false
  | Cap.Otype.Call_enable | Cap.Otype.Return_enable ->
      Machine.set_irq_enabled machine true

let apply_jump_target machine pc target =
  let module O = Cap.Otype in
  if not (Cap.tag target) then trap pc (Cap_fault Cap.Tag_violation);
  let prev = Machine.irq_enabled machine in
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
  let back_kind = if prev then O.Return_enable else O.Return_disable in
  (unsealed, back_kind)

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
   periodic trace sample.  Tick-before-increment mirrors the legacy
   order exactly — a preemption inside the tick can retire other
   instructions, and the sample boundary must see the post-preemption
   count.  Under deferral no preemption or tracing is possible, so the
   inverted order is unobservable there. *)
let[@inline] retire ctx acc =
  if acc >= 0 then begin
    (* Deferred: tracing was off at block entry and no tick runs that
       could turn it on, so the sample check cannot fire — skip it. *)
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

(* Hot-path packed accessors: register indices are proved < 16 at
   compile time ([okr]), so unsafe indexing is sound.  Register 0 reads
   all-zero slots (NULL) and the write guard discards stores to it. *)
let[@inline] ucur pk r = Array.unsafe_get pk ((r lsl 2) + 3)

let[@inline] uint pk rd v =
  if rd <> 0 then begin
    let o = rd lsl 2 in
    Array.unsafe_set pk o 0;
    Array.unsafe_set pk (o + 1) 0;
    Array.unsafe_set pk (o + 2) 0;
    Array.unsafe_set pk (o + 3) v
  end

let[@inline] ucopy pk rd rs =
  if rd <> 0 then begin
    let os = rs lsl 2 and od = rd lsl 2 in
    Array.unsafe_set pk od (Array.unsafe_get pk os);
    Array.unsafe_set pk (od + 1) (Array.unsafe_get pk (os + 1));
    Array.unsafe_set pk (od + 2) (Array.unsafe_get pk (os + 2));
    Array.unsafe_set pk (od + 3) (Array.unsafe_get pk (os + 3))
  end

(* Flush-then-raise: a trap must leave the clock where the legacy engine
   would, so pending deferred cycles are settled before the raise. *)
let trapfx m acc pc cause =
  flushx m acc;
  raise (Trap_exn { tcause = cause; tpc = pc })

(* Packed-derivation result check: non-zero codes decode to the exact
   boxed violation and trap with pending cycles flushed. *)
let[@inline] pkfx m acc pc code =
  if code <> 0 then trapfx m acc pc (Cap_fault (Pk.violation code))

(* Hoisted-authority access cache, one per Lw/Sw/Clc/Csc slot.  It
   holds the authorising register's packed meta/base/top (cursor
   excluded: the switcher's zeroing loops walk one authority across a
   whole stack window) from the last access that passed the full checked
   path, plus the filter epoch that access saw.  A cursor-free key is
   enough because each check in the chain is either a pure function of
   those three ints (tag, seal, permissions, the load filter on the
   base — the latter also of the epoch) or of the address, which
   [covers] re-checks on every access: bounds, size alignment and the
   SRAM range.  A capability store that may set a tag additionally
   re-checks Store_local against the source.  [a_t] = min_int marks the
   cache empty (no constructible top is negative), so a NULL authority
   never matches. *)
type acache = {
  mutable a_m : int;
  mutable a_b : int;
  mutable a_t : int;
  mutable a_lo : int;  (* lowest and highest access address both inside *)
  mutable a_hi : int;  (* the authority's bounds and SRAM, for this size *)
  mutable a_ep : int;
  mutable a_auth : Cap.t;  (* the filling authority, for Clc's attenuation *)
}

let new_cache () =
  { a_m = 0; a_b = 0; a_t = min_int; a_lo = 0; a_hi = -1; a_ep = -1; a_auth = Cap.null }

(* Fill after a full checked [sz]-byte access through [auth] succeeded
   inside SRAM. *)
let fill c mem sz auth =
  let b = Cap.base auth and t = Cap.top auth in
  c.a_m <- Cap.meta auth;
  c.a_b <- b;
  c.a_t <- t;
  c.a_lo <- max b (Memory.base mem);
  c.a_hi <- min t (Memory.base mem + Memory.size mem) - sz;
  c.a_ep <- Memory.filter_epoch mem;
  c.a_auth <- auth

(* Every check of the full path except the filter-epoch one has the
   outcome it had at fill time — a pass — for an [sz]-byte access at
   [addr] through the register packed at [os]: same meta/base/top, and
   the address within [a_lo, a_hi] (capability bounds and SRAM range)
   and size-aligned. *)
let[@inline] covers c pk os addr sz =
  Array.unsafe_get pk (os + 2) = c.a_t
  && Array.unsafe_get pk (os + 1) = c.a_b
  && Array.unsafe_get pk os = c.a_m
  && addr >= c.a_lo
  && addr <= c.a_hi
  && addr land (sz - 1) = 0

(* Deferred and covered with the filter epoch unchanged: no tick can
   intervene, so the arm retires and charges in one batched add. *)
let[@inline] batched c mem pk os addr sz acc =
  acc >= 0 && covers c pk os addr sz && Memory.filter_epoch mem = c.a_ep

(* The post-charge half of a covered access: if the filter epoch moved
   since the cache last passed the filter (a revocation edit, a filter
   toggle or a restore — possibly by a listener inside the charge just
   made), re-run the alignment + filter check exactly where the checked
   path runs it, trapping with pending cycles flushed.  That check reads
   only the authority's base, which the key pins to [a_auth]'s. *)
let refilter m acc c addr sz access =
  let mem = Machine.mem m in
  (try Memory.check_aligned_filtered mem ~auth:c.a_auth ~addr ~size:sz access
   with e ->
     flushx m acc;
     raise e);
  c.a_ep <- Memory.filter_epoch mem

let[@inline] revalidate m acc c mem addr sz access =
  if Memory.filter_epoch mem <> c.a_ep then refilter m acc c addr sz access

(* [apply_jump_target] on a packed target register: the same checks in
   the same order and the same posture change, boxing only the unsealed
   target (the dispatcher's next pcc, or the run's exit value). *)
let jump_target_pk m pk rs pc =
  let module O = Cap.Otype in
  let meta = Pk.meta pk rs in
  if not (Pk.m_tag meta) then trap pc (Cap_fault Cap.Tag_violation);
  (match Cap.otype_of_code (Pk.m_otype meta) with
  | O.Unsealed -> ()
  | O.Data _ -> trap pc (Cap_fault Cap.Seal_violation)
  | O.Sentry k -> set_posture m k);
  let meta = Pk.m_unsealed meta in
  if not (Pk.m_has_perm Perm.Execute meta) then
    trap pc (Cap_fault (Cap.Permit_violation Perm.Execute));
  Cap.of_meta ~meta ~base:(Pk.base pk rs) ~top:(Pk.top pk rs)
    ~cursor:(Pk.cursor pk rs)

let is_terminator = function
  | Isa.Beq _ | Isa.Bne _ | Isa.Bltu _ | Isa.Bgeu _ | Isa.J _ | Isa.Cjal _
  | Isa.Cjalr _ | Isa.Halt | Isa.Trapif _ ->
      true
  | _ -> false

(* Worst-case cycle cost of one instruction, for the defer_window
   precondition (mem_cap = mmio = 3 dominates mem_word). *)
let instr_maxcost = function
  | Isa.Lw _ | Isa.Sw _ | Isa.Clc _ | Isa.Csc _ -> Cost.instr + Cost.mem_cap
  | _ -> Cost.instr

(* An instruction whose register operands fall outside the 16-entry file
   cannot use the unsafe accessors; such blocks are left uncompiled and
   the dispatcher side-exits to the per-instruction engine, which
   preserves the legacy out-of-range behaviour exactly. *)
exception Unsupported

let okr r = r >= 0 && r < 16

let compile ctx dec ~base ~idx =
  let m = ctx.sm and mem = ctx.smem and pk = ctx.spk in
  let n = Array.length dec in
  let stop =
    let rec f j = if j >= n then n else if is_terminator dec.(j).d_ins then j else f (j + 1) in
    f idx
  in
  let last = if stop >= n then n - 1 else stop in
  let maxcost = ref 0 in
  for j = idx to last do
    maxcost := !maxcost + instr_maxcost dec.(j).d_ins
  done;
  let mc = !maxcost in
  (* Self-loop support: when the terminator's taken target is this
     block's own entry, the terminator re-enters the chain head directly
     (knot tied through [head]) for up to [ctx.sspins] extra trips, each
     trip re-checking the event horizon against the accumulated batch.
     Deferred execution is atomic — every tick inside it is below the
     horizon, so it takes the fast path and cannot run effects — which
     is what makes the [sspins] counter and the skipped tracing recheck
     sound: nothing can preempt or toggle tracing mid-spin. *)
  let entry = base + (4 * idx) in
  let head = ref (fun (_ : Cap.t) (_ : int) -> x_halt) in
  let self = ref false in
  let rec build j : Cap.t -> int -> int =
    if j > last then
      (* No terminator before the segment end: fall off; the dispatcher
         re-checks segment and bounds at the returned pc, exactly as the
         per-instruction engine would on its next step. *)
      let fall = base + (4 * j) in
      fun _pcc acc ->
        ctx.sret_acc <- acc;
        fall
    else begin
      let slot = Array.unsafe_get dec j in
      let pc = base + (4 * j) in
      match slot.d_ins with
      (* --- straight-line instructions: call the continuation --- *)
      | Isa.Li (rd, v) ->
          if not (okr rd) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd v;
            k pcc acc
      | Isa.Mv (rd, rs) ->
          if not (okr rd && okr rs) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            ucopy pk rd rs;
            k pcc acc
      | Isa.Addi (rd, rs, v) ->
          if not (okr rd && okr rs) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk rs + v);
            k pcc acc
      | Isa.Add (rd, a, b) ->
          if not (okr rd && okr a && okr b) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk a + ucur pk b);
            k pcc acc
      | Isa.Sub (rd, a, b) ->
          if not (okr rd && okr a && okr b) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk a - ucur pk b);
            k pcc acc
      | Isa.Andi (rd, rs, v) ->
          if not (okr rd && okr rs) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk rs land v);
            k pcc acc
      (* --- memory: hoisted-authority caches.  A deferred covered
         access retires and charges in one batched add.  Otherwise the
         arm retires (a real tick when not deferring; the registers are
         re-read after it, as the per-step engines read them), and a
         covered access charges, revalidates the filter epoch after the
         charge (that tick may run a listener that edits revocation
         bits) and goes straight to the backing store; anything else
         takes the full checked [Machine] path and refills the cache on
         success. --- *)
      | Isa.Lw (rd, imm, rs) ->
          if not (okr rd && okr rs) then raise Unsupported;
          let os = rs lsl 2 and c = new_cache () in
          let k = build (j + 1) in
          fun pcc acc ->
            let addr = ucur pk rs + imm in
            if batched c mem pk os addr 4 acc then begin
              ctx.sinstret <- ctx.sinstret + 1;
              uint pk rd (Memory.load32_unchecked mem addr);
              k pcc (acc + (Cost.instr + Cost.mem_word))
            end
            else begin
              let acc = retire ctx acc in
              let addr = ucur pk rs + imm in
              if covers c pk os addr 4 then begin
                let acc = charge m acc Cost.mem_word in
                revalidate m acc c mem addr 4 Memory.Read;
                uint pk rd (Memory.load32_unchecked mem addr);
                k pcc acc
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
                  fill c mem 4 auth;
                  uint pk rd v;
                  k pcc acc
                end
                else begin
                  (* MMIO (or unmapped): the device observes the clock and
                     may raise IRQs — flush first, stop deferring after. *)
                  flushx m acc;
                  let v = Machine.load m ~auth ~addr ~size:4 in
                  uint pk rd v;
                  k pcc (-1)
                end
              end
            end
      | Isa.Sw (rs2, imm, rs1) ->
          if not (okr rs2 && okr rs1) then raise Unsupported;
          let os = rs1 lsl 2 and c = new_cache () in
          let k = build (j + 1) in
          fun pcc acc ->
            let addr = ucur pk rs1 + imm in
            if batched c mem pk os addr 4 acc then begin
              ctx.sinstret <- ctx.sinstret + 1;
              Memory.store32_unchecked mem addr (ucur pk rs2);
              k pcc (acc + (Cost.instr + Cost.mem_word))
            end
            else begin
              let acc = retire ctx acc in
              let addr = ucur pk rs1 + imm in
              if covers c pk os addr 4 then begin
                let acc = charge m acc Cost.mem_word in
                revalidate m acc c mem addr 4 Memory.Write;
                Memory.store32_unchecked mem addr (ucur pk rs2);
                k pcc acc
              end
              else begin
                let auth = Pk.unpack pk rs1 in
                if Machine.in_sram m addr then begin
                  (try Machine.store m ~auth ~addr ~size:4 (ucur pk rs2)
                   with e ->
                     flushx m acc;
                     raise e);
                  fill c mem 4 auth;
                  k pcc acc
                end
                else begin
                  flushx m acc;
                  Machine.store m ~auth ~addr ~size:4 (ucur pk rs2);
                  k pcc (-1)
                end
              end
            end
      | Isa.Clc (rd, imm, rs) ->
          if not (okr rd && okr rs) then raise Unsupported;
          let os = rs lsl 2 and c = new_cache () in
          let k = build (j + 1) in
          fun pcc acc ->
            let addr = ucur pk rs + imm in
            (* Mem_cap and attenuation read only the authority's
               permissions, which the key pins. *)
            if batched c mem pk os addr Memory.granule_size acc then begin
              ctx.sinstret <- ctx.sinstret + 1;
              Pk.pack pk rd (Memory.load_cap_prechecked ~auth:c.a_auth mem ~addr);
              k pcc (acc + (Cost.instr + Cost.mem_cap))
            end
            else begin
              let acc = retire ctx acc in
              let addr = ucur pk rs + imm in
              if covers c pk os addr Memory.granule_size then begin
                let acc = charge m acc Cost.mem_cap in
                revalidate m acc c mem addr Memory.granule_size Memory.Read;
                Pk.pack pk rd (Memory.load_cap_prechecked ~auth:c.a_auth mem ~addr);
                k pcc acc
              end
              else begin
                let auth = Pk.unpack pk rs in
                let v =
                  try Machine.load_cap m ~auth ~addr
                  with e ->
                    flushx m acc;
                    raise e
                in
                fill c mem Memory.granule_size auth;
                Pk.pack pk rd v;
                k pcc acc
              end
            end
      | Isa.Csc (0, imm, rs1) ->
          (* NULL store (the switcher's zeroing loops and frame scrub):
             untagged, so it never runs the tag-set hook and stays
             deferred on the covered path. *)
          if not (okr rs1) then raise Unsupported;
          let os = rs1 lsl 2 and c = new_cache () in
          let k = build (j + 1) in
          fun pcc acc ->
            let addr = ucur pk rs1 + imm in
            if batched c mem pk os addr Memory.granule_size acc then begin
              ctx.sinstret <- ctx.sinstret + 1;
              Memory.zero_granule_unchecked mem addr;
              k pcc (acc + (Cost.instr + Cost.mem_cap))
            end
            else begin
              let acc = retire ctx acc in
              let addr = ucur pk rs1 + imm in
              if covers c pk os addr Memory.granule_size then begin
                let acc = charge m acc Cost.mem_cap in
                revalidate m acc c mem addr Memory.granule_size
                  Memory.Write;
                Memory.zero_granule_unchecked mem addr;
                k pcc acc
              end
              else begin
                flushx m acc;
                let auth = Pk.unpack pk rs1 in
                Machine.store_cap m ~auth ~addr Cap.null;
                fill c mem Memory.granule_size auth;
                k pcc (-1)
              end
            end
      | Isa.Csc (rs2, imm, rs1) ->
          if not (okr rs2 && okr rs1) then raise Unsupported;
          let os = rs1 lsl 2 and os2 = rs2 lsl 2 and c = new_cache () in
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            (* A tagged source runs the tag-set hook, which settles the
               revoker against the live clock: flush first, stop
               deferring after. *)
            flushx m acc;
            let addr = ucur pk rs1 + imm in
            let sm = Array.unsafe_get pk os2 in
            if
              covers c pk os addr Memory.granule_size
              && ((not (Pk.m_tag sm))
                 || Pk.m_has_perm Perm.Global sm
                 || Pk.m_has_perm Perm.Store_local c.a_m)
            then begin
              Machine.tick m Cost.mem_cap;
              revalidate m (-1) c mem addr Memory.granule_size
                Memory.Write;
              Memory.store_cap_priv mem ~addr (Pk.unpack pk rs2);
              k pcc (-1)
            end
            else begin
              let auth = Pk.unpack pk rs1 in
              Machine.store_cap m ~auth ~addr (Pk.unpack pk rs2);
              fill c mem Memory.granule_size auth;
              k pcc (-1)
            end
      | Isa.Cincaddr (rd, a, b) ->
          if not (okr rd && okr a && okr b) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.incr_addr pk ~dst:rd ~src:a (ucur pk b));
            k pcc acc
      | Isa.Cincaddrimm (rd, a, v) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.incr_addr pk ~dst:rd ~src:a v);
            k pcc acc
      | Isa.Csetaddr (rd, a, b) ->
          if not (okr rd && okr a && okr b) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_addr pk ~dst:rd ~src:a (ucur pk b));
            k pcc acc
      | Isa.Csetbounds (rd, a, b) ->
          if not (okr rd && okr a && okr b) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_bounds pk ~dst:rd ~src:a (ucur pk b));
            k pcc acc
      | Isa.Csetboundsimm (rd, a, v) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_bounds pk ~dst:rd ~src:a v);
            k pcc acc
      | Isa.Candperm (rd, a, mask) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          let pset = Perm.Set.of_bits mask in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.and_perms pk ~dst:rd ~src:a pset);
            k pcc acc
      | Isa.Cgetaddr (rd, a) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk a);
            k pcc acc
      | Isa.Cgetbase (rd, a) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.base pk a);
            k pcc acc
      | Isa.Cgetlen (rd, a) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.length pk a);
            k pcc acc
      | Isa.Cgettag (rd, a) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.tag_bit pk a);
            k pcc acc
      | Isa.Cgettype (rd, a) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            (* The packed otype code IS the architectural CGetType
               encoding. *)
            uint pk rd (Pk.otype_code pk a);
            k pcc acc
      | Isa.Cgetperm (rd, a) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.perm_bits pk a);
            k pcc acc
      | Isa.Cseal (rd, a, key) ->
          if not (okr rd && okr a && okr key) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.seal pk ~dst:rd ~src:a ~key);
            k pcc acc
      | Isa.Cunseal (rd, a, key) ->
          if not (okr rd && okr a && okr key) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.unseal pk ~dst:rd ~src:a ~key);
            k pcc acc
      | Isa.Csealentry (rd, a, kind) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          let code = Cap.sentry_code kind in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.seal_entry pk ~dst:rd ~src:a code);
            k pcc acc
      | Isa.Auipcc (rd, _) ->
          if not (okr rd) then raise Unsupported;
          let k = build (j + 1) in
          let tgt = slot.d_target in
          fun pcc acc ->
            let acc = retire ctx acc in
            (* [Cap.with_address pcc tgt], packed without boxing. *)
            if Cap.is_sealed pcc then trapfx m acc pc (Cap_fault Cap.Seal_violation);
            Pk.pack_at pk rd pcc tgt;
            k pcc acc
      | Isa.Cspecialrw (rd, sidx, rs) ->
          if not (okr rd && okr rs && sidx >= 0 && sidx < 3) then
            raise Unsupported;
          let k = build (j + 1) in
          let spec = ctx.sspec in
          fun pcc acc ->
            let acc = retire ctx acc in
            if not (Cap.has_perm Perm.System_registers pcc) then
              trapfx m acc pc
                (Cap_fault (Cap.Permit_violation Perm.System_registers));
            let old = Array.unsafe_get spec sidx in
            if rs <> 0 then Array.unsafe_set spec sidx (Pk.unpack pk rs);
            Pk.pack pk rd old;
            k pcc acc
      | Isa.Ccleartag (rd, a) ->
          if not (okr rd && okr a) then raise Unsupported;
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            Pk.clear_tag pk ~dst:rd ~src:a;
            k pcc acc
      (* --- terminators: flush and return the exit --- *)
      | Isa.Beq (a, b, _) ->
          if not (okr a && okr b) then raise Unsupported;
          let tpc = slot.d_target and fpc = pc + 4 in
          if tpc = entry then begin
            self := true;
            fun pcc acc ->
              let acc = retire ctx acc in
              if ucur pk a = ucur pk b then
                if
                  acc >= 0 && ctx.sspins > 0
                  && Machine.defer_window m (acc + mc)
                then begin
                  ctx.sspins <- ctx.sspins - 1;
                  !head pcc acc
                end
                else begin
                  ctx.sret_acc <- acc;
                  tpc
                end
              else begin
                ctx.sret_acc <- acc;
                fpc
              end
          end
          else
            fun _pcc acc ->
              let acc = retire ctx acc in
              ctx.sret_acc <- acc;
              if ucur pk a = ucur pk b then tpc else fpc
      | Isa.Bne (a, b, _) ->
          if not (okr a && okr b) then raise Unsupported;
          let tpc = slot.d_target and fpc = pc + 4 in
          if tpc = entry then begin
            self := true;
            fun pcc acc ->
              let acc = retire ctx acc in
              if ucur pk a <> ucur pk b then
                if
                  acc >= 0 && ctx.sspins > 0
                  && Machine.defer_window m (acc + mc)
                then begin
                  ctx.sspins <- ctx.sspins - 1;
                  !head pcc acc
                end
                else begin
                  ctx.sret_acc <- acc;
                  tpc
                end
              else begin
                ctx.sret_acc <- acc;
                fpc
              end
          end
          else
            fun _pcc acc ->
              let acc = retire ctx acc in
              ctx.sret_acc <- acc;
              if ucur pk a <> ucur pk b then tpc else fpc
      | Isa.Bltu (a, b, _) ->
          if not (okr a && okr b) then raise Unsupported;
          let tpc = slot.d_target and fpc = pc + 4 in
          if tpc = entry then begin
            self := true;
            fun pcc acc ->
              let acc = retire ctx acc in
              if ucur pk a < ucur pk b then
                if
                  acc >= 0 && ctx.sspins > 0
                  && Machine.defer_window m (acc + mc)
                then begin
                  ctx.sspins <- ctx.sspins - 1;
                  !head pcc acc
                end
                else begin
                  ctx.sret_acc <- acc;
                  tpc
                end
              else begin
                ctx.sret_acc <- acc;
                fpc
              end
          end
          else
            fun _pcc acc ->
              let acc = retire ctx acc in
              ctx.sret_acc <- acc;
              if ucur pk a < ucur pk b then tpc else fpc
      | Isa.Bgeu (a, b, _) ->
          if not (okr a && okr b) then raise Unsupported;
          let tpc = slot.d_target and fpc = pc + 4 in
          if tpc = entry then begin
            self := true;
            fun pcc acc ->
              let acc = retire ctx acc in
              if ucur pk a >= ucur pk b then
                if
                  acc >= 0 && ctx.sspins > 0
                  && Machine.defer_window m (acc + mc)
                then begin
                  ctx.sspins <- ctx.sspins - 1;
                  !head pcc acc
                end
                else begin
                  ctx.sret_acc <- acc;
                  tpc
                end
              else begin
                ctx.sret_acc <- acc;
                fpc
              end
          end
          else
            fun _pcc acc ->
              let acc = retire ctx acc in
              ctx.sret_acc <- acc;
              if ucur pk a >= ucur pk b then tpc else fpc
      | Isa.J _ ->
          let tgt = slot.d_target in
          if tgt = entry then begin
            self := true;
            fun pcc acc ->
              let acc = retire ctx acc in
              if
                acc >= 0 && ctx.sspins > 0
                && Machine.defer_window m (acc + mc)
              then begin
                ctx.sspins <- ctx.sspins - 1;
                !head pcc acc
              end
              else begin
                ctx.sret_acc <- acc;
                tgt
              end
          end
          else
            fun _pcc acc ->
              let acc = retire ctx acc in
              ctx.sret_acc <- acc;
              tgt
      | Isa.Cjal (rd, _) ->
          if not (okr rd) then raise Unsupported;
          let tgt = slot.d_target in
          fun pcc acc ->
            let acc = retire ctx acc in
            ctx.sret_acc <- acc;
            if rd <> 0 then begin
              let kind =
                if Machine.irq_enabled m then Cap.Otype.Return_enable
                else Cap.Otype.Return_disable
              in
              Pk.pack pk rd
                (Cap.exn (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) kind))
            end;
            tgt
      | Isa.Cjalr (rd, rs) ->
          if not (okr rd && okr rs) then raise Unsupported;
          fun pcc acc ->
            let acc = retire ctx acc in
            flushx m acc;
            ctx.sret_acc <- -1;
            let back_kind =
              if Machine.irq_enabled m then Cap.Otype.Return_enable
              else Cap.Otype.Return_disable
            in
            let unsealed = jump_target_pk m pk rs pc in
            if rd <> 0 then
              Pk.pack pk rd
                (Cap.exn
                   (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) back_kind));
            ctx.sjump <- unsealed;
            x_jump
      | Isa.Halt ->
          fun _pcc acc ->
            let acc = retire ctx acc in
            flushx m acc;
            ctx.sret_acc <- -1;
            x_halt
      | Isa.Trapif cause ->
          fun _pcc acc ->
            let acc = retire ctx acc in
            flushx m acc;
            trap pc (Software cause)
    end
  in
  try
    let f = build idx in
    head := f;
    { b_len = last - idx + 1; b_maxcost = mc; b_self = !self; b_run = f }
  with Unsupported ->
    { b_len = 0; b_maxcost = 0; b_self = false; b_run = (fun _ _ -> x_halt) }
