module Cap = Capability
module Sb = Superblock
module Pk = Packed_cap

(* Decode-once front-end: each segment lazily materializes an array of
   pre-decoded slots — the instruction plus its resolved absolute branch
   target — so the hot loop replaces per-step label hashing and the old
   one-entry branch cache with a plain array index.  [dec] is built on
   first execution and belongs to the segment: segments never unmap, and
   [map_segment] rejects overlap, so a slot's resolved target can never
   go stale while the segment is mapped.  [blk] is the superblock cache:
   one compiled block per possible entry slot, also lazy.  Both are pure
   caches of the immutable program (block closures re-validate anything
   mutable through the filter epoch), so they stay valid across snapshot
   restore. *)
type dslot = Sb.dslot = { d_ins : Isa.instr; d_target : int }

type segment = {
  seg_base : int;
  seg_top : int;  (* seg_base + code bytes *)
  prog : Isa.program;
  mutable dec : dslot array option;
  mutable blk : Sb.block option array option;
}

type engine = [ `Legacy | `Predecode | `Superblock ]

type t = {
  machine : Machine.t;
  engine : engine;
  mutable segments : segment list;
  mutable last_seg : segment option;  (* one-entry fetch cache *)
  mutable br_pc : int;  (* legacy one-entry branch-target cache: pc ... *)
  mutable br_target : int;  (* ... -> resolved absolute target *)
  sb : Sb.ctx;  (* register file, specials, instret — shared by all engines *)
}

type trap_cause = Sb.trap_cause =
  | Cap_fault of Cap.violation
  | Software of string

type trap = Sb.trap = { tcause : trap_cause; tpc : int }

let pp_trap ppf t =
  let cause =
    match t.tcause with
    | Cap_fault v -> Cap.violation_to_string v
    | Software s -> s
  in
  Fmt.pf ppf "trap at 0x%x: %s" t.tpc cause

type outcome = Halted | Exited of Cap.t | Trapped of trap

exception Trap_exn = Sb.Trap_exn

let create ?(engine = `Superblock) machine =
  let t =
    {
      machine;
      engine;
      segments = [];
      last_seg = None;
      br_pc = -1;
      br_target = 0;
      sb = Sb.make_ctx machine;
    }
  in
  (* Register file (one flat int array), special registers, retired-
     instruction counter and the segment map are the interpreter's whole
     mutable surface; the per-segment [dec]/[blk] arrays are pure caches
     of immutable programs (all engines restore identically: compiled
     blocks re-validate their memoized filter checks because [Memory]'s
     restore bumps the filter epoch). *)
  Machine.on_snapshot machine (fun () ->
      let sb = t.sb in
      let pk = Array.copy sb.Sb.spk in
      let specials = Array.copy sb.Sb.sspec in
      let instret = sb.Sb.sinstret in
      let segments = t.segments in
      let last_seg = t.last_seg in
      let br_pc = t.br_pc in
      let br_target = t.br_target in
      fun () ->
        Array.blit pk 0 sb.Sb.spk 0 (Array.length pk);
        Array.blit specials 0 sb.Sb.sspec 0 (Array.length specials);
        sb.Sb.sinstret <- instret;
        t.segments <- segments;
        t.last_seg <- last_seg;
        t.br_pc <- br_pc;
        t.br_target <- br_target);
  t

let machine t = t.machine
let engine t = t.engine

let seg_end s = s.seg_top

let map_segment t ~base prog =
  assert (base mod 4 = 0);
  List.iter
    (fun s ->
      if base < seg_end s && base + Isa.code_bytes prog > s.seg_base then
        invalid_arg "map_segment: overlap")
    t.segments;
  t.segments <-
    { seg_base = base; seg_top = base + Isa.code_bytes prog; prog; dec = None; blk = None }
    :: t.segments;
  t.last_seg <- None

let segment_base t name =
  match List.find_opt (fun s -> Isa.name s.prog = name) t.segments with
  | Some s -> s.seg_base
  | None -> invalid_arg ("segment_base: " ^ name)

(* Register access: the registers live packed ([Packed_cap]) in one flat
   int array; boxed values are materialized only at this boundary. *)
let get_reg t r = Pk.unpack t.sb.Sb.spk r
let set_reg t r v = Pk.pack t.sb.Sb.spk r v
let read_regs t = Array.init 16 (fun r -> Pk.unpack t.sb.Sb.spk r)
let clear_regs t = Array.fill t.sb.Sb.spk 0 (Array.length t.sb.Sb.spk) 0

let get_special t i = t.sb.Sb.sspec.(i)
let set_special t i c = t.sb.Sb.sspec.(i) <- c
let instret t = t.sb.Sb.sinstret
let int_value v = Cap.with_address_unsealed Cap.null v
let to_int c = Cap.address c

(* Straight-line execution stays within one segment, so a one-entry
   cache turns the per-fetch list scan into two comparisons. *)
let find_segment t addr =
  match t.last_seg with
  | Some s when addr >= s.seg_base && addr < seg_end s -> t.last_seg
  | _ ->
      let r =
        List.find_opt (fun s -> addr >= s.seg_base && addr < seg_end s) t.segments
      in
      (match r with Some _ -> t.last_seg <- r | None -> ());
      r

let get t r = Pk.unpack t.sb.Sb.spk r
let set t r v = Pk.pack t.sb.Sb.spk r v

let trap pc cause = raise (Trap_exn { tcause = cause; tpc = pc })
let cap_result pc = function Ok c -> c | Error v -> trap pc (Cap_fault v)

(* Packed-derivation result check: a non-zero code decodes to the exact
   boxed violation (allocating only on this trap path). *)
let[@inline] pkres pc code =
  if code <> 0 then trap pc (Cap_fault (Pk.violation code))

let apply_jump_target = Sb.apply_jump_target

(* Resolve a branch label to an absolute target.  A given pc always
   resolves the same label to the same address (segments never unmap and
   cannot overlap), so a one-entry cache keyed on pc removes the string
   hash from hot loop back-edges.  Only the legacy path uses this; the
   pre-decoded path carries the resolved target in its slot. *)
let resolve_label t seg pc label =
  if t.br_pc = pc then t.br_target
  else begin
    let addr = seg.seg_base + (4 * Isa.label_index seg.prog label) in
    t.br_pc <- pc;
    t.br_target <- addr;
    addr
  end

(* Materialize the decoded array for a segment: one slot per word, label
   operands resolved to absolute addresses.  [assemble] already verified
   that every referenced label exists, so resolution is total. *)
let materialize seg =
  match seg.dec with
  | Some d -> d
  | None ->
      let resolve l = seg.seg_base + (4 * Isa.label_index seg.prog l) in
      let d =
        Array.init (Isa.length seg.prog) (fun i ->
            let ins = Isa.instr_at seg.prog i in
            let tgt =
              match ins with
              | Isa.Beq (_, _, l)
              | Isa.Bne (_, _, l)
              | Isa.Bltu (_, _, l)
              | Isa.Bgeu (_, _, l)
              | Isa.J l
              | Isa.Cjal (_, l)
              | Isa.Auipcc (_, l) ->
                  resolve l
              | _ -> -1
            in
            { d_ins = ins; d_target = tgt })
      in
      seg.dec <- Some d;
      d

let step t pcc =
  let pc = Cap.address pcc in
  let seg =
    match find_segment t pc with
    | Some s -> s
    | None -> trap pc (Cap_fault Cap.Bounds_violation)
  in
  (match Cap.check_access ~perm:Perm.Execute ~addr:pc ~size:4 pcc with
  | Ok () -> ()
  | Error v -> trap pc (Cap_fault v));
  (* find_segment guarantees seg_base <= pc < seg_base + 4*length, so the
     word index needs no further bounds check. *)
  let ins = Isa.instr_at seg.prog ((pc - seg.seg_base) / 4) in
  Machine.tick t.machine Cost.instr;
  let sb = t.sb in
  sb.Sb.sinstret <- sb.Sb.sinstret + 1;
  if sb.Sb.sinstret land 1023 = 0 && Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Instr_sample { instret = sb.Sb.sinstret });
  let m = t.machine in
  let pk = sb.Sb.spk in
  (* check_access above rejects sealed pcc, so cursor moves are safe. *)
  let next = Cap.with_address_unsealed pcc (pc + 4) in
  let goto label = Cap.with_address_unsealed pcc (resolve_label t seg pc label) in
  let iv r = Pk.cursor pk r in
  match ins with
  | Isa.Halt -> `Halt
  | Isa.Li (rd, v) ->
      Pk.set_int pk rd v;
      `Next next
  | Isa.Mv (rd, rs) ->
      Pk.copy pk ~dst:rd ~src:rs;
      `Next next
  | Isa.Addi (rd, rs, v) ->
      Pk.set_int pk rd (iv rs + v);
      `Next next
  | Isa.Add (rd, a, b) ->
      Pk.set_int pk rd (iv a + iv b);
      `Next next
  | Isa.Sub (rd, a, b) ->
      Pk.set_int pk rd (iv a - iv b);
      `Next next
  | Isa.Andi (rd, rs, v) ->
      Pk.set_int pk rd (iv rs land v);
      `Next next
  | Isa.Beq (a, b, l) -> `Next (if iv a = iv b then goto l else next)
  | Isa.Bne (a, b, l) -> `Next (if iv a <> iv b then goto l else next)
  | Isa.Bltu (a, b, l) -> `Next (if iv a < iv b then goto l else next)
  | Isa.Bgeu (a, b, l) -> `Next (if iv a >= iv b then goto l else next)
  | Isa.J l -> `Next (goto l)
  | Isa.Lw (rd, imm, rs) ->
      let auth = get t rs in
      let v = Machine.load m ~auth ~addr:(Cap.address auth + imm) ~size:4 in
      Pk.set_int pk rd v;
      `Next next
  | Isa.Sw (rs2, imm, rs1) ->
      let auth = get t rs1 in
      Machine.store m ~auth ~addr:(Cap.address auth + imm) ~size:4 (iv rs2);
      `Next next
  | Isa.Clc (rd, imm, rs) ->
      let auth = get t rs in
      set t rd (Machine.load_cap m ~auth ~addr:(Cap.address auth + imm));
      `Next next
  | Isa.Csc (rs2, imm, rs1) ->
      let auth = get t rs1 in
      Machine.store_cap m ~auth ~addr:(Cap.address auth + imm) (get t rs2);
      `Next next
  | Isa.Cincaddr (rd, a, b) ->
      pkres pc (Pk.incr_addr pk ~dst:rd ~src:a (iv b));
      `Next next
  | Isa.Cincaddrimm (rd, a, v) ->
      pkres pc (Pk.incr_addr pk ~dst:rd ~src:a v);
      `Next next
  | Isa.Csetaddr (rd, a, b) ->
      pkres pc (Pk.set_addr pk ~dst:rd ~src:a (iv b));
      `Next next
  | Isa.Csetbounds (rd, a, b) ->
      pkres pc (Pk.set_bounds pk ~dst:rd ~src:a (iv b));
      `Next next
  | Isa.Csetboundsimm (rd, a, v) ->
      pkres pc (Pk.set_bounds pk ~dst:rd ~src:a v);
      `Next next
  | Isa.Candperm (rd, a, mask) ->
      pkres pc (Pk.and_perms pk ~dst:rd ~src:a (Perm.Set.of_bits mask));
      `Next next
  | Isa.Cgetaddr (rd, a) ->
      Pk.set_int pk rd (Pk.cursor pk a);
      `Next next
  | Isa.Cgetbase (rd, a) ->
      Pk.set_int pk rd (Pk.base pk a);
      `Next next
  | Isa.Cgetlen (rd, a) ->
      Pk.set_int pk rd (Pk.length pk a);
      `Next next
  | Isa.Cgettag (rd, a) ->
      Pk.set_int pk rd (Pk.tag_bit pk a);
      `Next next
  | Isa.Cgettype (rd, a) ->
      (* The packed otype code IS the architectural CGetType encoding. *)
      Pk.set_int pk rd (Pk.otype_code pk a);
      `Next next
  | Isa.Cgetperm (rd, a) ->
      Pk.set_int pk rd (Pk.perm_bits pk a);
      `Next next
  | Isa.Cseal (rd, a, k) ->
      pkres pc (Pk.seal pk ~dst:rd ~src:a ~key:k);
      `Next next
  | Isa.Cunseal (rd, a, k) ->
      pkres pc (Pk.unseal pk ~dst:rd ~src:a ~key:k);
      `Next next
  | Isa.Csealentry (rd, a, kind) ->
      pkres pc (Pk.seal_entry pk ~dst:rd ~src:a (Cap.sentry_code kind));
      `Next next
  | Isa.Auipcc (rd, l) ->
      let addr = seg.seg_base + (4 * Isa.label_index seg.prog l) in
      set t rd (cap_result pc (Cap.with_address pcc addr));
      `Next next
  | Isa.Cjalr (rd, rs) ->
      let target = get t rs in
      let unsealed, back_kind = apply_jump_target m pc target in
      if rd <> 0 then begin
        let link = Cap.exn (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) back_kind) in
        set t rd link
      end;
      `Jump unsealed
  | Isa.Cjal (rd, l) ->
      if rd <> 0 then begin
        let kind =
          if Machine.irq_enabled m then Cap.Otype.Return_enable
          else Cap.Otype.Return_disable
        in
        set t rd (Cap.exn (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) kind))
      end;
      `Next (goto l)
  | Isa.Cspecialrw (rd, idx, rs) ->
      if not (Cap.has_perm Perm.System_registers pcc) then
        trap pc (Cap_fault (Cap.Permit_violation Perm.System_registers));
      let old = t.sb.Sb.sspec.(idx) in
      if rs <> 0 then t.sb.Sb.sspec.(idx) <- get t rs;
      set t rd old;
      `Next next
  | Isa.Ccleartag (rd, a) ->
      Pk.clear_tag pk ~dst:rd ~src:a;
      `Next next
  | Isa.Trapif cause -> trap pc (Software cause)

(* The pre-decoded execution engine.  Within one "epoch" — the stretch
   between control transfers that change pcc — the tag, seal and Execute
   checks of the per-step [check_access] cannot change (the pcc only
   moves its cursor), so the per-instruction guard reduces to two range
   compares: is the pc still inside the current segment, and inside the
   pcc's bounds?  On either miss the engine falls back to the exact
   legacy checks so fault causes, ordering and PCs stay bit-identical.
   The pc is threaded as a plain int; arm bodies read and write the
   packed register file directly (zero allocation on the ALU, branch,
   getter and derivation arms); a boxed capability is only materialized
   where the legacy path observed one at a boundary (memory authority,
   links, Auipcc, jumps, specials).

   [run_epoch] executes exactly one epoch and reports how it ended: an
   [outcome], or a control transfer to a new pcc ([`Epoch]) which the
   caller continues — either [run_fast]'s trampoline (the complete PR 5
   engine) or the superblock dispatcher's side-exit path, which borrows
   this engine verbatim whenever a block's preconditions fail. *)
let run_epoch t pcc0 seg0 pc00 budget0 =
  let m = t.machine in
  let sb = t.sb in
  let pk = sb.Sb.spk in
  let rec epoch pcc seg pc budget =
    let dec = materialize seg in
    let sbase = seg.seg_base and send = seg_end seg in
    let clo = Cap.base pcc and chi = Cap.top pcc in
    let rec go pc budget =
      if budget <= 0 then
        `Out (Trapped { tcause = Software "out of fuel"; tpc = pc })
      else if pc < sbase || pc >= send then
        (* Fell off the segment (or branched out of it): mirror the
           legacy per-step order — segment lookup first, pcc bounds
           second (both checked again on epoch re-entry). *)
        match find_segment t pc with
        | None -> trap pc (Cap_fault Cap.Bounds_violation)
        | Some s' -> epoch pcc s' pc budget
      else if pc < clo || pc + 4 > chi then begin
        (match Cap.check_access ~perm:Perm.Execute ~addr:pc ~size:4 pcc with
        | Ok () -> ()
        | Error v -> trap pc (Cap_fault v));
        exec pc budget
      end
      else exec pc budget
    and exec pc budget =
      let slot = Array.unsafe_get dec ((pc - sbase) lsr 2) in
      Machine.tick m Cost.instr;
      sb.Sb.sinstret <- sb.Sb.sinstret + 1;
      if sb.Sb.sinstret land 1023 = 0 && Machine.tracing m then
        Machine.emit m (Obs.Instr_sample { instret = sb.Sb.sinstret });
      match slot.d_ins with
      | Isa.Halt -> `Out Halted
      | Isa.Li (rd, v) ->
          Pk.set_int pk rd v;
          go (pc + 4) (budget - 1)
      | Isa.Mv (rd, rs) ->
          Pk.copy pk ~dst:rd ~src:rs;
          go (pc + 4) (budget - 1)
      | Isa.Addi (rd, rs, v) ->
          Pk.set_int pk rd (Pk.cursor pk rs + v);
          go (pc + 4) (budget - 1)
      | Isa.Add (rd, a, b) ->
          Pk.set_int pk rd (Pk.cursor pk a + Pk.cursor pk b);
          go (pc + 4) (budget - 1)
      | Isa.Sub (rd, a, b) ->
          Pk.set_int pk rd (Pk.cursor pk a - Pk.cursor pk b);
          go (pc + 4) (budget - 1)
      | Isa.Andi (rd, rs, v) ->
          Pk.set_int pk rd (Pk.cursor pk rs land v);
          go (pc + 4) (budget - 1)
      | Isa.Beq (a, b, _) ->
          go
            (if Pk.cursor pk a = Pk.cursor pk b then slot.d_target else pc + 4)
            (budget - 1)
      | Isa.Bne (a, b, _) ->
          go
            (if Pk.cursor pk a <> Pk.cursor pk b then slot.d_target else pc + 4)
            (budget - 1)
      | Isa.Bltu (a, b, _) ->
          go
            (if Pk.cursor pk a < Pk.cursor pk b then slot.d_target else pc + 4)
            (budget - 1)
      | Isa.Bgeu (a, b, _) ->
          go
            (if Pk.cursor pk a >= Pk.cursor pk b then slot.d_target else pc + 4)
            (budget - 1)
      | Isa.J _ -> go slot.d_target (budget - 1)
      | Isa.Lw (rd, imm, rs) ->
          let auth = get t rs in
          let v = Machine.load m ~auth ~addr:(Cap.address auth + imm) ~size:4 in
          Pk.set_int pk rd v;
          go (pc + 4) (budget - 1)
      | Isa.Sw (rs2, imm, rs1) ->
          let auth = get t rs1 in
          Machine.store m ~auth ~addr:(Cap.address auth + imm) ~size:4
            (Pk.cursor pk rs2);
          go (pc + 4) (budget - 1)
      | Isa.Clc (rd, imm, rs) ->
          let auth = get t rs in
          set t rd (Machine.load_cap m ~auth ~addr:(Cap.address auth + imm));
          go (pc + 4) (budget - 1)
      | Isa.Csc (rs2, imm, rs1) ->
          let auth = get t rs1 in
          Machine.store_cap m ~auth ~addr:(Cap.address auth + imm) (get t rs2);
          go (pc + 4) (budget - 1)
      | Isa.Cincaddr (rd, a, b) ->
          pkres pc (Pk.incr_addr pk ~dst:rd ~src:a (Pk.cursor pk b));
          go (pc + 4) (budget - 1)
      | Isa.Cincaddrimm (rd, a, v) ->
          pkres pc (Pk.incr_addr pk ~dst:rd ~src:a v);
          go (pc + 4) (budget - 1)
      | Isa.Csetaddr (rd, a, b) ->
          pkres pc (Pk.set_addr pk ~dst:rd ~src:a (Pk.cursor pk b));
          go (pc + 4) (budget - 1)
      | Isa.Csetbounds (rd, a, b) ->
          pkres pc (Pk.set_bounds pk ~dst:rd ~src:a (Pk.cursor pk b));
          go (pc + 4) (budget - 1)
      | Isa.Csetboundsimm (rd, a, v) ->
          pkres pc (Pk.set_bounds pk ~dst:rd ~src:a v);
          go (pc + 4) (budget - 1)
      | Isa.Candperm (rd, a, mask) ->
          pkres pc (Pk.and_perms pk ~dst:rd ~src:a (Perm.Set.of_bits mask));
          go (pc + 4) (budget - 1)
      | Isa.Cgetaddr (rd, a) ->
          Pk.set_int pk rd (Pk.cursor pk a);
          go (pc + 4) (budget - 1)
      | Isa.Cgetbase (rd, a) ->
          Pk.set_int pk rd (Pk.base pk a);
          go (pc + 4) (budget - 1)
      | Isa.Cgetlen (rd, a) ->
          Pk.set_int pk rd (Pk.length pk a);
          go (pc + 4) (budget - 1)
      | Isa.Cgettag (rd, a) ->
          Pk.set_int pk rd (Pk.tag_bit pk a);
          go (pc + 4) (budget - 1)
      | Isa.Cgettype (rd, a) ->
          Pk.set_int pk rd (Pk.otype_code pk a);
          go (pc + 4) (budget - 1)
      | Isa.Cgetperm (rd, a) ->
          Pk.set_int pk rd (Pk.perm_bits pk a);
          go (pc + 4) (budget - 1)
      | Isa.Cseal (rd, a, k) ->
          pkres pc (Pk.seal pk ~dst:rd ~src:a ~key:k);
          go (pc + 4) (budget - 1)
      | Isa.Cunseal (rd, a, k) ->
          pkres pc (Pk.unseal pk ~dst:rd ~src:a ~key:k);
          go (pc + 4) (budget - 1)
      | Isa.Csealentry (rd, a, kind) ->
          pkres pc (Pk.seal_entry pk ~dst:rd ~src:a (Cap.sentry_code kind));
          go (pc + 4) (budget - 1)
      | Isa.Auipcc (rd, _) ->
          set t rd (cap_result pc (Cap.with_address pcc slot.d_target));
          go (pc + 4) (budget - 1)
      | Isa.Cjalr (rd, rs) ->
          let target = get t rs in
          let unsealed, back_kind = apply_jump_target m pc target in
          if rd <> 0 then begin
            let link =
              Cap.exn
                (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) back_kind)
            in
            set t rd link
          end;
          let pc' = Cap.address unsealed in
          (match find_segment t pc' with
          | None -> `Out (Exited unsealed)
          | Some s' -> `Epoch (unsealed, s', pc', budget - 1))
      | Isa.Cjal (rd, _) ->
          if rd <> 0 then begin
            let kind =
              if Machine.irq_enabled m then Cap.Otype.Return_enable
              else Cap.Otype.Return_disable
            in
            set t rd
              (Cap.exn (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) kind))
          end;
          go slot.d_target (budget - 1)
      | Isa.Cspecialrw (rd, idx, rs) ->
          if not (Cap.has_perm Perm.System_registers pcc) then
            trap pc (Cap_fault (Cap.Permit_violation Perm.System_registers));
          let old = sb.Sb.sspec.(idx) in
          if rs <> 0 then sb.Sb.sspec.(idx) <- get t rs;
          set t rd old;
          go (pc + 4) (budget - 1)
      | Isa.Ccleartag (rd, a) ->
          Pk.clear_tag pk ~dst:rd ~src:a;
          go (pc + 4) (budget - 1)
      | Isa.Trapif cause -> trap pc (Software cause)
    in
    go pc budget
  in
  epoch pcc0 seg0 pc00 budget0

let run_fast t fuel pcc0 seg0 =
  let rec drive pcc seg pc budget =
    match run_epoch t pcc seg pc budget with
    | `Out o -> o
    | `Epoch (pcc', seg', pc', budget') -> drive pcc' seg' pc' budget'
  in
  drive pcc0 seg0 (Cap.address pcc0) fuel

(* The superblock dispatcher.  Per block entry it validates the hoisted
   preconditions — pc inside the segment and the pcc bounds for the
   whole block, enough fuel to retire every instruction, and a
   compilable block — then runs the fused closure, deferring tick
   batching when the block's worst-case cost fits under the event
   horizon.  Any precondition failure side-exits into [run_epoch], the
   exact per-instruction engine, for the remainder of the epoch, so fuel
   traps, mid-block faults and pathological register indices behave
   bit-identically to PR 5.

   The dispatcher is a set of top-level functions with every piece of
   per-run state (pcc, segment, block cache, pc, fuel, pending batch)
   passed as arguments: block entry allocates no closure, and a
   preempted run keeps its state in its own continuation.  [pend] is the
   deferred-cycle batch carried across block boundaries (-1 = nothing
   pending); it is flushed at every point where the clock becomes
   observable: a side-exit, a non-deferred block entry, a fuel trap, or
   the end of the run. *)
let[@inline] pflush m pend = if pend > 0 then Machine.tick m pend

let block_cache seg dec =
  match seg.blk with
  | Some b -> b
  | None ->
      let b = Array.make (Array.length dec) None in
      seg.blk <- Some b;
      b

let rec sb_epoch t pcc seg pc budget pend =
  let blk = block_cache seg (materialize seg) in
  sb_blocks t pcc seg blk (Cap.base pcc) (Cap.top pcc) pc budget pend

(* [clo]/[chi] are the pcc's bounds, read once per epoch. *)
and sb_blocks t pcc seg blk clo chi pc budget pend =
  let m = t.machine in
  if budget <= 0 then begin
    pflush m pend;
    Trapped { tcause = Software "out of fuel"; tpc = pc }
  end
  else if pc < seg.seg_base || pc >= seg.seg_top then
    match find_segment t pc with
    | None ->
        pflush m pend;
        trap pc (Cap_fault Cap.Bounds_violation)
    | Some s' -> sb_epoch t pcc s' pc budget pend
  else begin
    let sbase = seg.seg_base in
    let idx = (pc - sbase) lsr 2 in
    let b =
      match Array.unsafe_get blk idx with
      | Some b -> b
      | None ->
          let b = Sb.compile t.sb (materialize seg) ~base:sbase ~idx in
          Array.unsafe_set blk idx (Some b);
          b
    in
    let len = b.Sb.b_len in
    if len = 0 || pc < clo || pc + (4 * len) > chi || budget < len then begin
      (* Side-exit: finish the epoch on the exact per-instruction
         engine, then resume block dispatch at the next epoch. *)
      pflush m pend;
      match run_epoch t pcc seg pc budget with
      | `Out o -> o
      | `Epoch (pcc', seg', pc', budget') -> sb_epoch t pcc' seg' pc' budget' (-1)
    end
    else begin
      let sb = t.sb in
      let p0 = if pend >= 0 then pend else 0 in
      if (not (Machine.tracing m)) && Machine.defer_window m (p0 + b.Sb.b_maxcost)
      then
        if b.Sb.b_self then begin
          (* Tight loop: the compiled closure spins on itself for up to
             [sspins] extra trips (bounded by the remaining fuel),
             re-checking the horizon against the growing batch every
             trip; it hands back how many trips it did not use. *)
          let spins0 = (budget / len) - 1 in
          sb.Sb.sspins <- spins0;
          let e = b.Sb.b_run pcc p0 in
          let used = (spins0 - sb.Sb.sspins + 1) * len in
          sb_finish t pcc seg blk clo chi e (budget - used) sb.Sb.sret_acc
        end
        else sb_spin t pcc seg blk clo chi b pc (b.Sb.b_run pcc p0) (budget - len)
      else begin
        pflush m pend;
        let e = b.Sb.b_run pcc (-1) in
        sb_finish t pcc seg blk clo chi e (budget - len) sb.Sb.sret_acc
      end
    end
  end

(* Re-enter a block that branches back to itself without re-deriving
   the preconditions that cannot have changed — the pcc bounds and the
   compiled block itself.  Fuel, tracing and the event horizon (against
   the carried batch) are re-checked every trip: a cache-miss path
   inside the block ticks for real and can fire events. *)
and sb_spin t pcc seg blk clo chi b pc e budget =
  let m = t.machine in
  let pend = t.sb.Sb.sret_acc in
  let len = b.Sb.b_len in
  if e = pc && budget >= len && not (Machine.tracing m) then begin
    let p0 = if pend >= 0 then pend else 0 in
    if Machine.defer_window m (p0 + b.Sb.b_maxcost) then
      sb_spin t pcc seg blk clo chi b pc (b.Sb.b_run pcc p0) (budget - len)
    else sb_finish t pcc seg blk clo chi e budget pend
  end
  else sb_finish t pcc seg blk clo chi e budget pend

and sb_finish t pcc seg blk clo chi e budget pend =
  if e >= 0 then sb_blocks t pcc seg blk clo chi e budget pend
  else if e = Sb.x_halt then begin
    pflush t.machine pend;
    Halted
  end
  else begin
    (* Cjalr flushed before the posture change, so [pend] is -1. *)
    let target = t.sb.Sb.sjump in
    let pc' = Cap.address target in
    match find_segment t pc' with
    | None -> Exited target
    | Some s' -> sb_epoch t target s' pc' budget pend
  end

let run_super t fuel pcc0 seg0 = sb_epoch t pcc0 seg0 (Cap.address pcc0) fuel (-1)

(* The legacy per-step loop. *)
let rec run_legacy t pcc budget =
  if budget <= 0 then
    Trapped { tcause = Software "out of fuel"; tpc = Cap.address pcc }
  else
    match step t pcc with
    | `Halt -> Halted
    | `Next pcc' -> run_legacy t pcc' (budget - 1)
    | `Jump target -> (
        match find_segment t (Cap.address target) with
        | Some _ -> run_legacy t target (budget - 1)
        | None -> Exited target)

let run ?(fuel = 1_000_000) t target =
  try
    let unsealed, _ = apply_jump_target t.machine (Cap.address target) target in
    match find_segment t (Cap.address unsealed) with
    | None -> Exited unsealed
    | Some seg -> (
        match t.engine with
        | `Superblock -> run_super t fuel unsealed seg
        | `Predecode -> run_fast t fuel unsealed seg
        | `Legacy -> run_legacy t unsealed fuel)
  with
  | Trap_exn tr -> Trapped tr
  | Memory.Fault f ->
      Trapped { tcause = Cap_fault f.Memory.cause; tpc = f.Memory.addr }
  | Cap.Derivation v -> Trapped { tcause = Cap_fault v; tpc = -1 }
