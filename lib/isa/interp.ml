module Cap = Capability
module Sb = Superblock
module Pk = Sb.Packed_cap

(* A mapped segment carries its program pre-decoded — each slot the
   instruction plus its resolved absolute branch target — so compilation
   never hashes a label.  Segments never unmap, and [map_segment] rejects
   overlap, so a resolved target can never go stale.  [blk] is the block
   cache, one block per possible entry slot, compiled on first entry;
   [one] holds the one-instruction blocks the dispatcher runs when a
   block's preconditions fail, also compiled on first use.  Both are pure
   caches of the immutable program (block closures read all machine
   state live), so they stay valid across snapshot restore. *)
type dslot = Sb.dslot = { d_ins : Isa.instr; d_target : int }

type segment = {
  seg_base : int;
  seg_top : int;  (* seg_base + code bytes *)
  dec : dslot array;
  blk : Sb.block option array;
  one : Sb.block option array;
}

type t = {
  machine : Machine.t;
  mutable segments : segment list;
  mutable last_seg : segment option;  (* one-entry segment lookup cache *)
  mutable map_lo : int;
  mutable map_hi : int;
      (* [map_lo, map_hi) covers every segment: an address outside it
         (a native entry point) is outside every segment, no scan *)
  sb : Sb.ctx;  (* register file, specials, instret *)
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

let create machine =
  let t =
    { machine; segments = []; last_seg = None; map_lo = max_int; map_hi = min_int;
      sb = Sb.make_ctx machine }
  in
  (* Register file (one flat int array), special registers, retired-
     instruction counter and the segment map are the interpreter's whole
     mutable surface; the per-segment caches hold only compiled code. *)
  Machine.on_snapshot machine (fun () ->
      let sb = t.sb in
      let pk = Pk.save sb.Sb.spk in
      let specials = Pk.save sb.Sb.sspec in
      let instret = sb.Sb.sinstret in
      let segments = t.segments in
      let last_seg = t.last_seg in
      let map_lo = t.map_lo and map_hi = t.map_hi in
      fun () ->
        Pk.restore sb.Sb.spk ~from:pk;
        Pk.restore sb.Sb.sspec ~from:specials;
        sb.Sb.sinstret <- instret;
        t.segments <- segments;
        t.last_seg <- last_seg;
        t.map_lo <- map_lo;
        t.map_hi <- map_hi);
  t

(* One slot per word, label operands resolved to absolute addresses.
   [assemble] already verified that every referenced label exists, so
   resolution is total. *)
let decode ~base prog =
  let resolve l = base + (4 * Isa.label_index prog l) in
  Array.init (Isa.length prog) (fun i ->
      let ins = Isa.instr_at prog i in
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

let map_segment t ~base prog =
  assert (base mod 4 = 0);
  List.iter
    (fun s ->
      if base < s.seg_top && base + Isa.code_bytes prog > s.seg_base then
        invalid_arg "map_segment: overlap")
    t.segments;
  let n = Isa.length prog in
  let seg =
    {
      seg_base = base;
      seg_top = base + Isa.code_bytes prog;
      dec = decode ~base prog;
      blk = Array.make n None;
      one = Array.make n None;
    }
  in
  t.segments <- seg :: t.segments;
  t.last_seg <- None;
  t.map_lo <- Int.min t.map_lo seg.seg_base;
  t.map_hi <- Int.max t.map_hi seg.seg_top

(* Register access: the registers live packed ([Packed_cap]); boxed
   values are materialized only at this boundary. *)
let get_reg t r = Pk.unpack t.sb.Sb.spk r
let set_reg t r v = Pk.pack t.sb.Sb.spk r v
let read_regs t = Array.init 16 (fun r -> Pk.unpack t.sb.Sb.spk r)
let clear_regs t = Pk.clear t.sb.Sb.spk
let load_cap_reg t r ~addr ~perms = Pk.uload_cap t.sb.Sb.spk r t.sb.Sb.smem ~addr ~perms

let set_special t i c = Pk.pack t.sb.Sb.sspec (i + 1) c

let compiled_blocks t =
  let count = Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 in
  List.fold_left (fun n s -> n + count s.blk + count s.one) 0 t.segments

let instret t = t.sb.Sb.sinstret
let int_value v = Cap.with_address_unsealed Cap.null v
let to_int c = Cap.address c

(* Straight-line execution stays within one segment, so a one-entry
   cache turns the per-fetch list scan into two comparisons, and an
   address outside the span of every segment (a native entry point)
   needs no scan at all. *)
let rec scan_segments addr = function
  | [] -> None
  | s :: rest ->
      if addr >= s.seg_base && addr < s.seg_top then Some s else scan_segments addr rest

let find_segment t addr =
  match t.last_seg with
  | Some s when addr >= s.seg_base && addr < s.seg_top -> t.last_seg
  | _ ->
      if addr < t.map_lo || addr >= t.map_hi then None
      else begin
        let r = scan_segments addr t.segments in
        (match r with Some _ -> t.last_seg <- r | None -> ());
        r
      end

let trap pc cause = raise (Trap_exn { tcause = cause; tpc = pc })

(* The dispatcher.  Per block entry it validates the hoisted
   preconditions — pc inside the segment, the pcc bounds over the
   block's slot span, and enough fuel to retire every instruction on its
   longest path — then runs the fused closure, deferring tick batching
   when the block's worst-case cost fits under the event horizon.  All
   are checked for the whole block, so they hold for whichever path an
   execution takes; fuel is then charged from the instructions that
   path reports having retired ([sret_len]).  When a
   precondition fails the engine is its own slow path: it runs the
   one-instruction block at [pc] with every cycle charged as it goes,
   then resumes block dispatch at the next pc.  A pc outside the pcc
   bounds traps with [Cap.check_access]'s exact violation first.

   The dispatcher is a set of top-level functions with every piece of
   per-run state (pcc, segment, pc, fuel, pending batch)
   passed as arguments: block entry allocates no closure, and a
   preempted run keeps its state in its own continuation.  [pend] is the
   deferred-cycle batch carried across block boundaries (-1 = nothing
   pending); it is flushed at every point where the clock becomes
   observable: a slow-path step, a non-deferred block entry, a fuel
   trap, or the end of the run.

   Tracing does not turn deferral off.  Between two slow ticks a sink
   can observe only two things from inside a block: an [Instr_sample]
   at every 1024th retirement, and a [Revoker_quantum] when a slow tick
   settles a sweep.  Settlement never happens inside a deferred batch
   (every tick in it takes the fast path), so the sample is the one
   extra term: with a sink attached a block defers only when every path
   through it retires before the next sample instret ([sample_room]),
   and a self-spin is bounded by that room as it is by fuel. *)
let[@inline] pflush m pend = if pend > 0 then Machine.tick m pend

(* Retirements that cannot reach the next [Instr_sample]: instructions
   [sinstret + 1 .. sinstret + room] all lie before the next multiple
   of 1024.  Unbounded without a sink. *)
let[@inline] sample_room t m =
  if Machine.tracing m then 1023 - (t.sb.Sb.sinstret land 1023) else max_int

(* The block entered at slot [idx] under a pcc of meta word [pmeta] and
   bounds [clo, chi), compiled on first use into [cache], and compiled
   again when a run enters it under another pcc shape. *)
let[@inline] compiled t seg cache ~single idx pcc pmeta clo chi =
  match Array.unsafe_get cache idx with
  | Some b when b.Sb.b_pmeta = pmeta && b.Sb.b_pbase = clo && b.Sb.b_ptop = chi -> b
  | Some _ | None ->
      let b = Sb.compile ~single t.sb seg.dec ~base:seg.seg_base ~idx ~pcc in
      Array.unsafe_set cache idx (Some b);
      b

let rec sb_epoch t pcc seg pc budget pend =
  sb_blocks t pcc (Cap.meta pcc) seg (Cap.base pcc) (Cap.top pcc) pc budget pend

(* [pmeta], [clo] and [chi] are the pcc's meta word and bounds, read once
   per epoch. *)
and sb_blocks t pcc pmeta seg clo chi pc budget pend =
  let m = t.machine in
  if budget <= 0 then begin
    pflush m pend;
    trap pc (Software "out of fuel")
  end
  else if pc < seg.seg_base || pc >= seg.seg_top then
    match find_segment t pc with
    | None ->
        pflush m pend;
        trap pc (Cap_fault Cap.Bounds_violation)
    | Some s' -> sb_epoch t pcc s' pc budget pend
  else begin
    let idx = (pc - seg.seg_base) lsr 2 in
    let b = compiled t seg seg.blk ~single:false idx pcc pmeta clo chi in
    let len = b.Sb.b_len in
    if pc < clo || pc + (4 * b.Sb.b_span) > chi || budget < len then begin
      pflush m pend;
      if pc < clo || pc + 4 > chi then (
        match Cap.check_access ~perm:Perm.Execute ~addr:pc ~size:4 pcc with
        | Ok () -> ()
        | Error v -> trap pc (Cap_fault v));
      let one = compiled t seg seg.one ~single:true idx pcc pmeta clo chi in
      let e = one.Sb.b_run (-1) in
      sb_finish t pcc pmeta seg clo chi e (budget - t.sb.Sb.sret_len) t.sb.Sb.sret_acc
    end
    else begin
      let sb = t.sb in
      let p0 = if pend >= 0 then pend else 0 in
      let room = sample_room t m in
      if len <= room && Machine.defer_window m (p0 + b.Sb.b_maxcost) then
        if b.Sb.b_self then begin
          (* Tight loop: the compiled closure spins on itself while its
             budget (the remaining fuel or sample room, whichever is
             smaller) still covers a longest path, re-checking the
             horizon against the growing batch every trip; it hands back
             the budget its completed trips did not spend. *)
          let budget0 = Int.min budget room in
          sb.Sb.sbudget <- budget0;
          let e = b.Sb.b_run p0 in
          let used = budget0 - sb.Sb.sbudget + sb.Sb.sret_len in
          sb_finish t pcc pmeta seg clo chi e (budget - used) sb.Sb.sret_acc
        end
        else begin
          let e = b.Sb.b_run p0 in
          sb_spin t pcc pmeta seg clo chi b pc e (budget - sb.Sb.sret_len)
        end
      else begin
        pflush m pend;
        let e = b.Sb.b_run (-1) in
        sb_finish t pcc pmeta seg clo chi e (budget - sb.Sb.sret_len) sb.Sb.sret_acc
      end
    end
  end

(* Re-enter a block that branches back to itself without re-deriving
   the preconditions that cannot have changed — the pcc bounds and the
   compiled block itself.  Fuel, the sample room and the event horizon
   (against the carried batch) are re-checked every trip: a full-path
   access inside the block ticks for real and can fire events. *)
and sb_spin t pcc pmeta seg clo chi b pc e budget =
  let m = t.machine in
  let pend = t.sb.Sb.sret_acc in
  let len = b.Sb.b_len in
  if e = pc && budget >= len && len <= sample_room t m then begin
    let p0 = if pend >= 0 then pend else 0 in
    if Machine.defer_window m (p0 + b.Sb.b_maxcost) then begin
      let e = b.Sb.b_run p0 in
      sb_spin t pcc pmeta seg clo chi b pc e (budget - t.sb.Sb.sret_len)
    end
    else sb_finish t pcc pmeta seg clo chi e budget pend
  end
  else sb_finish t pcc pmeta seg clo chi e budget pend

and sb_finish t pcc pmeta seg clo chi e budget pend =
  if e >= 0 then sb_blocks t pcc pmeta seg clo chi e budget pend
  else if e = Sb.x_halt then begin
    pflush t.machine pend;
    Sb.x_halt
  end
  else begin
    (* Cjalr flushed before the posture change, so [pend] is -1.  A
       target outside every segment ends the run with the target still
       packed; one inside a segment is the next pcc. *)
    let pc' = t.sb.Sb.sj_addr in
    match find_segment t pc' with
    | None -> Sb.x_jump
    | Some s' -> sb_epoch t (Sb.jump_cap t.sb) s' pc' budget pend
  end

let default_fuel = 1_000_000

(* The engine from [pcc] at [pc] (in [seg]) to the end of the run:
   [Sb.x_halt], or [Sb.x_jump] with the exit target packed in the
   context.  Every trap surfaces as [Trap_exn], a memory fault's at its
   address. *)
let exec t pcc seg pc fuel =
  try sb_epoch t pcc seg pc fuel (-1) with
  | Memory.Fault f ->
      raise (Trap_exn { tcause = Cap_fault f.Memory.cause; tpc = f.Memory.addr })
  | Cap.Derivation v -> raise (Trap_exn { tcause = Cap_fault v; tpc = -1 })

let run ?(fuel = default_fuel) t target =
  match
    let unsealed = Sb.apply_jump_target t.machine (Cap.address target) target in
    let pc = Cap.address unsealed in
    match find_segment t pc with
    | None -> Exited unsealed
    | Some seg ->
        if exec t unsealed seg pc fuel = Sb.x_halt then Halted
        else Exited (Sb.jump_cap t.sb)
  with
  | o -> o
  | exception Trap_exn tr -> Trapped tr

(* A sentry taken apart once: what [run] derives from it on every
   entry. *)
type entry = { e_pcc : Cap.t; e_pc : int; e_posture : Cap.Otype.sentry }

let entry target =
  match (Cap.otype target, Cap.unseal_sentry target) with
  | Cap.Otype.Sentry k, Ok pcc when Cap.has_perm Perm.Execute pcc ->
      { e_pcc = pcc; e_pc = Cap.address pcc; e_posture = k }
  | _ -> invalid_arg "Interp.entry: not an executable sentry"

let enter t e =
  Sb.set_posture t.machine e.e_posture;
  match find_segment t e.e_pc with
  | None -> e.e_pc
  | Some seg ->
      if exec t e.e_pcc seg e.e_pc default_fuel = Sb.x_halt then
        invalid_arg "Interp.enter: the run halted"
      else t.sb.Sb.sj_addr
