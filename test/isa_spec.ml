(* An executable specification of the Isa subset, the reference the
   interpreter is tested against.  Deliberately slow and independent of
   the interpreter's code: boxed [Capability.t] registers, one
   instruction per step, fetch through [Isa.fetch] with labels resolved
   per step, the pcc checked with [Capability.check_access] on every
   fetch, every cycle charged through [Machine.tick] as it happens and
   every memory access through the checked [Machine] path.  Nothing is
   packed, cached, batched or compiled.  Outcomes and traps use the
   interpreter's types so the two compare directly. *)

module Cap = Capability
module O = Cap.Otype

type segment = { base : int; prog : Isa.program }

type t = {
  machine : Machine.t;
  regs : Cap.t array;  (* the 16 merged registers; register 0 stays NULL *)
  specials : Cap.t array;  (* mtdc, mscratchc, mepcc *)
  mutable segments : segment list;
  mutable instret : int;
}

exception Trap of Interp.trap

let trap pc cause = raise (Trap { Interp.tcause = cause; tpc = pc })
let fault pc v = trap pc (Interp.Cap_fault v)
let ok pc = function Ok c -> c | Error v -> fault pc v

let create machine =
  let t =
    {
      machine;
      regs = Array.make 16 Cap.null;
      specials = Array.make 3 Cap.null;
      segments = [];
      instret = 0;
    }
  in
  Machine.on_snapshot machine (fun () ->
      let regs = Array.copy t.regs and specials = Array.copy t.specials in
      let segments = t.segments and instret = t.instret in
      fun () ->
        Array.blit regs 0 t.regs 0 (Array.length regs);
        Array.blit specials 0 t.specials 0 (Array.length specials);
        t.segments <- segments;
        t.instret <- instret);
  t

let map_segment t ~base prog = t.segments <- { base; prog } :: t.segments
let get_reg t r = if r = 0 then Cap.null else t.regs.(r)
let set_reg t r c = if r <> 0 then t.regs.(r) <- c
let set_special t i c = t.specials.(i) <- c
let read_regs t = Array.init 16 (get_reg t)
let instret t = t.instret
let int_value v = Cap.exn (Cap.with_address Cap.null v)

let segment_of t pc =
  List.find_opt
    (fun s -> pc >= s.base && pc < s.base + (4 * Isa.length s.prog))
    t.segments

(* A jump to [target] from [pc]: untagged and data-sealed targets trap, a
   sentry is unsealed and sets the interrupt posture its kind names, and
   the target must be executable.  Returns the unsealed target and the
   return-sentry kind that restores the posture in force before. *)
let jump t pc target =
  if not (Cap.tag target) then fault pc Cap.Tag_violation;
  let was_enabled = Machine.irq_enabled t.machine in
  let unsealed =
    match Cap.otype target with
    | O.Unsealed -> target
    | O.Data _ -> fault pc Cap.Seal_violation
    | O.Sentry kind ->
        (match kind with
        | O.Call_inherit -> ()
        | O.Call_disable | O.Return_disable -> Machine.set_irq_enabled t.machine false
        | O.Call_enable | O.Return_enable -> Machine.set_irq_enabled t.machine true);
        ok pc (Cap.unseal_sentry target)
  in
  if not (Cap.has_perm Perm.Execute unsealed) then
    fault pc (Cap.Permit_violation Perm.Execute);
  (unsealed, if was_enabled then O.Return_enable else O.Return_disable)

(* CGetType's architectural encoding. *)
let otype_number = function
  | O.Unsealed -> 0
  | O.Sentry O.Call_inherit -> 1
  | O.Sentry O.Call_disable -> 2
  | O.Sentry O.Call_enable -> 3
  | O.Sentry O.Return_disable -> 4
  | O.Sentry O.Return_enable -> 5
  | O.Data d -> d

let step t pcc =
  let m = t.machine in
  let pc = Cap.address pcc in
  let seg =
    match segment_of t pc with Some s -> s | None -> fault pc Cap.Bounds_violation
  in
  (match Cap.check_access ~perm:Perm.Execute ~addr:pc ~size:4 pcc with
  | Ok () -> ()
  | Error v -> fault pc v);
  let ins = Option.get (Isa.fetch seg.prog ((pc - seg.base) / 4)) in
  Machine.tick m Cost.instr;
  t.instret <- t.instret + 1;
  if t.instret mod 1024 = 0 && Machine.tracing m then
    Machine.emit m (Obs.Instr_sample { instret = t.instret });
  let get = get_reg t and set = set_reg t in
  let iv r = Cap.address (get r) in
  let seti rd v = set rd (int_value v) in
  let next = `Next (ok pc (Cap.with_address pcc (pc + 4))) in
  let label l = seg.base + (4 * Isa.label_index seg.prog l) in
  let goto l = `Next (ok pc (Cap.with_address pcc (label l))) in
  let branch taken l = if taken then goto l else next in
  let link kind = Cap.exn (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) kind) in
  let derive rd r = set rd (ok pc r) in
  let addr rs imm = Cap.address (get rs) + imm in
  match ins with
  | Isa.Halt -> `Halt
  | Isa.Trapif cause -> trap pc (Interp.Software cause)
  | Isa.Li (rd, v) -> seti rd v; next
  | Isa.Mv (rd, rs) -> set rd (get rs); next
  | Isa.Addi (rd, rs, v) -> seti rd (iv rs + v); next
  | Isa.Add (rd, a, b) -> seti rd (iv a + iv b); next
  | Isa.Sub (rd, a, b) -> seti rd (iv a - iv b); next
  | Isa.Andi (rd, rs, v) -> seti rd (iv rs land v); next
  | Isa.Beq (a, b, l) -> branch (iv a = iv b) l
  | Isa.Bne (a, b, l) -> branch (iv a <> iv b) l
  | Isa.Bltu (a, b, l) -> branch (iv a < iv b) l
  | Isa.Bgeu (a, b, l) -> branch (iv a >= iv b) l
  | Isa.J l -> goto l
  | Isa.Lw (rd, imm, rs) ->
      seti rd (Machine.load m ~auth:(get rs) ~addr:(addr rs imm) ~size:4);
      next
  | Isa.Sw (rs2, imm, rs1) ->
      Machine.store m ~auth:(get rs1) ~addr:(addr rs1 imm) ~size:4 (iv rs2);
      next
  | Isa.Clc (rd, imm, rs) ->
      set rd (Machine.load_cap m ~auth:(get rs) ~addr:(addr rs imm));
      next
  | Isa.Csc (rs2, imm, rs1) ->
      Machine.store_cap m ~auth:(get rs1) ~addr:(addr rs1 imm) (get rs2);
      next
  | Isa.Cincaddr (rd, a, b) -> derive rd (Cap.incr_address (get a) (iv b)); next
  | Isa.Cincaddrimm (rd, a, v) -> derive rd (Cap.incr_address (get a) v); next
  | Isa.Csetaddr (rd, a, b) -> derive rd (Cap.with_address (get a) (iv b)); next
  | Isa.Csetbounds (rd, a, b) -> derive rd (Cap.set_bounds (get a) ~length:(iv b)); next
  | Isa.Csetboundsimm (rd, a, v) -> derive rd (Cap.set_bounds (get a) ~length:v); next
  | Isa.Candperm (rd, a, mask) ->
      derive rd (Cap.and_perms (get a) (Perm.Set.of_bits mask));
      next
  | Isa.Cgetaddr (rd, a) -> seti rd (Cap.address (get a)); next
  | Isa.Cgetbase (rd, a) -> seti rd (Cap.base (get a)); next
  | Isa.Cgetlen (rd, a) -> seti rd (Cap.length (get a)); next
  | Isa.Cgettag (rd, a) -> seti rd (if Cap.tag (get a) then 1 else 0); next
  | Isa.Cgettype (rd, a) -> seti rd (otype_number (Cap.otype (get a))); next
  | Isa.Cgetperm (rd, a) -> seti rd (Perm.Set.to_bits (Cap.perms (get a))); next
  | Isa.Cseal (rd, a, k) -> derive rd (Cap.seal ~key:(get k) (get a)); next
  | Isa.Cunseal (rd, a, k) -> derive rd (Cap.unseal ~key:(get k) (get a)); next
  | Isa.Csealentry (rd, a, kind) -> derive rd (Cap.seal_entry (get a) kind); next
  | Isa.Ccleartag (rd, a) -> set rd (Cap.clear_tag (get a)); next
  | Isa.Auipcc (rd, l) -> derive rd (Cap.with_address pcc (label l)); next
  | Isa.Cjal (rd, l) ->
      let kind = if Machine.irq_enabled m then O.Return_enable else O.Return_disable in
      if rd <> 0 then set rd (link kind);
      goto l
  | Isa.Cjalr (rd, rs) ->
      let target, back = jump t pc (get rs) in
      if rd <> 0 then set rd (link back);
      `Jump target
  | Isa.Cspecialrw (rd, idx, rs) ->
      if not (Cap.has_perm Perm.System_registers pcc) then
        fault pc (Cap.Permit_violation Perm.System_registers);
      let old = t.specials.(idx) in
      if rs <> 0 then t.specials.(idx) <- get rs;
      set rd old;
      next

let run ?(fuel = 1_000_000) t target =
  let rec go pcc budget =
    if budget <= 0 then
      Interp.Trapped { tcause = Software "out of fuel"; tpc = Cap.address pcc }
    else
      match step t pcc with
      | `Halt -> Interp.Halted
      | `Next pcc -> go pcc (budget - 1)
      | `Jump pcc ->
          if segment_of t (Cap.address pcc) = None then Interp.Exited pcc
          else go pcc (budget - 1)
  in
  try
    let pcc, _ = jump t (Cap.address target) target in
    if segment_of t (Cap.address pcc) = None then Interp.Exited pcc else go pcc fuel
  with
  | Trap tr -> Interp.Trapped tr
  | Memory.Fault f ->
      Interp.Trapped { tcause = Cap_fault f.Memory.cause; tpc = f.Memory.addr }
  | Cap.Derivation v -> Interp.Trapped { tcause = Cap_fault v; tpc = -1 }
