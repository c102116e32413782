module Cap = Capability

(* Flat, allocation-free capability register file for the interpreter
   hot path.  Each register is [slots] consecutive ints in one flat
   [int array]: the packed meta word (tag | perms | otype, see
   [Capability.meta]), then base, top and cursor.  Storing or deriving
   a capability in place touches only untagged ints — no minor-heap
   allocation, no GC write barrier — which is what takes the steady-
   state interpreter loop to zero allocations per instruction.

   The packed form never escapes the interpreter: every boundary
   (switcher legs, kernel entry, traps, Obs/Forensics rendering,
   snapshot capture) converts through [pack]/[unpack], whose exactness
   reduces to the [Capability.meta]/[of_meta] bijection (QCheck-pinned
   in test_cap_props, together with per-helper packed-vs-boxed
   derivation equivalence).

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
   checked: an out-of-range register raises [Invalid_argument]
   ([Isa.assemble] keeps such operands out of interpreted code). *)

let slots = 4

let make n = Array.make (n * slots) 0

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
   superblock closures on unsafely-indexed meta words). *)

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

let[@inline] meta pk r = pk.(r * 4)
let[@inline] base pk r = pk.((r * 4) + 1)
let[@inline] top pk r = pk.((r * 4) + 2)
let[@inline] cursor pk r = pk.((r * 4) + 3)
let[@inline] tag_bit pk r = meta pk r land 1
let[@inline] otype_code pk r = m_otype (meta pk r)
let[@inline] perm_bits pk r = m_perm_bits (meta pk r)
let[@inline] length pk r = top pk r - base pk r

(* The single write point: register 0 discards writes (after any reads
   of the sources, so out-of-range sources still raise first). *)
let[@inline] set_slots pk r m b t c =
  if r <> 0 then begin
    let o = r * 4 in
    pk.(o) <- m;
    pk.(o + 1) <- b;
    pk.(o + 2) <- t;
    pk.(o + 3) <- c
  end

(* Boundary conversion. *)

let pack pk r c =
  set_slots pk r (Cap.meta c) (Cap.base c) (Cap.top c) (Cap.address c)

let pack_at pk r c addr = set_slots pk r (Cap.meta c) (Cap.base c) (Cap.top c) addr

let unpack pk r =
  if r = 0 then Cap.null
  else
    let o = r * 4 in
    Cap.of_meta ~meta:pk.(o) ~base:pk.(o + 1) ~top:pk.(o + 2)
      ~cursor:pk.(o + 3)

(* In-place writes and derivations.  Each mirrors the corresponding
   [Capability] operation exactly — same checks, same order, same
   violation — per the QCheck equivalence suite. *)

let[@inline] set_int pk rd v = set_slots pk rd 0 0 0 v

let copy pk ~dst ~src =
  let o = src * 4 in
  let m = pk.(o) and b = pk.(o + 1) and t = pk.(o + 2) and c = pk.(o + 3) in
  set_slots pk dst m b t c

(* [Capability.incr_address] / [with_address]: only sealedness blocks a
   cursor move. *)
let incr_addr pk ~dst ~src delta =
  let o = src * 4 in
  let m = pk.(o) in
  if m_sealed m then v_seal
  else begin
    set_slots pk dst m pk.(o + 1) pk.(o + 2) (pk.(o + 3) + delta);
    ok
  end

let set_addr pk ~dst ~src addr =
  let o = src * 4 in
  let m = pk.(o) in
  if m_sealed m then v_seal
  else begin
    set_slots pk dst m pk.(o + 1) pk.(o + 2) addr;
    ok
  end

(* [Capability.set_bounds]: guard_exact, then the requested window must
   sit inside the old bounds with the cursor at its base. *)
let set_bounds pk ~dst ~src len =
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
let and_perms pk ~dst ~src mask =
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

let clear_tag pk ~dst ~src =
  let o = src * 4 in
  let m = pk.(o) and b = pk.(o + 1) and t = pk.(o + 2) and c = pk.(o + 3) in
  set_slots pk dst (m land lnot 1) b t c

(* [Capability.seal]: Seal permission on the key first, then the key's
   own validity (tag, unsealed, cursor in bounds, cursor a data otype),
   then guard_exact on the sealee. *)
let seal pk ~dst ~src ~key =
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
let unseal pk ~dst ~src ~key =
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
let seal_entry pk ~dst ~src code =
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
