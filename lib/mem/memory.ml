module Cap = Capability

type access = Read | Write | Exec

let pp_access ppf a =
  Fmt.string ppf (match a with Read -> "read" | Write -> "write" | Exec -> "exec")

type fault = { cause : Cap.violation; addr : int; access : access }

exception Fault of fault

let fault_to_string f =
  Fmt.str "%a fault at 0x%x: %a" pp_access f.access f.addr Cap.pp_violation
    f.cause

let granule_size = 8

type t = {
  base : int;
  size : int;
  data : Bytes.t;
  caps : Cap.t option array;
  tagged : Bytes.t;  (** bitmap mirror of [caps]: bit g set iff caps.(g) <> None *)
  mutable tagged_count : int;
  revoked : Bytes.t;
  mutable revoked_count : int;
  mutable load_filter : bool;
  mutable filter_epoch : int;
      (** bumped whenever the outcome of a load-filter check may change:
          revocation-bit edits, [set_load_filter], snapshot restore.
          Monotone — never restored — so caches keyed on it cannot be
          fooled by a rewind. *)
  mutable tag_set_hook : unit -> unit;
}

let create ~base ~size =
  assert (base mod granule_size = 0 && size mod granule_size = 0 && size > 0);
  let granules = size / granule_size in
  {
    base;
    size;
    data = Bytes.make size '\000';
    caps = Array.make granules None;
    tagged = Bytes.make ((granules + 7) / 8) '\000';
    tagged_count = 0;
    revoked = Bytes.make ((granules + 7) / 8) '\000';
    revoked_count = 0;
    load_filter = true;
    filter_epoch = 0;
    tag_set_hook = ignore;
  }

let base m = m.base
let size m = m.size
let contains m addr = addr >= m.base && addr < m.base + m.size
let set_load_filter m b =
  m.load_filter <- b;
  m.filter_epoch <- m.filter_epoch + 1

let filter_epoch m = m.filter_epoch
let load_filter_enabled m = m.load_filter
let granule_count m = m.size / granule_size
let set_tag_set_hook m f = m.tag_set_hook <- f

let fault cause addr access = raise (Fault { cause; addr; access })

let granule_of m addr = (addr - m.base) / granule_size

let check_range m ~addr ~size:sz access =
  if addr < m.base || addr + sz > m.base + m.size then
    fault Cap.Bounds_violation addr access

(* Tag bitmap maintenance.  Every write to [caps] goes through these two
   so the bitmap and the count never drift from the array — including
   under injected tag-clears and bit-flips. *)

let cap_clear m g =
  match Array.unsafe_get m.caps g with
  | None -> ()
  | Some _ ->
      m.caps.(g) <- None;
      let i = g lsr 3 in
      Bytes.unsafe_set m.tagged i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get m.tagged i) land lnot (1 lsl (g land 7)) land 0xff));
      m.tagged_count <- m.tagged_count - 1

let cap_put m g c =
  (* The hook (the machine's revoker) must observe memory *before* the
     new tag appears: an in-flight sweep settles up to the present cycle
     first, so the new capability cannot be credited to sweep steps that
     already elapsed. *)
  m.tag_set_hook ();
  (match Array.unsafe_get m.caps g with
  | Some _ -> ()
  | None ->
      let i = g lsr 3 in
      Bytes.unsafe_set m.tagged i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get m.tagged i) lor (1 lsl (g land 7))));
      m.tagged_count <- m.tagged_count + 1);
  m.caps.(g) <- Some c

(* Clear all tags in granules [g0..g1], skipping over untagged runs a
   bitmap byte at a time. *)
let cap_clear_range m g0 g1 =
  let g = ref g0 in
  while !g <= g1 do
    let i = !g lsr 3 in
    if Char.code (Bytes.unsafe_get m.tagged i) = 0 then
      (* whole bitmap byte clear: skip to the next byte boundary *)
      g := (i + 1) lsl 3
    else begin
      cap_clear m !g;
      incr g
    end
  done

let next_tagged m ~from =
  let total = granule_count m in
  if from >= total then None
  else begin
    let bytes = Bytes.length m.tagged in
    let lowest_bit b j0 =
      let rec go j = if b land (1 lsl j) <> 0 then j else go (j + 1) in
      go j0
    in
    let found = ref (-1) in
    (* partial leading byte *)
    let i0 = from lsr 3 in
    let b0 =
      Char.code (Bytes.unsafe_get m.tagged i0)
      land lnot ((1 lsl (from land 7)) - 1)
      land 0xff
    in
    if b0 <> 0 then found := (i0 lsl 3) lor lowest_bit b0 (from land 7)
    else begin
      (* word-at-a-time over the rest of the bitmap *)
      let i = ref (i0 + 1) in
      while !found < 0 && !i + 8 <= bytes do
        if Bytes.get_int64_le m.tagged !i = 0L then i := !i + 8
        else begin
          let j = ref !i in
          while Char.code (Bytes.unsafe_get m.tagged !j) = 0 do
            incr j
          done;
          found := (!j lsl 3) lor lowest_bit (Char.code (Bytes.unsafe_get m.tagged !j)) 0
        end
      done;
      while !found < 0 && !i < bytes do
        let b = Char.code (Bytes.unsafe_get m.tagged !i) in
        if b <> 0 then found := (!i lsl 3) lor lowest_bit b 0 else incr i
      done
    end;
    if !found >= 0 && !found < total then Some !found else None
  end

(* Revocation bitmap *)

let rev_get m g =
  Char.code (Bytes.get m.revoked (g lsr 3)) land (1 lsl (g land 7)) <> 0

let rev_set m g v =
  let i = g lsr 3 in
  let mask = 1 lsl (g land 7) in
  let b = Char.code (Bytes.get m.revoked i) in
  if v then begin
    if b land mask = 0 then begin
      Bytes.set m.revoked i (Char.chr ((b lor mask) land 0xff));
      m.revoked_count <- m.revoked_count + 1;
      m.filter_epoch <- m.filter_epoch + 1
    end
  end
  else if b land mask <> 0 then begin
    Bytes.set m.revoked i (Char.chr (b land lnot mask land 0xff));
    m.revoked_count <- m.revoked_count - 1;
    m.filter_epoch <- m.filter_epoch + 1
  end

let set_revoked m ~addr ~len =
  check_range m ~addr ~size:len Write;
  for g = granule_of m addr to granule_of m (addr + len - 1) do
    rev_set m g true
  done

let clear_revoked m ~addr ~len =
  check_range m ~addr ~size:len Write;
  for g = granule_of m addr to granule_of m (addr + len - 1) do
    rev_set m g false
  done

let is_revoked m addr = contains m addr && rev_get m (granule_of m addr)

let revoked_granule_count m = m.revoked_count

(* Raw (privileged) byte access: word-wide for the common sizes, with a
   byte loop for anything unusual.  Little-endian either way. *)

let load_priv m ~addr ~size:sz =
  check_range m ~addr ~size:sz Read;
  let off = addr - m.base in
  match sz with
  | 4 ->
      (* two 16-bit halves: word-wide without boxing an Int32 *)
      Bytes.get_uint16_le m.data off lor (Bytes.get_uint16_le m.data (off + 2) lsl 16)
  | 1 -> Bytes.get_uint8 m.data off
  | 2 -> Bytes.get_uint16_le m.data off
  | _ ->
      let rec go acc i =
        if i < 0 then acc
        else go ((acc lsl 8) lor Char.code (Bytes.get m.data (off + i))) (i - 1)
      in
      go 0 (sz - 1)

let clear_granule_tag m addr = cap_clear m (granule_of m addr)

let store_priv m ~addr ~size:sz v =
  check_range m ~addr ~size:sz Write;
  let off = addr - m.base in
  (match sz with
  | 4 ->
      Bytes.set_uint16_le m.data off (v land 0xffff);
      Bytes.set_uint16_le m.data (off + 2) ((v lsr 16) land 0xffff)
  | 1 -> Bytes.set_uint8 m.data off (v land 0xff)
  | 2 -> Bytes.set_uint16_le m.data off (v land 0xffff)
  | _ ->
      for i = 0 to sz - 1 do
        Bytes.set m.data (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
      done);
  (* Any data write invalidates the tag of the granule(s) touched. *)
  clear_granule_tag m addr;
  clear_granule_tag m (addr + sz - 1)

(* Unchecked access for the superblock engine's hoisted-authority fast
   paths.  The caller has proved the access passes the full checked
   path: the authority is value-equal to one that passed it (so tag,
   seal, permission and load-filter outcomes repeat while the filter
   epoch is unchanged) and the address was re-checked against bounds,
   alignment and the SRAM range.  So these skip the range check and the
   size dispatch.  The stores still clear the granule tag(s) — a data
   write always does, and the tag state is not covered by the epoch. *)

external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_set16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* The primitives load/store native-endian; [Sys.big_endian] is a
   compile-time constant, so the swap folds away on LE hosts. *)
let[@inline] swap16 v = ((v land 0xff) lsl 8) lor (v lsr 8)
let[@inline] get16_le b i =
  let v = unsafe_get16 b i in
  if Sys.big_endian then swap16 v else v

let[@inline] set16_le b i v =
  unsafe_set16 b i (if Sys.big_endian then swap16 (v land 0xffff) else v)

let[@inline] load32_unchecked m addr =
  let off = addr - m.base in
  get16_le m.data off lor (get16_le m.data (off + 2) lsl 16)

let[@inline] store32_unchecked m addr v =
  let off = addr - m.base in
  set16_le m.data off (v land 0xffff);
  set16_le m.data (off + 2) ((v lsr 16) land 0xffff);
  let g = off lsr 3 (* / granule_size *) in
  cap_clear m g;
  let g2 = (off + 3) lsr 3 in
  if g2 <> g then cap_clear m g2

external unsafe_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A NULL capability store at a granule-aligned address: NULL's raw
   encoding is eight zero bytes, and it is untagged, so the tag-set hook
   never runs — exactly [store_cap_priv] of [Capability.null]. *)
let[@inline] zero_granule_unchecked m addr =
  let off = addr - m.base in
  unsafe_set64 m.data off 0L;
  cap_clear m (off lsr 3)

(* Lossy raw encoding of a capability: cursor in the low word, a packed
   summary in the high word.  Reading a capability as data observes this,
   as on hardware. *)
let raw_encoding c =
  let meta =
    (Cap.length c land 0xffff)
    lor ((match Cap.otype c with
         | Cap.Otype.Unsealed -> 0
         | Cap.Otype.Sentry _ -> 1
         | Cap.Otype.Data d -> d)
        lsl 16)
  in
  (Cap.address c land 0xffffffff, meta)

let store_cap_priv m ~addr c =
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Write;
  check_range m ~addr ~size:granule_size Write;
  let lo, hi = raw_encoding c in
  let off = addr - m.base in
  Bytes.set_uint16_le m.data off (lo land 0xffff);
  Bytes.set_uint16_le m.data (off + 2) ((lo lsr 16) land 0xffff);
  Bytes.set_uint16_le m.data (off + 4) (hi land 0xffff);
  Bytes.set_uint16_le m.data (off + 6) ((hi lsr 16) land 0xffff);
  let g = granule_of m addr in
  if Cap.tag c then cap_put m g c else cap_clear m g

let load_cap_priv m ~addr =
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Read;
  check_range m ~addr ~size:granule_size Read;
  match m.caps.(granule_of m addr) with
  | Some c -> c
  | None ->
      (* Untagged: decode the raw bytes into a null-derived value. *)
      let lo = load_priv m ~addr ~size:4 in
      Cap.clear_tag
        (match Cap.with_address Cap.null lo with Ok c -> c | Error _ -> Cap.null)

let zero_priv m ~addr ~len =
  check_range m ~addr ~size:len Write;
  Bytes.fill m.data (addr - m.base) len '\000';
  cap_clear_range m (granule_of m addr) (granule_of m (addr + len - 1))

let blit_string_priv m ~addr s =
  check_range m ~addr ~size:(String.length s) Write;
  Bytes.blit_string s 0 m.data (addr - m.base) (String.length s);
  if String.length s > 0 then
    cap_clear_range m (granule_of m addr) (granule_of m (addr + String.length s - 1))

(* Fault-injection primitives (single-event upsets).  Both are
   privileged: they model hardware-level disturbance, not an access, so
   no authorising capability is involved and no cycles are charged. *)

let flip_bit m ~addr ~bit =
  check_range m ~addr ~size:1 Write;
  let off = addr - m.base in
  let b = Char.code (Bytes.get m.data off) lxor (1 lsl (bit land 7)) in
  Bytes.set m.data off (Char.chr b);
  (* The tag covers the whole granule: corrupted bytes can no longer
     decode to the capability that was stored there. *)
  clear_granule_tag m addr

let clear_tag_at m addr =
  if not (contains m addr) then false
  else begin
    let g = granule_of m addr in
    let had = m.caps.(g) <> None in
    cap_clear m g;
    had
  end

let iter_caps m f =
  let rec go g =
    match next_tagged m ~from:g with
    | None -> ()
    | Some g ->
        (match m.caps.(g) with
        | Some c -> f ~addr:(m.base + (g * granule_size)) c
        | None -> assert false);
        go (g + 1)
  in
  go 0

(* Checked access *)

(* Alignment and load-filter checks: the part of [check] beyond the
   capability check itself.  Split out so the machine's SRAM fast path
   (which has already run [Capability.check_access]) can apply it without
   re-checking the capability. *)
let check_aligned_filtered m ~auth ~addr ~size:sz access =
  if sz > 1 && addr mod sz <> 0 then fault Cap.Bounds_violation addr access;
  (* Revoked authority: the hardware guarantees accesses to freed objects
     trap as soon as free returns (§3.1.3).  The load filter catches
     capabilities reloaded from memory; register-held copies in native
     compartment code would be filtered when spilled/reloaded around the
     free() call, which we model by checking the authority's base here. *)
  if m.load_filter && contains m (Cap.base auth) && rev_get m (granule_of m (Cap.base auth))
  then fault Cap.Tag_violation addr access

let check m ~auth ~perm ~addr ~size:sz access =
  (match Cap.check_access ~perm ~addr ~size:sz auth with
  | Ok () -> ()
  | Error cause -> fault cause addr access);
  check_aligned_filtered m ~auth ~addr ~size:sz access

let load ~auth m ~addr ~size:sz =
  check m ~auth ~perm:Perm.Load ~addr ~size:sz Read;
  load_priv m ~addr ~size:sz

let store ~auth m ~addr ~size:sz v =
  check m ~auth ~perm:Perm.Store ~addr ~size:sz Write;
  store_priv m ~addr ~size:sz v

let load_cap_prechecked ~auth m ~addr =
  let c = load_cap_priv m ~addr in
  if not (Cap.has_perm Perm.Mem_cap auth) then Cap.clear_tag c
  else
    let c = Cap.attenuate_loaded ~auth c in
    if
      m.load_filter && Cap.tag c
      && contains m (Cap.base c)
      && rev_get m (granule_of m (Cap.base c))
    then Cap.clear_tag c
    else c

let load_cap ~auth m ~addr =
  check m ~auth ~perm:Perm.Load ~addr ~size:granule_size Read;
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Read;
  load_cap_prechecked ~auth m ~addr

let store_cap ~auth m ~addr c =
  check m ~auth ~perm:Perm.Store ~addr ~size:granule_size Write;
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Write;
  if not (Cap.has_perm Perm.Mem_cap auth) then
    fault (Cap.Permit_violation Perm.Mem_cap) addr Write;
  if Cap.tag c && not (Cap.has_perm Perm.Global c)
     && not (Cap.has_perm Perm.Store_local auth)
  then fault (Cap.Permit_violation Perm.Store_local) addr Write;
  store_cap_priv m ~addr c

let zero ~auth m ~addr ~len =
  if len > 0 then begin
    check m ~auth ~perm:Perm.Store ~addr ~size:1 Write;
    check m ~auth ~perm:Perm.Store ~addr:(addr + len - 1) ~size:1 Write;
    zero_priv m ~addr ~len
  end

(* Revoker *)

let sweep_granule m g =
  match m.caps.(g) with
  | None -> false
  | Some c ->
      if contains m (Cap.base c) && rev_get m (granule_of m (Cap.base c)) then begin
        cap_clear m g;
        true
      end
      else false

let tagged_granule_count m = m.tagged_count

(* Snapshot/restore: deep-copy every mutable component into a closure
   that writes it back in place.  Restore writes [caps] directly rather
   than through [cap_put], so the tag-set hook never observes it (a
   restore is not a store); the hook itself is left untouched — it
   belongs to whoever installed it, not to the memory image. *)

let snapshot m =
  let data = Bytes.copy m.data in
  let caps = Array.copy m.caps in
  let tagged = Bytes.copy m.tagged in
  let tagged_count = m.tagged_count in
  let revoked = Bytes.copy m.revoked in
  let revoked_count = m.revoked_count in
  let load_filter = m.load_filter in
  fun () ->
    Bytes.blit data 0 m.data 0 (Bytes.length data);
    Array.blit caps 0 m.caps 0 (Array.length caps);
    Bytes.blit tagged 0 m.tagged 0 (Bytes.length tagged);
    m.tagged_count <- tagged_count;
    Bytes.blit revoked 0 m.revoked 0 (Bytes.length revoked);
    m.revoked_count <- revoked_count;
    m.load_filter <- load_filter;
    (* Bumped, never restored: the restored bitmap may differ from what
       a warm access cache last validated against, so every cache keyed
       on the epoch must re-check after a rewind. *)
    m.filter_epoch <- m.filter_epoch + 1
