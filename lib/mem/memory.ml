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
  tag_words : Bytes.t;
      (** summary of [tagged]: bit k is set if granules [64k, 64k + 64)
          hold a tag (set when a tag appears; a stale bit is cleared by
          the [next_tagged] that finds the word empty), so [next_tagged]
          skips empty stretches 512 granules a byte *)
  mutable tagged_count : int;
  revoked : Bytes.t;
  mutable revoked_count : int;
  mutable load_filter : bool;
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
    tag_words = Bytes.make ((granules + 511) / 512) '\000';
    tagged_count = 0;
    revoked = Bytes.make ((granules + 7) / 8) '\000';
    revoked_count = 0;
    load_filter = true;
    tag_set_hook = ignore;
  }

let base m = m.base
let size m = m.size
let contains m addr = addr >= m.base && addr < m.base + m.size
let set_load_filter m b = m.load_filter <- b
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
   under injected tag-clears and bit-flips — and the summary never misses
   a tagged word. *)

let bit_put b i v =
  let j = i lsr 3 and mask = 1 lsl (i land 7) in
  let c = Char.code (Bytes.unsafe_get b j) in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (if v then c lor mask else c land lnot mask land 0xff))

let cap_clear m g =
  match Array.unsafe_get m.caps g with
  | None -> ()
  | Some _ ->
      m.caps.(g) <- None;
      bit_put m.tagged g false;
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
      bit_put m.tagged g true;
      bit_put m.tag_words (g lsr 6) true;
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

let rec lowest_bit c j = if c land (1 lsl j) <> 0 then j else lowest_bit c (j + 1)

let rec first_byte b i lim =
  if i >= lim then -1
  else
    let c = Char.code (Bytes.unsafe_get b i) in
    if c <> 0 then (i lsl 3) + lowest_bit c 0 else first_byte b (i + 1) lim

(* The first set bit of [b] at index [from] or later, looking only at
   bytes [from / 8, lim); -1 if there is none. *)
let first_set b ~from ~lim =
  let i0 = from lsr 3 in
  if i0 >= lim then -1
  else
    let c0 =
      Char.code (Bytes.unsafe_get b i0) land (0xff lsl (from land 7)) land 0xff
    in
    if c0 <> 0 then (i0 lsl 3) + lowest_bit c0 0 else first_byte b (i0 + 1) lim

(* The first tag at or after [from] in granule [from]'s 64-granule word
   ([lim] ends the word's bitmap bytes). *)
let in_word m ~from =
  let lim = min (Bytes.length m.tagged) (((from lsr 6) + 1) lsl 3) in
  first_set m.tagged ~from ~lim

(* The first tag in word [k] or later, by the summary; a summary bit whose
   word turns out empty is cleared on the way. *)
let rec next_in_words m k =
  let k = first_set m.tag_words ~from:k ~lim:(Bytes.length m.tag_words) in
  if k < 0 then -1
  else
    let g = in_word m ~from:(k lsl 6) in
    if g >= 0 then g
    else begin
      bit_put m.tag_words k false;
      next_in_words m (k + 1)
    end

(* The rest of [from]'s word in the bitmap, then the words after it. *)
let next_tagged m ~from =
  if from >= granule_count m then None
  else
    let g = in_word m ~from in
    let g = if g >= 0 then g else next_in_words m ((from lsr 6) + 1) in
    if g >= 0 then Some g else None

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
      m.revoked_count <- m.revoked_count + 1
    end
  end
  else if b land mask <> 0 then begin
    Bytes.set m.revoked i (Char.chr (b land lnot mask land 0xff));
    m.revoked_count <- m.revoked_count - 1
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

(* Unchecked access for the superblock engine's direct access checks.
   The caller has proved the access passes the full checked path: it
   tested the authority's packed tag, seal and permission bits, the
   bounds, the alignment, this memory's range and [base_filtered]
   itself.  So these skip the range check and the size dispatch.  The
   stores still clear the granule tag(s), as every data write does. *)

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

(* Revoked authority: the hardware guarantees accesses to freed objects
   trap as soon as free returns (§3.1.3).  The load filter catches
   capabilities reloaded from memory; register-held copies in native
   compartment code would be filtered when spilled/reloaded around the
   free() call, which we model by checking the authority's base on every
   access. *)
let base_filtered m base = m.load_filter && contains m base && rev_get m (granule_of m base)

(* Alignment and load-filter checks: the part of [check] beyond the
   capability check itself.  Split out so the machine's SRAM fast path
   (which has already run [Capability.check_access]) can apply it without
   re-checking the capability. *)
let check_aligned_filtered m ~auth ~addr ~size:sz access =
  if sz > 1 && addr mod sz <> 0 then fault Cap.Bounds_violation addr access;
  if base_filtered m (Cap.base auth) then fault Cap.Tag_violation addr access

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

let load_cap_prechecked ~perms m ~addr =
  let c = load_cap_priv m ~addr in
  if not (Perm.Set.mem Perm.Mem_cap perms) then Cap.clear_tag c
  else
    let c = Cap.attenuate_loaded_perms perms c in
    if Cap.tag c && base_filtered m (Cap.base c) then Cap.clear_tag c else c

let load_cap ~auth m ~addr =
  check m ~auth ~perm:Perm.Load ~addr ~size:granule_size Read;
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Read;
  load_cap_prechecked ~perms:(Cap.perms auth) m ~addr

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
  let tag_words = Bytes.copy m.tag_words in
  let tagged_count = m.tagged_count in
  let revoked = Bytes.copy m.revoked in
  let revoked_count = m.revoked_count in
  let load_filter = m.load_filter in
  fun () ->
    Bytes.blit data 0 m.data 0 (Bytes.length data);
    Array.blit caps 0 m.caps 0 (Array.length caps);
    Bytes.blit tagged 0 m.tagged 0 (Bytes.length tagged);
    Bytes.blit tag_words 0 m.tag_words 0 (Bytes.length tag_words);
    m.tagged_count <- tagged_count;
    Bytes.blit revoked 0 m.revoked 0 (Bytes.length revoked);
    m.revoked_count <- revoked_count;
    m.load_filter <- load_filter
