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

(* The capability store is paged: page [k] holds the capabilities of
   granules [64k, 64k + 64), the same span as bit [k] of [tag_words].
   A page is a flat int array, four ints per granule: the packed meta
   word ([Capability.meta]), base, top and cursor, so a stored
   capability is plain ints and a store allocates nothing.  The tag
   bitmap is the only record of which granules hold a capability: a
   cleared tag leaves its granule's ints in place, and nothing reads
   them until a store tags the granule again.  Every directory entry
   starts as the empty page [no_caps]; the first tag stored in a page's
   span gives it a page of its own, and pages are never freed.  So a
   booted image, which tags a few pages, costs a few pages rather than
   four ints per granule of SRAM.  [cap_write] is the only writer.

   [no_caps] is shared by every memory, on every domain, and is never
   written: [cap_write] replaces it before storing.  It is module-level
   rather than per memory because [Array.make] of a major-heap-sized
   directory whose initial value is still in the minor heap forces a
   minor collection, once per [create].  A page is 256 ints, the largest
   block the minor heap takes, so a new page never goes straight to the
   major heap. *)
let page_bits = 6
let page_granules = 1 lsl page_bits
let no_caps : int array = Array.make (page_granules * 4) 0

type t = {
  base : int;
  size : int;
  granules : int;
  data : Bytes.t;
  pages : int array array;
  tagged : Bytes.t;  (** tag bitmap: bit g set iff granule g holds a capability *)
  tag_words : Bytes.t;
      (** summary of [tagged]: bit k is set if granules [64k, 64k + 64)
          hold a tag (set when a tag appears; a stale bit is cleared by
          the [next_tagged] that finds the word empty), so [next_tagged]
          skips empty stretches 512 granules a byte *)
  mutable tagged_count : int;
  mutable memo_from : int;
  mutable memo_at : int;
      (** [next_tagged]'s memo: when [memo_from <= memo_at], no granule
          in [memo_from, memo_at) is tagged and [memo_at] is tagged or
          equals [granules].  [memo_from = max_int] means no memo. *)
  revoked : Bytes.t;
  mutable revoked_count : int;
  mutable load_filter : bool;
  mutable tag_set_hook : unit -> unit;
  scratch : int array;  (** [load_cap]'s packed result *)
}

let create ~base ~size =
  assert (base mod granule_size = 0 && size mod granule_size = 0 && size > 0);
  let granules = size / granule_size in
  {
    base;
    size;
    granules;
    data = Bytes.make size '\000';
    pages = Array.make ((granules + page_granules - 1) / page_granules) no_caps;
    tagged = Bytes.make ((granules + 7) / 8) '\000';
    tag_words = Bytes.make ((granules + 511) / 512) '\000';
    tagged_count = 0;
    memo_from = max_int;
    memo_at = 0;
    revoked = Bytes.make ((granules + 7) / 8) '\000';
    revoked_count = 0;
    load_filter = true;
    tag_set_hook = ignore;
    scratch = Array.make 4 0;
  }

let base m = m.base
let size m = m.size
let contains m addr = addr >= m.base && addr < m.base + m.size
let set_load_filter m b = m.load_filter <- b
let granule_count m = m.granules
let set_tag_set_hook m f = m.tag_set_hook <- f

let fault cause addr access = raise (Fault { cause; addr; access })

let granule_of m addr = (addr - m.base) / granule_size

let check_range m ~addr ~size:sz access =
  if addr < m.base || addr + sz > m.base + m.size then
    fault Cap.Bounds_violation addr access

(* The ints of granule [g]'s stored capability (meaningful only while
   its tag is set). *)
let[@inline] slot g = (g land (page_granules - 1)) lsl 2
let[@inline] page m g = Array.unsafe_get m.pages (g lsr page_bits)
let[@inline] cap_base m g = Array.unsafe_get (page m g) (slot g + 1)

let cap_get m g =
  let p = page m g and o = slot g in
  Cap.of_meta ~meta:(Array.unsafe_get p o) ~base:(Array.unsafe_get p (o + 1))
    ~top:(Array.unsafe_get p (o + 2)) ~cursor:(Array.unsafe_get p (o + 3))

let cap_write m g ~meta ~base ~top ~cursor =
  let k = g lsr page_bits in
  let p = m.pages.(k) in
  let p =
    if p != no_caps then p
    else begin
      let p = Array.make (page_granules * 4) 0 in
      m.pages.(k) <- p;
      p
    end
  in
  let o = slot g in
  Array.unsafe_set p o meta;
  Array.unsafe_set p (o + 1) base;
  Array.unsafe_set p (o + 2) top;
  Array.unsafe_set p (o + 3) cursor

(* Tag bitmap maintenance.  Every tag change outside [snapshot]'s restore
   goes through these two so the bitmap and the count never drift from
   the store — including under injected tag-clears and bit-flips — the
   summary never misses a tagged word, and [next_tagged]'s memo stays
   exact: a new tag inside the memo's span becomes its answer, and
   clearing the answer drops the memo. *)

let[@inline] bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_put b i v =
  let j = i lsr 3 and mask = 1 lsl (i land 7) in
  let c = Char.code (Bytes.unsafe_get b j) in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (if v then c lor mask else c land lnot mask land 0xff))

let[@inline] drop_memo m = m.memo_from <- max_int

let cap_clear m g =
  if bit_get m.tagged g then begin
    bit_put m.tagged g false;
    m.tagged_count <- m.tagged_count - 1;
    if g = m.memo_at then drop_memo m
  end

let cap_put m g ~meta ~base ~top ~cursor =
  (* The hook (the machine's revoker) must observe memory *before* the
     new tag appears: an in-flight sweep settles up to the present cycle
     first, so the new capability cannot be credited to sweep steps that
     already elapsed. *)
  m.tag_set_hook ();
  if not (bit_get m.tagged g) then begin
    bit_put m.tagged g true;
    bit_put m.tag_words (g lsr 6) true;
    m.tagged_count <- m.tagged_count + 1;
    if g >= m.memo_from && g < m.memo_at then m.memo_at <- g
  end;
  cap_write m g ~meta ~base ~top ~cursor

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
  let lim = Int.min (Bytes.length m.tagged) (((from lsr 6) + 1) lsl 3) in
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

(* From the memo when [from] lies in its span; otherwise the rest of
   [from]'s word in the bitmap, then the words after it, and the answer
   becomes the memo. *)
let next_tagged m ~from =
  if from >= m.granules then -1
  else if m.memo_from <= from && from <= m.memo_at then
    if m.memo_at < m.granules then m.memo_at else -1
  else begin
    let g = in_word m ~from in
    let g = if g >= 0 then g else next_in_words m ((from lsr 6) + 1) in
    m.memo_from <- from;
    m.memo_at <- (if g >= 0 then g else m.granules);
    g
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

(* A capability store at byte offset [off] (granule-aligned, in range)
   from its packed ints.  The data bytes get the capability's lossy raw
   encoding, which reading it as data observes, as on hardware: the
   cursor in the low word; in the high word the length's low 16 bits
   and the otype's encoding (0 unsealed, 1 for every sentry kind, the
   data otype itself).  Then the tag: set with the ints when [meta]'s
   tag bit is, cleared otherwise. *)
let store_cap_at m off ~meta ~base ~top ~cursor =
  let oc = meta lsr 13 in
  let enc = if oc >= 1 && oc <= 5 then 1 else oc in
  let lo = cursor land 0xffffffff and hi = ((top - base) land 0xffff) lor (enc lsl 16) in
  set16_le m.data off (lo land 0xffff);
  set16_le m.data (off + 2) (lo lsr 16);
  set16_le m.data (off + 4) (hi land 0xffff);
  set16_le m.data (off + 6) (hi lsr 16);
  let g = off lsr 3 in
  if meta land 1 <> 0 then cap_put m g ~meta ~base ~top ~cursor else cap_clear m g

let store_cap_priv m ~addr c =
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Write;
  check_range m ~addr ~size:granule_size Write;
  store_cap_at m (addr - m.base) ~meta:(Cap.meta c) ~base:(Cap.base c) ~top:(Cap.top c)
    ~cursor:(Cap.address c)

let[@inline] store_cap_unchecked m addr ~meta ~base ~top ~cursor =
  store_cap_at m (addr - m.base) ~meta ~base ~top ~cursor

let load_cap_priv m ~addr =
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Read;
  check_range m ~addr ~size:granule_size Read;
  let g = granule_of m addr in
  if bit_get m.tagged g then cap_get m g
  else
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
    let had = bit_get m.tagged g in
    cap_clear m g;
    had
  end

(* [f g] for every granule [g] whose tag bit is set, in address order:
   through the summary and the bitmap, so only tagged words are read. *)
let iter_tagged m f =
  let rec go g =
    let g = next_tagged m ~from:g in
    if g >= 0 then begin
      f g;
      go (g + 1)
    end
  in
  go 0

let iter_caps m f =
  iter_tagged m (fun g -> f ~addr:(m.base + (g * granule_size)) (cap_get m g))

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

let load_cap_into m ~addr ~perms dst o =
  let g = (addr - m.base) lsr 3 in
  if bit_get m.tagged g then begin
    let p = page m g and s = slot g in
    let meta = Array.unsafe_get p s and base = Array.unsafe_get p (s + 1) in
    let meta =
      if not (Perm.Set.mem Perm.Mem_cap perms) then meta land lnot 1
      else
        let meta = Cap.attenuate_loaded_meta perms meta in
        if base_filtered m base then meta land lnot 1 else meta
    in
    Array.unsafe_set dst o meta;
    Array.unsafe_set dst (o + 1) base;
    Array.unsafe_set dst (o + 2) (Array.unsafe_get p (s + 2));
    Array.unsafe_set dst (o + 3) (Array.unsafe_get p (s + 3))
  end
  else begin
    (* The untagged decode: NULL with the raw low word as its cursor. *)
    Array.unsafe_set dst o 0;
    Array.unsafe_set dst (o + 1) 0;
    Array.unsafe_set dst (o + 2) 0;
    Array.unsafe_set dst (o + 3) (load32_unchecked m addr)
  end

(* The boxed load builds its result from the packed one, through this
   memory's four-int scratch slot. *)
let load_cap ~auth m ~addr =
  check m ~auth ~perm:Perm.Load ~addr ~size:granule_size Read;
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Read;
  check_range m ~addr ~size:granule_size Read;
  let s = m.scratch in
  load_cap_into m ~addr ~perms:(Cap.perms auth) s 0;
  Cap.of_meta ~meta:s.(0) ~base:s.(1) ~top:s.(2) ~cursor:s.(3)

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
  bit_get m.tagged g
  &&
  let b = cap_base m g in
  contains m b && rev_get m (granule_of m b)
  && begin
       cap_clear m g;
       true
     end

let tagged_granule_count m = m.tagged_count

(* Snapshot/restore.  A snapshot keeps what restore cannot rebuild from
   zero: the data's non-zero [snap_chunk]-byte chunks and the tagged
   granules' packed capabilities, plus copies of the small bitmaps and
   the counters.  Restore zero-fills the data, writes the kept chunks
   back, writes the kept capabilities into their pages and copies the
   bitmaps back, which leaves exactly the snapshot-time image: the tag
   bitmap is the store's only record of which granules hold a
   capability, so the ints of granules tagged after the snapshot need no
   clearing.  A post-boot image is mostly zero, so a held snapshot costs
   a few thousand words rather than a second copy of SRAM.  The capture
   finds the tagged granules with [iter_tagged], so it reads the tagged
   words only.  Restore writes the store with [cap_write] rather than
   [cap_put], so the tag-set hook never observes it (a restore is not a
   store); the hook installed at snapshot time comes back with the rest.
   Restore drops [next_tagged]'s memo, which the copied bitmap does not
   keep. *)

let snap_chunk = 512

external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Bytes [off, off + len) of [b] are all zero; [off] and [len] are
   multiples of 8, like the memory size, and the span lies inside [b].
   Eight words per test where they fit: a snapshot reads all of SRAM
   this way, and one test per word took twice as long. *)
let zero_span b ~off ~len =
  let stop = off + len in
  let[@inline] w i = unsafe_get64 b i in
  let rec words i = i >= stop || (Int64.equal (w i) 0L && words (i + 8)) in
  let rec blocks i =
    if i + 64 > stop then words i
    else
      Int64.equal
        (Int64.logor
           (Int64.logor (Int64.logor (w i) (w (i + 8))) (Int64.logor (w (i + 16)) (w (i + 24))))
           (Int64.logor
              (Int64.logor (w (i + 32)) (w (i + 40)))
              (Int64.logor (w (i + 48)) (w (i + 56)))))
        0L
      && blocks (i + 64)
  in
  blocks off

let snapshot m =
  let size = Bytes.length m.data in
  let chunks = ref [] in
  for k = (size - 1) / snap_chunk downto 0 do
    let off = k * snap_chunk in
    let len = Int.min snap_chunk (size - off) in
    if not (zero_span m.data ~off ~len) then
      chunks := (off, Bytes.sub m.data off len) :: !chunks
  done;
  let chunks = !chunks in
  (* Five ints per tagged granule: the granule, then its packed ints.
     The bitmap decides which granules are captured; [tagged_count] only
     sizes the array, which grows should the two ever disagree. *)
  let tags = ref (Array.make (5 * m.tagged_count) 0) in
  let n = ref 0 in
  iter_tagged m (fun g ->
      let p = page m g and o = slot g and i = 5 * !n in
      if i = Array.length !tags then begin
        let a = Array.make ((2 * i) + 5) 0 in
        Array.blit !tags 0 a 0 i;
        tags := a
      end;
      let tags = !tags in
      tags.(i) <- g;
      for j = 0 to 3 do
        tags.(i + 1 + j) <- p.(o + j)
      done;
      incr n);
  let tags = !tags and tagged_count = !n in
  let tagged = Bytes.copy m.tagged in
  let tag_words = Bytes.copy m.tag_words in
  let revoked = Bytes.copy m.revoked in
  let revoked_count = m.revoked_count in
  let load_filter = m.load_filter in
  let tag_set_hook = m.tag_set_hook in
  fun () ->
    Bytes.fill m.data 0 size '\000';
    List.iter (fun (off, b) -> Bytes.blit b 0 m.data off (Bytes.length b)) chunks;
    for i = 0 to tagged_count - 1 do
      let o = 5 * i in
      cap_write m tags.(o) ~meta:tags.(o + 1) ~base:tags.(o + 2) ~top:tags.(o + 3)
        ~cursor:tags.(o + 4)
    done;
    Bytes.blit tagged 0 m.tagged 0 (Bytes.length tagged);
    Bytes.blit tag_words 0 m.tag_words 0 (Bytes.length tag_words);
    m.tagged_count <- tagged_count;
    drop_memo m;
    Bytes.blit revoked 0 m.revoked 0 (Bytes.length revoked);
    m.revoked_count <- revoked_count;
    m.load_filter <- load_filter;
    m.tag_set_hook <- tag_set_hook
