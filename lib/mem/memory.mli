(** Tagged SRAM with revocation bits and the CHERIoT load filter (§2.1).

    Memory is an array of 8-byte granules.  Each granule carries a
    non-addressable CHERI tag: it either holds a valid capability or raw
    bytes.  Storing data over a capability clears its tag; reading a
    capability as data yields its (lossy) raw encoding with the tag
    cleared.

    Every granule also has a revocation bit, held in a separate region in
    the real hardware.  When a capability is loaded through [load_cap] and
    the revocation bit of its *base* granule is set, the load filter
    clears the loaded capability's tag — this is what makes freed pointers
    unusable immediately after [free] returns.

    All checked accessors take the authorising capability and raise
    [Fault] exactly where the hardware would trap.  The [_priv] accessors
    model the allocator's privileged heap capability and the loader's root
    authority: they bypass permission checks and the load filter. *)

type access = Read | Write | Exec

type fault = {
  cause : Capability.violation;
  addr : int;
  access : access;
}

exception Fault of fault

val fault_to_string : fault -> string

type t

val granule_size : int
(** 8 bytes: the unit of tagging and revocation. *)

val create : base:int -> size:int -> t
(** Fresh zeroed memory covering [base, base+size); both must be
    granule-aligned. *)

val base : t -> int
val size : t -> int
val contains : t -> int -> bool

val set_load_filter : t -> bool -> unit
(** Ablation toggle; the filter is on by default. *)

val base_filtered : t -> int -> bool
(** [base_filtered m base]: the load filter is on and the revocation bit
    of the granule containing [base] is set, so an access through an
    authority with that base traps (the filter part of [load]/[store]'s
    check).  Read from the live bitmap; [false] at once while no
    granule is revoked ({!revoked_granule_count} is exact). *)

(* Checked data access *)

val check_aligned_filtered :
  t -> auth:Capability.t -> addr:int -> size:int -> access -> unit
(** Only the alignment + load-filter part of [load]/[store]'s check
    (which also runs [Capability.check_access]), for callers that
    have already run [Capability.check_access] on [auth] (the machine's
    SRAM path checks the capability before charging cycles, then applies
    this with the [_priv] accessors — one check instead of two). *)

val load : auth:Capability.t -> t -> addr:int -> size:int -> int
(** Load [size] (1, 2 or 4) bytes, little-endian, naturally aligned. *)

val store : auth:Capability.t -> t -> addr:int -> size:int -> int -> unit
(** Store [size] bytes; clears the tag of the granule written. *)

val load_cap : auth:Capability.t -> t -> addr:int -> Capability.t
(** Load a capability from a granule-aligned address.  Applies, in order:
    the [Mem_cap] check (without it the result is untagged), deep
    attenuation ([Capability.attenuate_loaded]) and the load filter. *)

val check_load_cap : auth:Capability.t -> t -> addr:int -> unit
(** [load_cap]'s access check alone (capability, alignment, range, load
    filter on [auth]), raising the same [Fault]: after it passes,
    [load_cap_into m ~addr ~perms:(Capability.perms auth)] loads the
    value [load_cap] would return, packed. *)

val store_cap : auth:Capability.t -> t -> addr:int -> Capability.t -> unit
(** Store a capability.  A tagged non-[Global] capability additionally
    requires [Store_local] on [auth] (§2.1 safe delegation). *)

val zero : auth:Capability.t -> t -> addr:int -> len:int -> unit
(** Checked zeroing (clears tags). *)

(* Privileged access (loader, allocator, machine) *)

val load_priv : t -> addr:int -> size:int -> int
val store_priv : t -> addr:int -> size:int -> int -> unit
(* Unchecked access for an address proved to pass the full checked path
   (the superblock engine's direct checks on the packed authority: tag,
   seal and permission bits, bounds, alignment, this memory's range and
   [base_filtered]). *)

val load32_unchecked : t -> int -> int
(** 32-bit load. *)

val store32_unchecked : t -> int -> int -> unit
(** 32-bit store; clears the granule tag(s) touched, like every data
    write. *)

val store_cap_unchecked :
  t -> int -> meta:int -> base:int -> top:int -> cursor:int -> unit
(** Capability store at a granule-aligned address from the packed form
    ([Capability.meta], base, top, cursor): [store_cap_priv] of
    [Capability.of_meta ~meta ~base ~top ~cursor], with no capability
    built.  A tagged store runs the tag-set hook, as every tag store
    does. *)

val zero_granule_unchecked : t -> int -> unit
(** NULL-capability store at a granule-aligned address: eight zero
    bytes and the granule's tag cleared — [store_cap_priv] of
    [Capability.null], which never runs the tag-set hook. *)

val load_cap_into :
  t -> addr:int -> perms:Perm.Set.t -> int array -> int -> unit
(** [load_cap] minus its access check (capability, alignment, load
    filter on the authority), for a caller that has proved that check
    passes, and written in the packed form: [load_cap_into m ~addr
    ~perms dst o] writes [Capability.meta], base, top and cursor of the
    loaded capability to [dst.(o)] .. [dst.(o + 3)] without building
    it.  Still applies the [Mem_cap] rule and deep attenuation
    ([Capability.attenuate_loaded_meta]), both of which read only the
    authority's permission set [perms], and the load filter on the
    loaded capability. *)

val load_cap_priv : t -> addr:int -> Capability.t
val store_cap_priv : t -> addr:int -> Capability.t -> unit
val zero_priv : t -> addr:int -> len:int -> unit
val blit_string_priv : t -> addr:int -> string -> unit

(* Fault injection (single-event upsets; used by the {!Fault_inject}
   engine and by tests) *)

val flip_bit : t -> addr:int -> bit:int -> unit
(** Flip one data bit ([bit] taken mod 8).  Clears the tag of the
    granule touched: a corrupted granule can no longer decode to the
    capability that was stored there — tags are never forged. *)

val clear_tag_at : t -> int -> bool
(** Invalidate the capability (if any) in the granule containing the
    address; returns [true] if a tag was actually cleared.  Out-of-range
    addresses are ignored. *)

val iter_caps : t -> (addr:int -> Capability.t -> unit) -> unit
(** Iterate every granule currently holding a valid capability, in
    address order (invariant-checking aid). *)

(* Revocation bits *)

val set_revoked : t -> addr:int -> len:int -> unit
val clear_revoked : t -> addr:int -> len:int -> unit
val is_revoked : t -> int -> bool
(** Revocation bit of the granule containing the address. *)

val revoked_granule_count : t -> int
(** O(1) and exact: [set_revoked]/[clear_revoked] adjust it by the bits
    they change, and a snapshot restore copies it with the bitmap. *)

(* Revoker support *)

val granule_count : t -> int

val next_tagged : t -> from:int -> int
(** Index of the first granule [>= from] holding a valid capability, or
    [-1].  Answers from a memo of the last search when [from] lies
    between that search's start and its answer (no tag can have appeared
    there unnoticed: a new tag inside the span becomes the memo's answer,
    and clearing the answer drops the memo).  Otherwise looks at the
    rest of [from]'s 64-granule word of the tag bitmap, then at a summary
    with one bit per such word, so an empty stretch costs one byte per
    512 granules.  The revoker calls it on every slow tick of a sweep
    (settlement and the event horizon), mostly from where the previous
    call started or ended. *)

val set_tag_set_hook : t -> (unit -> unit) -> unit
(** Install a callback invoked immediately {e before} any granule's tag
    is set (capability store or privileged write of a tagged value).  The
    machine's revoker uses this to settle lazily-accumulated sweep work
    against the pre-store tag state; at most one hook is installed. *)

val sweep_granule : t -> int -> bool
(** [sweep_granule m i] checks granule [i]: if it holds a capability whose
    base points into a revoked granule, invalidate it (clear the tag).
    Returns [true] if a capability was invalidated.  One step of the
    background revoker. *)

val tagged_granule_count : t -> int
(** Number of granules currently holding valid capabilities.  O(1):
    maintained incrementally alongside the tag bitmap; used by the
    revoker's sweep scheduling and the allocator's heuristics. *)

(* Snapshot *)

val snapshot : t -> unit -> unit
(** [snapshot m] captures the entire memory image — data bytes,
    capability store, tag bitmap and its summary, revocation bitmap,
    their counters, the load-filter toggle and the tag-set hook — and
    returns a thunk that restores it in place.  Only the data's non-zero
    512-byte chunks and the tagged granules are kept (restore zero-fills
    the rest), so a mostly-zero image costs little to hold.  Restoring
    bypasses the tag-set hook (a restore is not a store).  Building
    block of {!Machine.snapshot}. *)
