(** Flat, allocation-free capability register file for the interpreter
    hot path.

    Each register occupies {!slots} consecutive ints of one flat
    [int array]: the packed meta word ([Capability.meta]: tag |
    permission bits | otype code), then base, top and cursor.  Writing
    or deriving a capability in place touches only untagged ints — no
    minor-heap allocation, no GC write barrier.

    Invariant (see DESIGN.md): the packed form never escapes the
    interpreter.  [Capability.t] stays the architectural source of
    truth at every boundary — switcher legs, kernel entry, traps,
    Obs/Forensics rendering, snapshot capture — converting through
    {!pack}/{!unpack}, an exact bijection pinned by QCheck
    (test_cap_props), as is per-helper packed-vs-boxed derivation
    equivalence.

    Register 0 reads as NULL and discards writes, exactly like the
    boxed file it replaces; out-of-range register indices raise
    [Invalid_argument] from the array bounds check, also exactly like
    the boxed file (the superblock compiler rejects such operands at
    compile time instead). *)

val slots : int
(** Ints per register (meta, base, top, cursor). *)

val make : int -> int array
(** [make n] is a fresh all-zero file of [n] registers (all NULL). *)

(* Violation codes.  The in-place derivation helpers return [ok] (= 0)
   on success and a non-zero code otherwise, so the success path
   allocates nothing. *)

val ok : int
val violation : int -> Capability.violation
(** Decode a non-zero helper result into the exact violation the boxed
    [Capability] operation returns. *)

(* Meta-word predicates (pure int functions, for engines holding a meta
   word read with unsafe indexing). *)

val m_tag : int -> bool
val m_sealed : int -> bool
val m_otype : int -> int
val m_perm_bits : int -> int
val m_has_perm : Perm.t -> int -> bool
val m_unsealed : int -> int
(** The same meta word with the otype code cleared (unsealed). *)

val access_key : Perm.Set.t -> int
(** The meta bits an access through a capability needs: the tag and
    every permission of the set. *)

val access_mask : int -> int
(** [access_mask key]: [key] plus every otype bit.  A meta word [m]
    passes the tag, seal and permission parts of
    [Capability.check_access] for the permissions in [key] iff
    [m land access_mask key = key] — one mask and compare, computed
    once per compiled instruction. *)

(* Slot accessors (bounds-checked). *)

val meta : int array -> int -> int
val base : int array -> int -> int
val top : int array -> int -> int
val cursor : int array -> int -> int
val length : int array -> int -> int
val tag_bit : int array -> int -> int  (** 1 if tagged, else 0 *)
val otype_code : int array -> int -> int  (** [CGetType]'s value *)
val perm_bits : int array -> int -> int  (** [CGetPerm]'s value *)

(* Boundary conversion. *)

val pack : int array -> int -> Capability.t -> unit
val unpack : int array -> int -> Capability.t

val pack_at : int array -> int -> Capability.t -> int -> unit
(** [pack_at pk r c addr] packs [c] with its cursor replaced by [addr]:
    [Capability.with_address_unsealed c addr] without the boxed
    intermediate. *)

(* In-place writes and derivations; each mirrors the [Capability]
   operation of the same (or evident) name — same checks, same check
   order, same violation. *)

val set_int : int array -> int -> int -> unit
(** [set_int pk rd v]: NULL with cursor [v] ([Interp.int_value]). *)

val copy : int array -> dst:int -> src:int -> unit

val incr_addr : int array -> dst:int -> src:int -> int -> int
(** [Capability.incr_address]. *)

val set_addr : int array -> dst:int -> src:int -> int -> int
(** [Capability.with_address]. *)

val set_bounds : int array -> dst:int -> src:int -> int -> int
(** [Capability.set_bounds ~length]. *)

val and_perms : int array -> dst:int -> src:int -> Perm.Set.t -> int
(** [Capability.and_perms]. *)

val clear_tag : int array -> dst:int -> src:int -> unit

val seal : int array -> dst:int -> src:int -> key:int -> int
(** [Capability.seal]. *)

val unseal : int array -> dst:int -> src:int -> key:int -> int
(** [Capability.unseal]. *)

val seal_entry : int array -> dst:int -> src:int -> int -> int
(** [seal_entry pk ~dst ~src code]: [Capability.seal_entry] with the
    sentry kind given as its [Capability.sentry_code]. *)
