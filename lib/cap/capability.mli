(** CHERI capabilities as implemented by the CHERIoT ISA (§2.1).

    A capability is a hardware pointer carrying a cursor (the address it
    points to), bounds [base, top), a permission set, a seal state and a
    validity tag.  All derivation operations are monotone: they can only
    narrow bounds and remove permissions.  Invalid derivations either
    return an [Error] (the instruction would trap) or a tag-cleared
    capability, mirroring the hardware.

    This model is uncompressed: bounds are exact.  The CHERIoT compressed
    encoding restricts representable bounds; we document but do not model
    that restriction, as no paper experiment depends on it. *)

(** Seal state.  CHERIoT reserves a handful of object types for sentries
    (sealed entry capabilities, unsealed only by a jump) and leaves seven
    object types for sealed data capabilities — the scarcity that motivates
    the token API (§3.2.1). *)
module Otype : sig
  type sentry =
    | Call_inherit  (** forward sentry, interrupt status inherited *)
    | Call_disable  (** forward sentry, interrupts disabled on entry *)
    | Call_enable  (** forward sentry, interrupts enabled on entry *)
    | Return_disable  (** backward sentry restoring disabled interrupts *)
    | Return_enable  (** backward sentry restoring enabled interrupts *)

  type t = Unsealed | Sentry of sentry | Data of int

  val data_first : int
  (** Smallest otype usable for sealed data capabilities. *)

  val data_last : int
  (** Largest otype usable for sealed data capabilities;
      [data_last - data_first + 1 = 7]. *)

  val pp : t Fmt.t
end

type t = private {
  tag : bool;
  base : int;
  top : int;  (** exclusive *)
  cursor : int;
  perms : Perm.Set.t;
  otype : Otype.t;
}

(** Why a derivation or an access is refused; maps 1:1 onto CHERI trap
    causes. *)
type violation =
  | Tag_violation  (** capability is untagged *)
  | Seal_violation  (** capability is sealed (or not sealed when required) *)
  | Bounds_violation  (** access or requested bounds outside [base, top) *)
  | Permit_violation of Perm.t  (** a required permission is absent *)
  | Otype_violation  (** seal/unseal type mismatch or out of range *)

val pp_violation : violation Fmt.t
val violation_to_string : violation -> string

exception Derivation of violation
(** Raised only by the [_exn] convenience wrappers. *)

val null : t
(** The untagged zero capability (NULL). *)

val make_root : base:int -> top:int -> perms:Perm.Set.t -> t
(** Forge a root capability.  Only the machine reset logic and the loader
    may call this; everything else must derive. *)

val make_sealing_root : first:int -> last:int -> t
(** Root authority to seal/unseal otypes in [first, last]. *)

(* Accessors *)

val tag : t -> bool
val address : t -> int
val base : t -> int
val top : t -> int
val length : t -> int
val perms : t -> Perm.Set.t
val otype : t -> Otype.t
val is_sealed : t -> bool
val has_perm : Perm.t -> t -> bool
val in_bounds : ?size:int -> t -> bool
(** Is [address, address+size) within bounds? [size] defaults to 1. *)

val equal : t -> t -> bool
val pp : t Fmt.t
(** Prints {!to_string}. *)

val to_string : t -> string
(** One line, e.g. [cap[0x100..0x200)@0x100 GLLDMC unsealed], rendered
    with one [Printf.sprintf] (no formatter). *)

(* Derivation (monotone) *)

val with_address : t -> int -> (t, violation) result
(** Move the cursor.  Fails on sealed capabilities. *)

val with_address_unsealed : t -> int -> t
(** [with_address] for callers that have already established the
    capability is unsealed — e.g. immediately after a successful
    [check_access], which rejects sealed capabilities.  Skips the seal
    check and the [result] wrapper on the interpreter's per-instruction
    path.  Identical to [with_address] on unsealed inputs. *)

val incr_address : t -> int -> (t, violation) result

val set_bounds : t -> length:int -> (t, violation) result
(** [CSetBoundsExact]: new base = cursor, new top = cursor + length; must
    be within the old bounds.  Fails on sealed or untagged capabilities. *)

val and_perms : t -> Perm.Set.t -> (t, violation) result
(** Intersect the permission set with a mask. *)

val clear_tag : t -> t

val seal : key:t -> t -> (t, violation) result
(** Seal [t] with the otype designated by [key]'s cursor.  [key] needs the
    [Seal] permission and its cursor in bounds and in the data-otype
    range. *)

val unseal : key:t -> t -> (t, violation) result
(** Inverse of [seal]; [key] needs [Unseal] and cursor = the otype. *)

val seal_entry : t -> Otype.sentry -> (t, violation) result
(** Make a sentry from an executable capability. *)

val unseal_sentry : t -> (t, violation) result
(** Unseal a sentry (the jump instruction's privilege); fails on data
    seals. *)

(* Packed (flat) encoding — see [Superblock.Packed_cap] for the
   register file built on it. *)

val meta : t -> int
(** Fold the non-address fields into one small int: bit 0 = tag,
    bits 1-12 = the permission bitmask, bits 13-16 = the otype code
    (the architectural [CGetType] encoding: 0 unsealed, 1-5 sentries,
    9-15 sealed data).  [of_meta (meta c)] with [c]'s address fields is
    exactly [c] — the bijection the packed register file relies on,
    pinned by QCheck in [test_cap_props]. *)

val of_meta : meta:int -> base:int -> top:int -> cursor:int -> t
(** Inverse of {!meta} plus the three address words.  Total on every
    meta produced by {!meta}; [Invalid_argument] on the unused otype
    codes (6-8) no constructible capability carries. *)

val sentry_code : Otype.sentry -> int
(** The architectural otype encoding ([CGetType]'s result) of a
    sentry. *)

val otype_of_code : int -> Otype.t
(** Decode an architectural otype; [Invalid_argument] on codes 6-8.
    Allocation-free for the unsealed and sentry codes. *)

(* Access checks (used by the memory and the ISA) *)

val check_access :
  perm:Perm.t -> addr:int -> size:int -> t -> (unit, violation) result
(** Validate a [size]-byte access at [addr]: tag set, unsealed, permission
    present, [addr, addr+size) within bounds. *)

val attenuate_loaded : auth:t -> t -> t
(** Deep attenuation applied by the hardware when a capability is loaded
    through [auth] (§2.1): without [Load_mutable] on [auth] the loaded
    capability loses [Store] and [Load_mutable]; without [Load_global] it
    loses [Global] and [Load_global].  Sentries are exempt from
    [Load_mutable] stripping, as in CHERIoT. *)

val attenuate_loaded_perms : Perm.Set.t -> t -> t
(** [attenuate_loaded] given only the authority's permission set (the
    only part of [auth] it reads): [attenuate_loaded ~auth c] is
    [attenuate_loaded_perms (perms auth) c].  Returns its argument
    unchanged when no permission is removed. *)

(* Convenience wrappers used by trusted code where failure is a bug. *)

val exn : (t, violation) result -> t
val with_address_exn : t -> int -> t
val seal_entry_exn : t -> Otype.sentry -> t
