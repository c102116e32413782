(** CHERIoT capability permissions (§2.1 of the paper).

    A permission set is an immutable bitmask.  Derivation may only remove
    permissions, never add them; this module provides the set algebra and
    the conventional named combinations used by the RTOS. *)

type t =
  | Global  (** may be stored through any store-capable capability *)
  | Load  (** read data through this capability *)
  | Store  (** write data through this capability *)
  | Mem_cap  (** load/store of capabilities (MC) *)
  | Load_global  (** loaded capabilities keep [Global] (deep no-capture off) *)
  | Load_mutable  (** loaded capabilities keep [Store] (deep immutability off) *)
  | Store_local  (** may store non-[Global] capabilities (stacks only) *)
  | Execute  (** may be installed as program counter capability *)
  | System_registers  (** access to special registers (switcher only) *)
  | Seal  (** authorises [Capability.seal] for otypes in bounds *)
  | Unseal  (** authorises [Capability.unseal] for otypes in bounds *)
  | User0  (** software-defined permission (used for allocator rights) *)

val bit : t -> int
(** Bit index of a permission in the ISA immediate encoding. *)

val of_bit : int -> t option
(** Inverse of {!bit}; [None] for unused bit positions. *)

val pp : t Fmt.t
val to_string : t -> string

(** Immutable permission sets. *)
module Set : sig
  type perm := t
  type t

  val empty : t
  val universe : t  (** all permissions (the root set) *)

  val of_list : perm list -> t
  val to_list : t -> perm list
  val mem : perm -> t -> bool
  val add : perm -> t -> t
  val remove : perm -> t -> t
  val inter : t -> t -> t
  val subset : t -> t -> bool
  val equal : t -> t -> bool

  val to_string : t -> string
  (** The names concatenated in bit order. *)

  val to_bits : t -> int
  (** Encode as the ISA's immediate bitmask. *)

  val of_bits : int -> t
  (** Decode an ISA immediate bitmask (unknown bits ignored). *)

  val read_only : t
  (** [Load] + [Mem_cap] + [Load_global]: transitively read-only data. *)

  val read_write : t
  (** Data and capability load/store, global, deep-mutable. *)

  val executable : t
  (** Code: execute, load, cap-load, globals reachable. *)

  val stack : t
  (** Stack memory: read/write plus [Store_local], not [Global]. *)

  val sealing : t
  (** [Seal] + [Unseal]. *)
end
