(** Opaque sealed handles (§3.2.1): how a service compartment hands
    out references to its own state without trusting the holder.

    A handle set belongs to one service.  Its virtual sealing key is
    minted lazily, on the first operation that needs it, through
    {!Allocator.token_key_new} (a one-off, Table 3), so an image that
    never uses the service never pays for the key.  The key lives here,
    not on the kernel, and a [Machine.on_snapshot] capture rewinds it:
    a key minted after a snapshot is forgotten by [restore], and the
    next use mints it again, exactly as on a fresh boot.

    Two layers use the key:
    - sealed objects of any size ({!allocate}, {!unseal}, {!release}),
      allocated with the caller's quota (§3.2.3) under the service's
      virtual type, so only this service can open or free them;
    - id handles ({!mint}, {!open_}): an 8-byte sealed object whose
      first word holds an int id the service maps to its own state.
      A handle from another service or a forged integer opens to
      [None]; a released one is freed memory, so a copy still in a
      register traps on use and a copy reloaded from memory has lost
      its tag and opens to [None]. *)

type t

val create : Machine.t -> t
(** A fresh handle set (no key yet) whose key is captured by the
    machine's snapshots. *)

val allocate :
  t -> Kernel.ctx -> alloc_cap:Kernel.value -> int -> (Kernel.value, Allocator.err) result
(** A sealed object of the given payload size under the service's key,
    charged to [alloc_cap]. *)

val unseal : t -> Kernel.ctx -> Kernel.value -> Kernel.value option
(** The payload capability of one of this service's sealed objects;
    [None] for anything else. *)

val release :
  t -> Kernel.ctx -> alloc_cap:Kernel.value -> Kernel.value -> (unit, Allocator.err) result
(** Free a sealed object (it needs the allocation capability it was
    allocated with, and this service's key). *)

val mint : t -> Kernel.ctx -> alloc_cap:Kernel.value -> int -> Kernel.value option
(** A new id handle holding [id]; [None] if the allocation fails. *)

val open_ : t -> Kernel.ctx -> Kernel.value -> int option
(** The id an id handle holds; [None] if it is not one of this
    service's live handles. *)
