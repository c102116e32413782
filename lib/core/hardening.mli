(** Interface-hardening APIs (§3.2.5): check inputs that cross trust
    boundaries and de-privilege capabilities before sharing them.

    These are cheap library operations (Table 3: check a pointer 4.4
    cycles, de-privilege < 10 cycles): they compile to a handful of
    capability instructions. *)

val check_pointer :
  Kernel.ctx ->
  ?perms:Perm.Set.t ->
  ?min_length:int ->
  Kernel.value ->
  bool
(** Is the value a tagged, unsealed capability with (at least) the given
    permissions and length?  Callees use this to vet pointer arguments
    instead of trapping on first use. *)

val deprivilege :
  Kernel.ctx -> ?length:int -> perms:Perm.Set.t -> Kernel.value -> Kernel.value
(** Tighten a capability before sharing it: intersect permissions and
    optionally narrow the bounds to [length] bytes at the cursor.
    Returns NULL (untagged) if the capability cannot be narrowed —
    callers should check. *)

val read_only : Kernel.ctx -> Kernel.value -> Kernel.value
(** Drop write permissions, keeping deep readability. *)

val immutable : Kernel.ctx -> Kernel.value -> Kernel.value
(** Deeply immutable view: removes [Store] and [Load_mutable], so
    nothing reachable through the result can be modified (§2.1). *)

val no_capture : Kernel.ctx -> Kernel.value -> Kernel.value
(** Deep no-capture view: removes [Global] and [Load_global], so the
    callee cannot store the capability (or anything loaded through it)
    beyond the call (§2.1, used to protect allocation capabilities in
    quota delegation, §3.2.3). *)

val claim_arg :
  Kernel.ctx -> Kernel.value -> unit
(** Ephemeral claim (§3.2.5): protect a checked argument against a
    concurrent free for the duration of this call. *)
