(** The shared heap allocator (§3.1.3) and the token API (§3.2.1).

    The allocator is a TCB compartment trusted for heap memory safety
    only.  It manages a single shared heap with:

    - spatial safety: returned capabilities are bounded exactly to the
      allocation;
    - temporal safety: [free] sets the revocation bits of the object (the
      load filter makes dangling pointers unusable immediately) and
      quarantines the memory until a full revocation sweep has completed;
    - quotas: allocation rights are embodied by *allocation capabilities*
      — sealed objects carrying a quota (§3.2.2), delegatable to let a
      callee allocate on a caller's behalf (§3.2.3);
    - claims: a compartment can pin an object it was passed so that the
      owner cannot free it mid-use (TOCTOU hardening, §3.2.5); ephemeral
      claims use the kernel's per-thread hazard slots;
    - zeroing: the heap is zeroed at boot and objects are zeroed in
      [free], so no data leaks through reuse.

    As in the CHERIoT RTOS, the token API (virtual sealing over the
    single reserved hardware otype) is implemented by the allocator
    compartment: {!token_unseal}, {!token_key_new} and
    {!allocate_sealed}.

    All client-facing functions ([allocate], [free], ...) are wrappers
    that perform real compartment calls into the allocator compartment,
    so their cycle costs include the switcher crossing — the effect that
    dominates Fig. 6b's small-allocation regime. *)

type err =
  | No_memory
  | Quota_exceeded
  | Bad_capability  (** not a valid allocation capability / heap pointer *)
  | Claims_held  (** freed object still has claims or ephemeral claims *)
  | Wrong_key

val err_code : err -> int
val err_of_code : int -> err option
val pp_err : err Fmt.t

val firmware_compartment : unit -> Firmware.compartment
(** The allocator's firmware declaration (entries with arities/stack). *)

val firmware_token_lib : unit -> Firmware.compartment
(** The token shared library's firmware declaration. *)

val client_imports : Firmware.import list
(** What a client compartment imports to use the heap and the token API:
    [Firmware.client_imports] of the allocator's declaration, then of the
    token library's. *)

val alloc_capability : name:string -> quota:int -> Firmware.static_sealed
(** Declare a static allocation capability with the given quota.  Import
    it with [Firmware.Static_sealed {target = name}]. *)

type t
(** Runtime state of the installed allocator. *)

val install : Kernel.t -> ?drain_per_op:int -> unit -> t
(** Register the allocator's entry implementations.  The heap is the
    region the loader reserved ([heap_base..heap_limit]).
    [drain_per_op] is the number of quarantine entries examined per
    malloc/free (paper: a small constant > 1 so quarantine drains;
    default 2 — the ablation knob). *)

(* Introspection (used by benches and tests; not compartment calls) *)

val heap_size : t -> int

val heap_bounds : t -> int * int
(** [(heap_base, heap_limit)] — the address span the allocator manages. *)
val quarantined_bytes : t -> int
val live_allocations : t -> int

val live_payload_regions : t -> (int * int) list
(** [(payload base, size)] of every live allocation, in address order —
    the target set for in-compartment memory-fault injection. *)

val heap_chunks : t -> (int * int * [ `Free | `Live | `Quarantined ]) list
(** Walk the heap: [(header address, payload size, state)] per chunk in
    address order.  Raises [Failure] on a structurally broken heap. *)

val check_integrity : t -> (unit, string) result
(** Audit the allocator against the heap it manages: the chunk chain
    tiles the heap exactly, the free list is acyclic and complete, every
    live chunk has a referenced allocation-table entry, and quarantine
    accounting matches.  Uncharged (does not advance the clock). *)

val check_quota_conservation :
  t -> quotas:(string * int) list -> (unit, string) result
(** For each [(label, quota payload address)], check the recorded [used]
    counter equals the bytes charged by live references — quotas neither
    leak nor double-refund (§3.2.2 conservation). *)

val set_oom_hook : t -> (size:int -> bool) option -> unit
(** Fault injection: when the hook returns [true] for an allocation, the
    allocator fails the request with [No_memory] exactly as if the heap
    were exhausted (no quota is charged).  Used to exercise caller OOM
    paths deterministically. *)

(* Client API: real compartment calls into the allocator. *)

val allocate :
  Kernel.ctx -> alloc_cap:Kernel.value -> int -> (Kernel.value, err) result
(** [allocate ctx ~alloc_cap size]: a zeroed, exactly-bounded read-write
    capability.  May stall for a revocation pass when memory is short. *)

val free :
  Kernel.ctx -> alloc_cap:Kernel.value -> Kernel.value -> (unit, err) result
(** Release one reference held under [alloc_cap] (the allocation itself
    or a claim).  The memory is revoked + quarantined when the last
    reference dies.  Fails if the capability does not match an
    allocation owned by this quota, or if ephemeral claims are held. *)

val claim :
  Kernel.ctx -> alloc_cap:Kernel.value -> Kernel.value -> (unit, err) result
(** Pin an object against freeing, charged to [alloc_cap]'s quota. *)

val free_all : Kernel.ctx -> alloc_cap:Kernel.value -> (int, err) result
(** Free every reference of this quota (micro-reboot step 3, §3.2.6).
    Returns the number of references released. *)

val quota_remaining : Kernel.ctx -> alloc_cap:Kernel.value -> (int, err) result

(* Token API (§3.2.1) *)

val token_key_new : Kernel.ctx -> (Kernel.value, err) result
(** A fresh virtual sealing key (dynamic virtual type). *)

val allocate_sealed :
  Kernel.ctx ->
  alloc_cap:Kernel.value ->
  key:Kernel.value ->
  int ->
  (Kernel.value, err) result
(** Allocate a sealed object of the given payload size under [key]'s
    virtual type.  Only the allocator can free it, and only via a free
    with both the matching allocation capability and key — the quota
    delegation defence of §3.2.3. *)

val token_unseal :
  Kernel.ctx -> key:Kernel.value -> Kernel.value -> (Kernel.value, err) result
(** Unseal a (static or dynamic) sealed object: checks the key's
    [Unseal] permission and that its cursor equals the object's virtual
    type; returns a capability to the payload. *)

val free_sealed :
  Kernel.ctx ->
  alloc_cap:Kernel.value ->
  key:Kernel.value ->
  Kernel.value ->
  (unit, err) result
