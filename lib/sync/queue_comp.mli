(** The message queue *compartment*: {!Sync.Queue_lib} wrapped for
    mutually-distrusting endpoints (§3.2.4).

    Queues are exported as opaque sealed handles (§3.2.1); storage is
    allocated with the *caller's* allocation capability (quota
    delegation, §3.2.3) through the sealed-allocation API, so the caller
    pays for its queue but cannot free it out from under the
    compartment; and every entry hardens its arguments (§3.2.5). *)

val comp_name : string

val firmware_compartment : unit -> Firmware.compartment
(** Declares the queue compartment, including its allocator/token/sched
    imports (visible to auditing). *)

val client_imports : Firmware.import list
(** [Firmware.client_imports] of [firmware_compartment ()]: one import per
    entry, in declaration order. *)

val install : Kernel.t -> unit

type err = Bad_handle | Bad_buffer | Timeout | Alloc of Allocator.err

val pp_err : err Fmt.t

val create :
  Kernel.ctx ->
  alloc_cap:Kernel.value ->
  elem_size:int ->
  capacity:int ->
  (Kernel.value, err) result
(** Returns the opaque queue handle. *)

val send :
  Kernel.ctx -> handle:Kernel.value -> Kernel.value -> ?timeout:int -> unit ->
  (unit, err) result
(** The element is read through the supplied capability ([Perm.Load],
    at least the queue's element size). *)

val recv :
  Kernel.ctx -> handle:Kernel.value -> into:Kernel.value -> ?timeout:int -> unit ->
  (unit, err) result

val destroy :
  Kernel.ctx -> alloc_cap:Kernel.value -> handle:Kernel.value -> (unit, err) result
(** Requires the same allocation capability used at [create]. *)
