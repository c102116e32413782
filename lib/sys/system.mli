(** System assembly: the standard CHERIoT RTOS "distribution".

    Bundles the TCB and service compartments (allocator + token library,
    scheduler, message-queue compartment) into a firmware image together
    with application compartments, boots the kernel and installs every
    service — the one-stop entry point used by the examples and
    benches. *)

type t = {
  kernel : Kernel.t;
  machine : Machine.t;
  alloc : Allocator.t;
  sched : Scheduler.t;
}

val base_compartments : unit -> Firmware.compartment list
(** allocator, token library, scheduler, queue compartment. *)

val standard_imports : Firmware.import list
(** Heap + token + futex + queue imports for an application
    compartment. *)

val image :
  ?sealed_objects:Firmware.static_sealed list ->
  ?threads:Firmware.thread list ->
  name:string ->
  Firmware.compartment list ->
  Firmware.t
(** Application compartments plus {!base_compartments}. *)

val boot :
  ?machine:Machine.t ->
  ?drain_per_op:int ->
  Firmware.t ->
  (t, string) result
(** Boot the image and install the allocator, scheduler and queue
    compartment implementations. *)

val run : ?until_cycles:int -> t -> unit
