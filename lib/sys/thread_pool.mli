(** The thread-pool compartment (Fig. 5): run work asynchronously on a
    small set of statically-created pool threads.

    Callers [post] a (job id, argument) pair; pool threads block on the
    compartment's futex and execute the handler registered for the id.
    Jobs run in the *pool compartment's* security context with only the
    argument word the caller passed — a caller cannot smuggle
    capabilities into the pool beyond what the job id's handler was
    built to accept. *)

val firmware_compartment : unit -> Firmware.compartment

val worker_thread : name:string -> unit -> Firmware.thread
(** A pool thread declaration (priority 1); include one per desired
    worker. *)

val client_imports : Firmware.import list

type t

val install : Kernel.t -> t
(** Register the pool's entries; at most 16 jobs may be pending. *)

val register : t -> job:int -> (Kernel.ctx -> int -> unit) -> unit
(** Attach the handler for a job id (at integration time). *)

val post : Kernel.ctx -> job:int -> arg:int -> bool
(** Queue a job; false when the queue is full or the id is unknown. *)

val shutdown : Kernel.ctx -> unit
(** Stop the workers once the queue drains (lets the scheduler
    terminate). *)

val completed : t -> int
(** Jobs executed so far. *)
