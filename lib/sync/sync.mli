(** Thread synchronization shared libraries (§3.2.4), built on the
    scheduler's futex primitive.

    These are shared-library abstractions: the code runs in the caller's
    security domain and all state lives in caller-owned memory (a futex
    word the caller provides — typically a private compartment global or
    a heap allocation).  The scheduler can deny wakeups (availability)
    but cannot forge the lock word (integrity), matching the paper's
    trust argument.

    Atomic read-modify-write sequences are modelled by briefly disabling
    interrupts, as embedded cores without LL/SC do. *)

(** Futex-based sleeping mutex: 0 = free, 1 = locked, 2 = contended. *)
module Mutex : sig
  val init : Kernel.ctx -> word:Kernel.value -> unit

  val lock : Kernel.ctx -> word:Kernel.value -> ?timeout:int -> unit -> bool
  (** Returns false on timeout (timeout in cycles; 0 = wait forever). *)

  val try_lock : Kernel.ctx -> word:Kernel.value -> bool
  val unlock : Kernel.ctx -> word:Kernel.value -> unit
  val with_lock : Kernel.ctx -> word:Kernel.value -> (unit -> 'a) -> 'a
end

(** Counting semaphore in one word. *)
module Semaphore : sig
  val init : Kernel.ctx -> word:Kernel.value -> int -> unit
  val acquire : Kernel.ctx -> word:Kernel.value -> ?timeout:int -> unit -> bool
  val release : Kernel.ctx -> word:Kernel.value -> unit
  val value : Kernel.ctx -> word:Kernel.value -> int
end

(** Condition variable over a futex word, used with {!Mutex}:
    [wait] atomically releases the mutex and sleeps; [signal] wakes
    one waiter, which re-acquires the mutex before returning. *)
module Condvar : sig
  val init : Kernel.ctx -> word:Kernel.value -> unit

  val wait :
    Kernel.ctx -> word:Kernel.value -> mutex:Kernel.value -> ?timeout:int -> unit -> bool
  (** Returns false on timeout; the mutex is held again either way. *)

  val signal : Kernel.ctx -> word:Kernel.value -> unit
end

(** Event flags: wait for any/all bits of a 32-bit word. *)
module Event : sig
  val set : Kernel.ctx -> word:Kernel.value -> int -> unit
  (** OR bits in and wake all waiters. *)

  val wait :
    Kernel.ctx ->
    word:Kernel.value ->
    mask:int ->
    ?all:bool ->
    ?timeout:int ->
    unit ->
    int option
  (** Block until (any|all of) [mask] is set; returns the satisfying
      value, or None on timeout. *)
end

(** Message queue in a caller-provided buffer; usable as-is between
    threads that trust each other (the library flavour of §3.2.4).
    Layout: capacity, element size, head and tail counters (the futex
    words), then the ring storage. *)
module Queue_lib : sig
  val bytes_needed : elem_size:int -> capacity:int -> int

  val init : Kernel.ctx -> buf:Kernel.value -> elem_size:int -> capacity:int -> unit
  (** Raises [Invalid_argument] if [buf] is too small. *)

  val send :
    Kernel.ctx -> buf:Kernel.value -> Kernel.value -> ?timeout:int -> unit -> bool
  (** Copy one element (read through the given capability) into the
      queue; blocks while full. *)

  val recv :
    Kernel.ctx -> buf:Kernel.value -> into:Kernel.value -> ?timeout:int -> unit -> bool
  (** Copy the oldest element out through [into]; blocks while empty. *)

  val length : Kernel.ctx -> buf:Kernel.value -> int
end
