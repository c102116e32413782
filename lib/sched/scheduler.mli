(** The scheduler compartment (§3.1.4): scheduling policy, the
    least-privilege futex primitive, multi-futex waiting, interrupt
    futexes and idle-time accounting.

    The scheduler is trusted for availability only: it never sees the
    contents of the futex words beyond the comparison it is asked to
    perform, and the capabilities it receives require only [Perm.Load].
    Waiters are the kernel's suspended threads; waking is O(waiters).

    All client functions are real compartment calls into the "sched"
    compartment. *)

val firmware_compartment : unit -> Firmware.compartment

val client_imports : Firmware.import list
(** What a client compartment imports for the futex APIs:
    [Firmware.client_imports] of [firmware_compartment ()]. *)

type t

val install : Kernel.t -> t
(** Register the scheduler's entries and hook the interrupt lines.  The
    interrupt-futex words live in the scheduler's globals. *)

val check_sanity : t -> (unit, string) result
(** Wait-queue structural invariants: no retained empty waiter lists,
    every waited-on word is a mapped address (fault-campaign check). *)

(* Client API *)

val futex_wait :
  Kernel.ctx ->
  word:Kernel.value ->
  expected:int ->
  ?timeout:int ->
  unit ->
  [ `Woken | `Timed_out | `Value_changed ]
(** Compare-and-wait (§3.2.4): atomically sleep if the 32-bit word that
    [word] points to equals [expected].  [word] needs only [Perm.Load].
    [timeout] is in cycles. *)

val futex_wake : Kernel.ctx -> word:Kernel.value -> count:int -> int
(** Wake up to [count] waiters; returns the number woken. *)

val multiwait :
  Kernel.ctx ->
  events:(Kernel.value * int) list ->
  ?timeout:int ->
  unit ->
  [ `Fired of int | `Timed_out ]
(** Block until any of the (futex word, expected) pairs no longer
    matches, or one is woken (§3.2.4 multiwaiter).  Returns the index of
    the event that fired.  The event set travels through a caller-owned
    buffer, as on the real system. *)

val interrupt_futex : Kernel.ctx -> irq:int -> Kernel.value
(** A read-only capability to a word incremented at every delivery of
    the given interrupt; wait on it with {!futex_wait} to be woken by
    the interrupt (used by drivers and by the Fig. 6a latency bench). *)
