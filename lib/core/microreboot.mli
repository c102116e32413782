(** Micro-reboot orchestration (§3.2.6).

    The paper's most complex recovery entails five steps, each backed by
    a dedicated API:

    1. prevent new threads from entering the compartment (the kernel's
       poison guard);
    2. rewind/wake all threads currently blocked inside it (caller-
       provided: wake the futexes they sleep on);
    3. release all heap data owned by the compartment's quota
       ({!Allocator.free_all} — passed in as a closure so this module
       stays allocator-agnostic);
    4. reset globals from the boot-time snapshot
       ({!Kernel.restore_globals}) and caller-provided state reset;
    5. reopen the compartment.

    Components that need state to survive reboots keep it in a separate
    state-store compartment, exactly as the paper prescribes. *)

type steps = {
  wake_blocked : unit -> unit;
      (** step 2: make every thread blocked inside the compartment
          observe a dead object / closed handle when it resumes *)
  release_heap : unit -> unit;  (** step 3 *)
  reset_state : unit -> unit;  (** step 4, beyond the globals snapshot *)
}

val perform : Kernel.ctx -> comp:string -> steps -> unit
(** Run the five steps from inside the compartment's error handler:
    poison, wake, release, restore globals + reset, charge the reset
    latency, record the reboot ({!Kernel.note_reboot}: the count, the
    flight recorder's mark and the kernel's reboot hook), unpoison. *)

(* Repeat-attack mitigation (§5.1.2): error handlers maintain
   availability, but an attacker who can trigger traps repeatedly could
   force a victim to spend all its cycles micro-rebooting.  The paper
   points at Gecko's shadow compartments; the rate limiter below is the
   simplest version of that defence: past a reboot budget within a time
   window, the compartment stays offline (poisoned) instead of
   thrashing, turning a CPU-exhaustion attack into a contained outage
   detectable by a watchdog. *)

val set_rate_limit :
  Kernel.t -> comp:string -> max_reboots:int -> window:int -> unit
(** Allow at most [max_reboots] within any [window] cycles; beyond that
    {!perform} leaves the compartment poisoned. *)

val is_locked_out : Kernel.t -> comp:string -> bool
(** Did the rate limiter trip? *)

val clear_lockout : Kernel.t -> comp:string -> unit
(** Operator/watchdog action: reopen the compartment and reset the
    budget. *)
