(** Domain-parallel work farm for independent deterministic simulations.

    Used by the fault campaign, the attack matrix and the fig6b revoker
    sweep to fan independent runs across OCaml 5 domains.  The
    guarantees callers build their determinism on:

    - Results are returned in task-submission order, independent of
      completion order across domains.
    - [jobs = 1] (or a single task) performs no domain operations at all:
      tasks run sequentially in the calling domain, preserving the exact
      pre-farm execution path.
    - If any task raises, the exception from the lowest-indexed failing
      task is re-raised (with its backtrace) after all workers finish.

    Tasks must be self-contained — each builds its own {!Machine} and
    everything reachable from it, returns a value, and never prints.
    Printing happens in the caller, after the merge, in task order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val run : ?jobs:int -> (unit -> 'a) array -> 'a array
(** [run ~jobs tasks] executes every thunk and returns their results in
    submission order.  At most [min jobs (Array.length tasks)] domains
    run concurrently (the calling domain participates as a worker).
    [jobs] defaults to {!default_jobs}; values [< 1] are clamped to 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] = [run ~jobs] over [fun () -> f x]. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}; results in input order. *)

val chunks : jobs:int -> 'a list -> 'a list list
(** [chunks ~jobs xs] cuts [xs] into at most [max 1 jobs] contiguous,
    non-empty chunks of near-equal length, in order ([List.concat]
    gives [xs] back).  Fleets that fork every task from one shared
    post-boot image farm one chunk per domain. *)
