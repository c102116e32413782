(** Seeded stress-test campaigns over the fault-injection engine.

    Each scenario boots a fresh machine with the network world and a
    three-compartment firmware image (a driver, a crashable service
    with its own heap quota and a micro-rebooting error handler, and a
    noise thread on the futex paths), arms the engine, runs a mixed
    workload under fire, then disarms and audits:

    - allocator structural integrity ({!Allocator.check_integrity});
    - quota conservation across crashes and micro-reboots
      ({!Allocator.check_quota_conservation});
    - kernel and scheduler run-queue sanity;
    - capability provenance: no stored capability anywhere in memory
      gained authority (outside SRAM/MMIO, or into the heap but outside
      a live allocation, or with excess permissions);
    - availability: the service answers again after the campaign.

    Scenarios are pure functions of their seed; a violating seed
    replays the identical fault trace. *)

type outcome = {
  oc_seed : int;
  oc_cycles : int;  (** simulated cycles the scenario ran *)
  oc_faults : int;  (** fault decisions the engine took *)
  oc_reboots : int;  (** micro-reboots of the service *)
  oc_svc_ok : int;
  oc_svc_err : int;  (** service calls that failed under fire *)
  oc_probe_ok : bool;  (** the service answered after disarming *)
  oc_violations : string list;  (** empty = all invariants held *)
  oc_trace : string list;  (** the engine's fault history *)
  oc_dumps : Forensics.dump list;
      (** flight-recorder crash dumps, oldest first — one per injected
          crash (enforced as a campaign invariant, along with every dump
          blaming the injected target) *)
  oc_metrics : Agg.t;
      (** this scenario's metrics snapshot (per-compartment counters +
          histograms); [Agg.merge_all] over outcomes in submission
          order gives the fleet rollup, byte-identical at any [--jobs] *)
}

val iters : default:int -> int
(** Scenario count for the current run: [FAULT_CAMPAIGN_ITERS] from the
    environment when set to a positive integer, else [default]. *)

val run_scenario :
  ?steps:int ->
  ?trace:Obs.t ->
  ?prepare:(Machine.t -> unit) ->
  ?from_snapshot:bool ->
  seed:int ->
  unit ->
  outcome
(** One scenario.  [steps] is the driver's iteration count (default
    60); everything else derives from [seed].  [trace] attaches an
    event ring to the scenario's machine before boot.  Every scenario
    carries a {!Forensics} flight recorder, which [Machine.emit] feeds
    with or without a ring (both are observationally invisible, so the
    outcome is unchanged).  [prepare] runs on the freshly created
    machine before anything else touches it — the hook the replay tooling uses to
    attach a recording or verifying input-journal session covering the
    whole scenario, boot included.  [from_snapshot] (default false)
    replays the seed exactly the way {!run} with [~from_snapshot:true]
    ran it: snapshot the post-boot image, restore, reseed, then run —
    so a crash observed in a snapshot-mode campaign reproduces
    bit-exactly by construction (regression-pinned by
    test_fault_campaign). *)

val run :
  ?verbose:bool ->
  ?steps:int ->
  ?jobs:int ->
  ?from_snapshot:bool ->
  base_seed:int ->
  n:int ->
  unit ->
  int * outcome list
(** Run seeds [base_seed .. base_seed + n - 1]; returns the number of
    scenarios with violations (0 = campaign passed) and every outcome.
    Violations are printed with their seed and full fault trace.

    [jobs] farms scenarios across that many domains ({!Farm.run});
    outcomes and all printing stay in seed order, so the output is
    byte-identical for every job count.  Default 1 (sequential, no
    domain operations).

    [from_snapshot] (default false) builds one post-boot image per
    domain, takes a {!Machine.snapshot}, and forks every scenario from
    it with [restore] + {!Fault_inject.reseed} instead of rebooting.
    Outcomes and output are byte-identical to the from-scratch path for
    every job count (pinned by test_farm); only the wall clock drops. *)
