(** Seeded stress-test campaigns over the fault-injection engine.

    Each scenario runs on a freshly booted machine (in {!run}, an
    identical fork of one) with the network world and a
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
  oc_trace : (int * string) list;
      (** the engine's fault history, [(cycle, note)] oldest first
          ({!Fault_inject.trace}); {!Fault_inject.trace_line} renders an
          entry as the line a violation report prints *)
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
  ?trace:Obs.t ->
  ?prepare:(Machine.t -> unit) ->
  seed:int ->
  unit ->
  outcome
(** One scenario on a freshly booted machine: the reference every
    forked {!run} scenario is checked against (test_farm,
    test_fault_campaign), and the path seed replay takes (bench
    [crashdump], [replay]).  Everything derives from [seed]; the driver
    runs a fixed 60 iterations.  [trace] attaches an event ring to the
    scenario's machine before boot.  Every scenario carries a
    {!Forensics} flight recorder, which [Machine.emit] feeds with or
    without a ring (both are observationally invisible, so the outcome
    is unchanged).  [prepare] runs on the freshly created machine before
    anything else touches it — the hook the replay tooling uses to
    attach a recording or verifying input-journal session covering the
    whole scenario, boot included. *)

val run : ?jobs:int -> base_seed:int -> n:int -> unit -> int * outcome list
(** Run seeds [base_seed .. base_seed + n - 1]; returns the number of
    scenarios with violations (0 = campaign passed) and every outcome.
    Violations are printed with their seed and full fault trace.

    The seeds are cut into at most [jobs] contiguous chunks
    ({!Farm.chunks}), farmed across that many domains ({!Farm.map_list};
    default 1: sequential, no domain operations).  Each chunk boots one
    image, takes a {!Machine.snapshot} after boot, and forks every
    scenario from it with [restore] + {!Fault_inject.reseed}.  Every
    outcome equals {!run_scenario}'s for the same seed, field for field
    (pinned by test_farm at jobs 1, 2 and 4), and outcomes and all
    printing stay in seed order, so the output is byte-identical for
    every job count. *)
