(** Fleet-grade metrics aggregation: deterministic merging of
    per-machine {!Forensics} snapshots across farm workers.

    A campaign or attack matrix runs hundreds of machines across
    [Farm] domains; each worker's flight recorder holds per-compartment
    counters and log2 histograms for {e its} machines only.  [Agg]
    turns each recorder into an immutable {!t} snapshot and merges
    snapshots in {e submission order} — the same order [Farm.map_list]
    returns results in — so the fleet rollup is byte-identical for
    every [--jobs] value (pinned by the fleet-metrics diffs in
    [make campaign-par] / [make attack-smoke]).

    Merging is exact, not approximate: counters add and log2 histograms
    merge loss-free ({!Forensics.hist_merge}), so
    [merge_all (List.map of_forensics workers)] equals the snapshot of
    one recorder that had ingested every worker's stream.  Rendered as
    a fixed-width table, self-contained JSON, or OpenMetrics /
    Prometheus text exposition ([bench -- metrics --openmetrics]). *)

type comp = {
  ac_comp : string;
  ac_calls : int;
  ac_faults : int;
  ac_reboots : int;
}

type t = {
  ag_machines : int;  (** machines folded into this snapshot *)
  ag_cycles : int;  (** summed simulated cycles across them *)
  ag_comps : comp list;  (** sorted by compartment name *)
  ag_call_lat : Forensics.hist;  (** compartment-call latency, cycles *)
  ag_irq_lat : Forensics.hist;  (** IRQ-entry → dispatch, cycles *)
  ag_alloc_sz : Forensics.hist;  (** allocation size, bytes *)
  ag_quar_res : Forensics.hist;  (** quarantine residency, cycles *)
}

val empty : unit -> t
(** The merge identity: zero machines, zero cycles, empty histograms. *)

val of_forensics : Forensics.t -> cycles:int -> t
(** Snapshot one machine's recorder ([cycles] = its [Machine.cycles]).
    Pure: the recorder is copied, not aliased, so it can keep running. *)

val merge_all : t list -> t
(** Exact union, folded left over the list in order from [empty ()]
    (associative and commutative; inputs are not mutated) — callers pass
    worker snapshots in farm submission order for byte-identical
    rollups. *)

val table : t -> string
(** Fixed-width fleet rollup: per-compartment counters, then the four
    global histograms. *)

val to_openmetrics : t -> string
(** OpenMetrics / Prometheus text exposition: gauges for machine and
    cycle totals, per-compartment counters with [compartment] labels,
    and the four histograms with cumulative [le] buckets, terminated
    by [# EOF]. *)
