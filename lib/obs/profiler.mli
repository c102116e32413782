(** Deterministic sampling profiler riding the {!Obs} event stream.

    A [Profiler.t] is a projection of an {!Obs.Tracker}: it charges
    every inter-event interval to the tracker's folded key (thread
    name, then the compartment call stack outermost first) and
    accumulates {e folded-stack} weights — the input format of
    [flamegraph.pl] and speedscope.  Two modes:

    - {e exact attribution} ([Exact], the default): every inter-event
      cycle delta is charged to the folded stack that was live during
      it, so the total weight partitions [Machine.cycles] exactly —
      the flamegraph is the {!Obs.attribute} fold with full stack
      context, and the per-leaf sums equal its totals label for label;
    - {e sampling} ([Sampled n]): one sample is taken at every
      simulated cycle divisible by [n] (deterministically — the sample
      clock is the simulated clock, never the host's), so the total
      weight is [total_cycles / n].

    Folded keys are [;]-separated frames, outermost first:
    ["boot"] and ["idle"] for the scheduler contexts, and
    [thread;compartment;...;leaf] inside a thread, where the leaf is
    ["switcher"] during a domain transition, the innermost compartment
    during a call, or ["kernel"] when the thread runs outside any
    compartment call (see {!Obs.Tracker.key}).

    Like the trace ring and the flight recorder, the profiler is
    {e observationally invisible}: ingestion never ticks the clock,
    touches simulated memory or feeds back into control flow (enforced
    by the all-sinks golden-cycles rule in [bench/dune] and the QCheck
    property in [test/test_obs_props.ml]), and it is
    snapshot/restore-safe ({!snapshot}, exercised by
    [test/test_snapshot_equiv.ml]).  [CHERIOT_OBS=profile] attaches an
    exact profiler to every new machine (see [Machine]). *)

type mode =
  | Exact  (** charge every cycle delta; total weight = total cycles *)
  | Sampled of int  (** one sample per [n] simulated cycles, [n >= 2] *)

type t

val create : ?mode:mode -> unit -> t
(** A fresh profiler (default [Exact]). *)

val mode : t -> mode

val ingest : t -> cycle:int -> Obs.kind -> unit
(** Fold one event into the profiler.  Called by [Machine.emit] for
    every traced event; must stay cheap and simulation-invisible. *)

val snapshot : t -> unit -> unit
(** [snapshot t] deep-copies the full profile state (folded counts and
    the tracker: stacks, scheduler context, charge cursor) and returns a
    thunk restoring it in place.  Building block of
    {!Machine.snapshot}. *)

val folded : t -> total_cycles:int -> (string * int) list
(** The folded-stack weights at [total_cycles], sorted by key.  Pure:
    the tail interval since the last event is charged into the result,
    not into the profiler, so the profiler can keep running. *)

val total_weight : t -> total_cycles:int -> int
(** Sum of all folded weights: exactly [total_cycles] in [Exact] mode,
    [total_cycles / n] in [Sampled n] mode. *)

val to_folded_text : t -> total_cycles:int -> string
(** One ["stack count"] line per folded key, sorted — the input format
    of [flamegraph.pl] / speedscope. *)

val to_json : t -> total_cycles:int -> Json.t
(** Self-contained profile: mode, interval, total cycles/weight and the
    folded stacks with their frame lists. *)
