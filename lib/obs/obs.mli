(** Cycle-attributed tracing: the event vocabulary emitted by the
    machine, switcher path, scheduler and allocator; a bounded ring
    buffer of timestamped events; the call-stack {!Tracker} that
    attribution, the {!Profiler} and the {!Forensics} recorder project
    from the stream; and post-run folds into per-compartment cycle
    attribution, Chrome [trace_event] JSON and a flat metrics table.

    Tracing is {e observationally invisible}: emitting an event never
    ticks the clock, touches simulated memory or changes control flow,
    so simulated cycle counts are bit-identical with a sink attached or
    not (enforced by the all-sinks golden-cycles rule in [bench/dune]
    and the QCheck equivalence properties in
    [test/test_obs_props.ml]). *)

(** What happened.  Every constructor names its subsystem of origin
    (see {!source_of}); the cycle stamp lives in {!event}. *)
type kind =
  | Instr_sample of { instret : int }  (** every 1024th retired instruction *)
  | Irq_enter of { irq : int }
  | Irq_exit of { irq : int }
  | Revoker_quantum of { granules : int; next : int }
      (** a sweep quantum that advanced past [granules] granules,
          stopping before granule index [next] *)
  | Revoker_done of { epoch : int }
  | Fault_note of { note : string }  (** fault-engine injection/arming *)
  | Switcher_call of { tid : int }  (** entering the interpreted call leg *)
  | Switcher_return of { tid : int }  (** entering the interpreted return leg *)
  | Switcher_abort of { tid : int }  (** the switcher leg trapped/rejected *)
  | Call_enter of { caller : string; callee : string; entry : string; tid : int }
  | Call_leave of { callee : string; tid : int; faulted : bool }
  | Thread_dispatch of { tid : int; name : string }
  | Thread_block of { tid : int }
  | Thread_wake of { tid : int; reason : string }
  | Sched_idle
  | Futex_wait of { addr : int; tid : int }
  | Futex_wake of { addr : int; woken : int }
  | Alloc of { base : int; size : int }
  | Free of { base : int; size : int }
  | Quarantine of { base : int; size : int }
  | Release of { base : int; size : int }

type event = { cycle : int; kind : kind }

val source_of : kind -> string
(** Emitting subsystem: ["interp"], ["machine"], ["fault"], ["kernel"],
    ["sched"] or ["alloc"]. *)

val detail_of : kind -> string
(** The event's fields, rendered after its source in {!event_line}. *)

val event_line : cycle:int -> kind -> string
(** One fixed-width text line per event — the golden-trace format —
    rendered with one [Printf.sprintf] (no formatter). *)

val pp_event : Format.formatter -> event -> unit
(** Prints {!event_line} of the event. *)

(* Sink: a fixed-capacity ring buffer.  When full, the *oldest* event is
   dropped; newer events are always retained. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 events. *)

val length : t -> int

val total : t -> int
(** Events ever emitted, including dropped ones. *)

val dropped : t -> int
(** [total - length]: oldest events overwritten by newer ones. *)

val emit : t -> cycle:int -> kind -> unit
val clear : t -> unit

val snapshot : t -> unit -> unit
(** [snapshot t] copies the ring (slots + head counter) and returns a
    thunk restoring it in place.  Building block of
    {!Machine.snapshot}. *)

val events : t -> event list
(** Retained events, oldest first (emission order). *)

(** The one call-stack tracker: the per-thread compartment stacks that
    {!attribute}, {!Profiler} and {!Forensics} all project from the
    event stream.  Each thread holds a stack of frames, innermost
    first: a switcher frame per interpreted switcher leg ([Switcher_call]
    and [Switcher_return] push one, [Switcher_abort] pops a top one)
    and a call frame per compartment call ([Call_enter] collapses a top
    switcher frame, then pushes the call; [Call_leave] pops switcher
    frames, then one call).  Every event first charges the cycles since
    the previous one to the live leaf label.

    Labels (callees, thread names, the four fixed labels) are interned
    to small ids, found by pointer before content, so a step neither
    allocates (but to grow an array) nor hashes, and every sink can
    afford to run one on every event. *)
module Tracker : sig
  type call = { caller : string; callee : string; entry : string; cycle : int }
  (** A compartment call frame; [cycle] is when the call entered. *)

  type t

  val create : unit -> t

  val step : t -> cycle:int -> kind -> unit
  (** Charge [(last_cycle, cycle]] to the live leaf, then apply the
      event's transition. *)

  val last_cycle : t -> int
  (** The cycle of the last event stepped (0 before any). *)

  val leaf : t -> string
  (** The label {!attribute} charges now: ["boot"], ["idle"],
      ["switcher"] during a switcher leg, the callee inside a call, or
      ["kernel"] for a thread outside any call. *)

  val key : t -> string
  (** The folded key {!Profiler} charges now: ["boot"], ["idle"], or
      [thread;frame;...;leaf] outermost first, [thread;kernel] for an
      empty stack.  The last frame is always {!leaf}.  Built when first
      asked for after the stack moved. *)

  val thread_name : t -> int -> string option
  (** The first name dispatched for a thread id. *)

  val intern : t -> string -> int
  (** A label's id, stable until a {!snapshot} taken before it was
      first seen is restored; equal strings share one id. *)

  val label : t -> int -> string
  (** The label an id stands for. *)

  val chain : t -> int -> call list
  (** A thread's call frames, innermost first (switcher frames
      omitted), built on each call. *)

  val innermost_cycle : t -> int -> int
  (** The cycle a thread's innermost call entered at; [min_int] when
      the thread is in no call. *)

  val context : t -> int
  (** The label of the compartment the current thread runs in: the
      innermost callee, else the thread's name; ["kernel"] outside any
      thread. *)

  val owner : t -> except:int -> int
  (** The label a heap event on the current thread is charged to: the
      innermost callee other than label [except], else the outermost
      call's caller, else the thread's name; ["kernel"] outside any
      thread. *)

  val totals : t -> total_cycles:int -> (string * int) list
  (** Per-leaf cycle totals with the tail since the last event charged
      up to [total_cycles], sorted by label, zeros elided.  Pure. *)

  val snapshot : t -> unit -> unit
  (** A thunk restoring the tracker in place to its current state. *)
end

(* Post-run folds *)

val attribute : total_cycles:int -> event list -> (string * int) list
(** Per-compartment / per-subsystem cycle totals: the events run through
    a fresh {!Tracker}, whose leaf totals are returned.  Each
    inter-event delta is charged to the context active when it elapsed
    (see {!Tracker.leaf}); the totals (sorted by label, zeros elided)
    sum to exactly [total_cycles] by construction. *)

val to_chrome : event list -> Json.t
(** Chrome [trace_event] JSON ({["traceEvents"]} array, ts = simulated
    cycle, pid 1, tid = thread id): compartment calls become B/E
    duration slices, everything else instant events, thread names as
    metadata records.  Load the output in [chrome://tracing] or
    Perfetto. *)

val metrics : total_cycles:int -> attribution:(string * int) list -> t -> Json.t
(** Flat metrics table: totals, drops, per-source and per-kind event
    counts, allocator byte counters and the given cycle attribution
    (take it from a tracker that saw every event, e.g. the flight
    recorder's, not from a ring that may have dropped some). *)
