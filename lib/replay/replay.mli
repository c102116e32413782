(** Deterministic input journals: record the machine's cycle-stamped
    input stream (IRQ raises, injected net frames, fault-engine
    injections), then replay the same workload under a verifying
    handler that fails fast at the first mismatch.

    The simulation is a pure function of its inputs, so two runs of the
    same workload are bit-identical iff their journals are.  Recording
    and verifying are observationally invisible — handlers never tick
    the clock or touch simulated memory — so an observed run and an
    unobserved run take identical trajectories ([test_replay] pins
    this). *)

type entry = { e_cycle : int; e_payload : string }

type error =
  | Divergence of { index : int; expected : entry; got : entry }
      (** the run produced a different input than the journal recorded *)
  | Truncated of { index : int; got : entry }
      (** the run produced an input after the journal's last entry — a
          cut-short journal file is reported cleanly, not as a spurious
          divergence *)
  | Excess of { index : int; remaining : int }
      (** the run ended with journal entries still unconsumed *)

exception Replay_error of error

val entry_to_string : entry -> string
val error_to_string : error -> string

(* Sessions *)

type t

val record : Machine.t -> t
(** Install a recording handler.  Raises [Invalid_argument] if the
    machine already has one. *)

val verify : Machine.t -> entry list -> t
(** Install a verifying handler over a recorded journal: every input the
    run produces is checked (cycle and payload) against the next journal
    entry, raising {!Replay_error} on the first mismatch. *)

val recorded : t -> entry list
(** The entries recorded so far, oldest first (recording sessions
    only). *)

val matched : t -> int
(** Entries matched (verify) or recorded (record) so far. *)

val finish : t -> unit
(** Detach the handler.  A verifying session additionally requires the
    journal to be fully consumed, raising [Replay_error (Excess _)]
    otherwise. *)

(* Persistence: a header line ("cheriot-replay 1 <workload…>"), then one
   "<cycle> <payload>" line per entry. *)

val save : string -> header:string -> entry list -> unit
val load : string -> (string * entry list, string) result
(** The header and entries of a journal file.  [Error] (never an
    exception) when the file cannot be read, has bad magic or has a
    malformed line; the message names the file, and the line where
    there is one. *)

(* Divergence bisection *)

val first_divergence :
  entry list -> entry list -> (int * entry option * entry option) option
(** Index of the first differing entry between two journals, with both
    sides' entries at that index ([None] side = journal ended). *)

val first_divergent_window :
  window:int -> entry list -> entry list -> (int * entry list * entry list) option
(** Compare two journals cycle-window by cycle-window: the index of the
    first window (of [window] simulated cycles) in which they differ,
    with each journal's entries inside that window.  Made for comparing
    journals of two builds, where one early skew shifts every later
    cycle stamp and an entry-by-entry diff would flag them all. *)

val divergence_report : entry list -> entry list -> string option
(** Human-readable rendering of {!first_divergent_window} over windows
    of 10000 cycles; [None] when the journals are identical. *)
