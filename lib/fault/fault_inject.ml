(* The seeded fault-injection engine.  Every fault the engine ever
   injects is decided by draws from one [Random.State] created from the
   campaign seed, and the simulation underneath is deterministic, so a
   scenario replays byte-for-byte from its seed alone.

   Faults fall in two classes:

   - *immediate* faults applied from the machine's tick listener the
     moment they are drawn: tag clears and bit flips in live heap
     payloads, spurious interrupts, interrupt storms, timer skew;
   - *armed* faults that prime a decision point consulted later by a
     hook wired into the relevant subsystem: allocator OOM, compartment
     crash-on-call, and the per-frame network chaos queue.

   The trace records both the arming and the delivery of every fault
   with the cycle count, so a violating run prints an exact, replayable
   fault history. *)

type net_fault = Net_drop | Net_corrupt | Net_duplicate | Net_reorder

type kind =
  | Tag_clear
  | Bit_flip
  | Spurious_irq
  | Irq_storm
  | Timer_skew
  | Oom
  | Net of net_fault
  | Crash

let kind_name = function
  | Tag_clear -> "tag_clear"
  | Bit_flip -> "bit_flip"
  | Spurious_irq -> "spurious_irq"
  | Irq_storm -> "irq_storm"
  | Timer_skew -> "timer_skew"
  | Oom -> "oom"
  | Net Net_drop -> "net_drop"
  | Net Net_corrupt -> "net_corrupt"
  | Net Net_duplicate -> "net_duplicate"
  | Net Net_reorder -> "net_reorder"
  | Crash -> "crash"

(* Mixed-fault default: memory corruption dominates (it is the paper's
   central adversary), with everything else sprinkled in. *)
let default_weights =
  [
    (Tag_clear, 3);
    (Bit_flip, 3);
    (Spurious_irq, 2);
    (Irq_storm, 1);
    (Timer_skew, 2);
    (Oom, 2);
    (Net Net_drop, 2);
    (Net Net_corrupt, 1);
    (Net Net_duplicate, 1);
    (Net Net_reorder, 1);
    (Crash, 1);
  ]

(* Consecutive ticks an interrupt storm re-raises its line. *)
let storm_len = 12

type t = {
  mutable rng : Random.State.t;  (** copied at capture and at restore *)
  machine : Machine.t;
  weights : (kind * int) list;
  total_weight : int;
  period : int;
  mutable st : state;
}

(* Everything else the engine knows, as one immutable record. *)
and state = {
  seed : int;
  armed : bool;
  next_due : int;
  storm : (int * int) option;  (** irq, remaining ticks *)
  pending_oom : int;
  pending_crash : int;
  net_queue : Netsim.chaos list;
  victims : string list;
  regions : unit -> (int * int) list;
  trace_rev : (int * string) list;  (** (cycle, note), newest first *)
  crashes_delivered : int;
  injected : int;
  listener : Machine.listener_handle option;
}

(* The engine's tick listener is parked except when it has something to
   do: the next scheduled injection, or — during an interrupt storm —
   every tick, since a storm raises its line once per tick. *)
let update_wakeup t =
  match t.st.listener with
  | None -> ()
  | Some h ->
      let at =
        if not t.st.armed then max_int
        else
          match t.st.storm with
          | Some (_, n) when n > 0 -> Machine.cycles t.machine + 1
          | _ -> t.st.next_due
      in
      Machine.set_listener_wakeup t.machine h ~at

(* Every trace entry has a twin [Obs.Fault_note] event with the
   identical note and cycle stamp (test_fault_campaign pins the 1:1
   match).  The note's text is built when it happens, because the event
   and the input journal carry it; its trace line only when the trace
   is read ([trace_line]). *)
let log t s =
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Fault_note { note = s });
  if Machine.input_logging t.machine then
    Machine.log_input t.machine ("fault " ^ s);
  t.st <- { t.st with trace_rev = (Machine.cycles t.machine, s) :: t.st.trace_rev }

let trace_line (cycle, note) = "[" ^ string_of_int cycle ^ "] " ^ note

(* The notes are concatenated, not formatted: [hex] prints what [%x]
   does (an int read as unsigned), [hex2] what [%02x] does. *)
let hex n =
  if n = 0 then "0"
  else begin
    let b = Bytes.create 16 and i = ref 16 and n = ref n in
    while !n <> 0 do
      decr i;
      Bytes.unsafe_set b !i "0123456789abcdef".[!n land 15];
      n := !n lsr 4
    done;
    Bytes.sub_string b !i (16 - !i)
  end

let hex2 n = if n >= 0 && n < 16 then "0" ^ hex n else hex n
let str = string_of_int

let pick_kind t =
  let n = Random.State.int t.rng t.total_weight in
  let rec go acc = function
    | [] -> assert false
    | (k, w) :: rest -> if n < acc + w then k else go (acc + w) rest
  in
  go 0 t.weights

(* Pick an address inside a live allocation payload; [None] when the
   heap holds no live objects right now. *)
let pick_payload_addr t =
  match t.st.regions () with
  | [] -> None
  | regions ->
      let (base, size) =
        List.nth regions (Random.State.int t.rng (List.length regions))
      in
      Some (base + Random.State.int t.rng (max 1 size))

let inject t =
  let mem = Machine.mem t.machine in
  match pick_kind t with
  | Tag_clear -> (
      match pick_payload_addr t with
      | None -> log t "tag_clear: no live target"
      | Some addr ->
          let had = Memory.clear_tag_at mem addr in
          log t
            ("tag_clear @0x" ^ hex addr
            ^ if had then " (cap destroyed)" else " (no cap)"))
  | Bit_flip -> (
      match pick_payload_addr t with
      | None -> log t "bit_flip: no live target"
      | Some addr ->
          let bit = Random.State.int t.rng 8 in
          Memory.flip_bit mem ~addr ~bit;
          log t ("bit_flip @0x" ^ hex addr ^ " bit " ^ str bit))
  | Spurious_irq ->
      let irq = Random.State.int t.rng 8 in
      Machine.raise_irq t.machine irq;
      log t ("spurious_irq " ^ str irq)
  | Irq_storm ->
      let irq = Random.State.int t.rng 8 in
      t.st <- { t.st with storm = Some (irq, storm_len) };
      log t ("irq_storm " ^ str irq ^ " for " ^ str storm_len ^ " ticks")
  | Timer_skew ->
      let delta = Random.State.int t.rng 4001 - 2000 in
      let delta = if delta = 0 then 1 else delta in
      Machine.skew_timer t.machine delta;
      log t
        ("timer_skew "
        ^ (if delta >= 0 then "+" ^ str delta else str delta)
        ^ " (deadline "
        ^ (match Machine.timer_deadline t.machine with
          | Some d -> str d
          | None -> "unarmed")
        ^ ")")
  | Oom ->
      t.st <- { t.st with pending_oom = t.st.pending_oom + 1 };
      log t "oom armed"
  | Net nf ->
      let chaos =
        match nf with
        | Net_drop -> Netsim.Drop
        | Net_duplicate -> Netsim.Duplicate
        | Net_corrupt ->
            Netsim.Corrupt
              (Random.State.int t.rng 64, 1 + Random.State.int t.rng 255)
        | Net_reorder -> Netsim.Delay (1_000 + Random.State.int t.rng 20_000)
      in
      t.st <- { t.st with net_queue = t.st.net_queue @ [ chaos ] };
      log t (kind_name (Net nf) ^ " armed")
  | Crash ->
      t.st <- { t.st with pending_crash = t.st.pending_crash + 1 };
      log t "crash armed"

let schedule_next t now =
  let next_due = now + 1 + Random.State.int t.rng t.period in
  t.st <- { t.st with next_due }

let create ?(period = 4_000) ?(weights = default_weights) ~seed machine =
  let total_weight = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  if total_weight <= 0 then invalid_arg "Fault_inject.create: empty weights";
  let t =
    {
      rng = Random.State.make [| seed; 0xc4e7107 |];
      machine;
      weights;
      total_weight;
      period;
      st =
        {
          seed;
          armed = false;
          next_due = max_int;
          storm = None;
          pending_oom = 0;
          pending_crash = 0;
          net_queue = [];
          victims = [];
          regions = (fun () -> []);
          trace_rev = [];
          crashes_delivered = 0;
          injected = 0;
          listener = None;
        };
    }
  in
  let listener =
    Machine.add_tick_listener ~period:0 machine (fun now ->
        if t.st.armed then begin
          (match t.st.storm with
          | Some (irq, n) when n > 0 ->
              Machine.raise_irq machine irq;
              t.st <- { t.st with storm = (if n = 1 then None else Some (irq, n - 1)) }
          | _ -> ());
          if now >= t.st.next_due then begin
            inject t;
            t.st <- { t.st with injected = t.st.injected + 1 };
            schedule_next t now
          end;
          update_wakeup t
        end)
  in
  t.st <- { t.st with listener = Some listener };
  (* The engine forks with the machine: the RNG copies both ways so
     repeated restores always resume from the identical draw stream. *)
  Machine.on_snapshot machine (fun () ->
      let s = t.st and rng = Random.State.copy t.rng in
      fun () ->
        t.st <- s;
        t.rng <- Random.State.copy rng);
  t

let reseed t ~seed =
  t.st <- { t.st with seed };
  t.rng <- Random.State.make [| seed; 0xc4e7107 |]

let injected t = t.st.injected
let trace t = List.rev t.st.trace_rev
let crashes_delivered t = t.st.crashes_delivered

let arm t =
  t.st <- { t.st with armed = true };
  schedule_next t (Machine.cycles t.machine);
  log t ("engine armed (seed " ^ str t.st.seed ^ ")");
  update_wakeup t

let disarm t =
  if t.st.armed then log t "engine disarmed";
  t.st <- { t.st with armed = false; storm = None };
  update_wakeup t

let detach t =
  disarm t;
  match t.st.listener with
  | None -> ()
  | Some h ->
      Machine.remove_tick_listener t.machine h;
      t.st <- { t.st with listener = None }

let wire_allocator t alloc =
  t.st <- { t.st with regions = (fun () -> Allocator.live_payload_regions alloc) };
  Allocator.set_oom_hook alloc
    (Some
       (fun ~size ->
         if t.st.armed && t.st.pending_oom > 0 then begin
           t.st <- { t.st with pending_oom = t.st.pending_oom - 1 };
           log t ("oom delivered (size " ^ str size ^ ")");
           true
         end
         else false))

let chaos_name = function
  | Netsim.Pass -> "pass"
  | Netsim.Drop -> "net_drop"
  | Netsim.Duplicate -> "net_duplicate"
  | Netsim.Corrupt (off, mask) -> "net_corrupt off=" ^ str off ^ " mask=0x" ^ hex2 mask
  | Netsim.Delay extra -> "net_reorder delay=+" ^ str extra

let wire_netsim t net =
  Netsim.set_chaos_hook net
    (Some
       (fun frame ->
         if not t.st.armed then Netsim.Pass
         else
           match t.st.net_queue with
           | [] -> Netsim.Pass
           | c :: rest ->
               t.st <- { t.st with net_queue = rest };
               log t
                 (chaos_name c ^ " delivered (frame "
                 ^ str (String.length frame)
                 ^ " bytes)");
               c))

let wire_kernel t kernel ~victims =
  t.st <- { t.st with victims };
  Kernel.set_call_fault_hook kernel
    (Some
       (fun ~comp ~entry ->
         if t.st.armed && t.st.pending_crash > 0 && List.mem comp t.st.victims then begin
           t.st <-
             {
               t.st with
               pending_crash = t.st.pending_crash - 1;
               crashes_delivered = t.st.crashes_delivered + 1;
             };
           log t ("crash delivered at " ^ comp ^ "." ^ entry);
           true
         end
         else false));
  (* Logged whether or not the engine is armed, and not journalled: a
     reboot is an effect of earlier inputs, not an input. *)
  Kernel.set_reboot_hook kernel
    (Some
       (fun ~comp ~cycle ->
         let s = "micro-reboot completed: " ^ comp in
         if Machine.tracing t.machine then
           Machine.emit t.machine (Obs.Fault_note { note = s });
         t.st <- { t.st with trace_rev = (cycle, s) :: t.st.trace_rev }))
