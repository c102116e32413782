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
  mutable seed : int;
  mutable rng : Random.State.t;
  machine : Machine.t;
  weights : (kind * int) list;
  total_weight : int;
  period : int;
  mutable armed : bool;
  mutable next_due : int;
  mutable storm : (int * int) option;  (** irq, remaining ticks *)
  mutable pending_oom : int;
  mutable pending_crash : int;
  mutable net_queue : Netsim.chaos list;
  mutable victims : string list;
  mutable regions : unit -> (int * int) list;
  mutable trace_rev : string list;
  mutable injected : int;
  mutable listener : Machine.listener_handle option;
  mutable reboot_sub : (Kernel.t * Microreboot.sub) option;
      (** subscription on the wired kernel — per-kernel, so engines in
          concurrently running simulations never see each other's reboots *)
  mutable kernel : Kernel.t option;  (** set by [wire_kernel] *)
}

(* The engine's tick listener is parked except when it has something to
   do: the next scheduled injection, or — during an interrupt storm —
   every tick, since a storm raises its line once per tick. *)
let update_wakeup t =
  match t.listener with
  | None -> ()
  | Some h ->
      let at =
        if not t.armed then max_int
        else
          match t.storm with
          | Some (_, n) when n > 0 -> Machine.cycles t.machine + 1
          | _ -> t.next_due
      in
      Machine.set_listener_wakeup t.machine h ~at

(* Every trace line has a twin [Obs.Fault_note] event with the identical
   message and cycle stamp (test_fault_campaign pins the 1:1 match). *)
let log t fmt =
  Printf.ksprintf
    (fun s ->
      if Machine.tracing t.machine then
        Machine.emit t.machine (Obs.Fault_note { note = s });
      if Machine.input_logging t.machine then
        Machine.log_input t.machine ("fault " ^ s);
      t.trace_rev <-
        Printf.sprintf "[%d] %s" (Machine.cycles t.machine) s :: t.trace_rev)
    fmt

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
  match t.regions () with
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
          log t "tag_clear @0x%x (%s)" addr
            (if had then "cap destroyed" else "no cap"))
  | Bit_flip -> (
      match pick_payload_addr t with
      | None -> log t "bit_flip: no live target"
      | Some addr ->
          let bit = Random.State.int t.rng 8 in
          Memory.flip_bit mem ~addr ~bit;
          log t "bit_flip @0x%x bit %d" addr bit)
  | Spurious_irq ->
      let irq = Random.State.int t.rng 8 in
      Machine.raise_irq t.machine irq;
      log t "spurious_irq %d" irq
  | Irq_storm ->
      let irq = Random.State.int t.rng 8 in
      t.storm <- Some (irq, storm_len);
      log t "irq_storm %d for %d ticks" irq storm_len
  | Timer_skew ->
      let delta = Random.State.int t.rng 4001 - 2000 in
      let delta = if delta = 0 then 1 else delta in
      Machine.skew_timer t.machine delta;
      log t "timer_skew %+d (deadline %s)" delta
        (match Machine.timer_deadline t.machine with
        | Some d -> string_of_int d
        | None -> "unarmed")
  | Oom ->
      t.pending_oom <- t.pending_oom + 1;
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
      t.net_queue <- t.net_queue @ [ chaos ];
      log t "%s armed" (kind_name (Net nf))
  | Crash ->
      t.pending_crash <- t.pending_crash + 1;
      log t "crash armed"

let schedule_next t now =
  t.next_due <- now + 1 + Random.State.int t.rng t.period

let create ?(period = 4_000) ?(weights = default_weights) ~seed machine =
  let total_weight = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  if total_weight <= 0 then invalid_arg "Fault_inject.create: empty weights";
  let t =
    {
      seed;
      rng = Random.State.make [| seed; 0xc4e7107 |];
      machine;
      weights;
      total_weight;
      period;
      armed = false;
      next_due = max_int;
      storm = None;
      pending_oom = 0;
      pending_crash = 0;
      net_queue = [];
      victims = [];
      regions = (fun () -> []);
      trace_rev = [];
      injected = 0;
      listener = None;
      reboot_sub = None;
      kernel = None;
    }
  in
  t.listener <-
    Some
      (Machine.add_tick_listener ~period:0 machine (fun now ->
           if t.armed then begin
             (match t.storm with
             | Some (irq, n) when n > 0 ->
                 Machine.raise_irq machine irq;
                 t.storm <- (if n = 1 then None else Some (irq, n - 1))
             | _ -> ());
             if now >= t.next_due then begin
               inject t;
               t.injected <- t.injected + 1;
               schedule_next t now
             end;
             update_wakeup t
           end));
  (* The engine forks with the machine: the RNG copies both ways so
     repeated restores always resume from the identical draw stream. *)
  Machine.on_snapshot machine (fun () ->
      let seed = t.seed in
      let rng = Random.State.copy t.rng in
      let armed = t.armed in
      let next_due = t.next_due in
      let storm = t.storm in
      let pending_oom = t.pending_oom in
      let pending_crash = t.pending_crash in
      let net_queue = t.net_queue in
      let victims = t.victims in
      let regions = t.regions in
      let trace_rev = t.trace_rev in
      let injected = t.injected in
      let listener = t.listener in
      let reboot_sub = t.reboot_sub in
      let kernel = t.kernel in
      fun () ->
        t.seed <- seed;
        t.rng <- Random.State.copy rng;
        t.armed <- armed;
        t.next_due <- next_due;
        t.storm <- storm;
        t.pending_oom <- pending_oom;
        t.pending_crash <- pending_crash;
        t.net_queue <- net_queue;
        t.victims <- victims;
        t.regions <- regions;
        t.trace_rev <- trace_rev;
        t.injected <- injected;
        t.listener <- listener;
        t.reboot_sub <- reboot_sub;
        t.kernel <- kernel);
  t

let reseed t ~seed =
  t.seed <- seed;
  t.rng <- Random.State.make [| seed; 0xc4e7107 |]

let injected t = t.injected
let trace t = List.rev t.trace_rev

let arm t =
  t.armed <- true;
  schedule_next t (Machine.cycles t.machine);
  log t "engine armed (seed %d)" t.seed;
  update_wakeup t

let disarm t =
  if t.armed then log t "engine disarmed";
  t.armed <- false;
  t.storm <- None;
  update_wakeup t

let detach t =
  disarm t;
  (match t.reboot_sub with
  | None -> ()
  | Some (k, s) ->
      Microreboot.unsubscribe k s;
      t.reboot_sub <- None);
  match t.listener with
  | None -> ()
  | Some h ->
      Machine.remove_tick_listener t.machine h;
      t.listener <- None

let set_region_source t f = t.regions <- f

let wire_allocator t alloc =
  Allocator.set_oom_hook alloc
    (Some
       (fun ~size ->
         if t.armed && t.pending_oom > 0 then begin
           t.pending_oom <- t.pending_oom - 1;
           log t "oom delivered (size %d)" size;
           true
         end
         else false))

let chaos_name = function
  | Netsim.Pass -> "pass"
  | Netsim.Drop -> "net_drop"
  | Netsim.Duplicate -> "net_duplicate"
  | Netsim.Corrupt (off, mask) ->
      Printf.sprintf "net_corrupt off=%d mask=0x%02x" off mask
  | Netsim.Delay extra -> Printf.sprintf "net_reorder delay=+%d" extra

let wire_netsim t net =
  Netsim.set_chaos_hook net
    (Some
       (fun frame ->
         if not t.armed then Netsim.Pass
         else
           match t.net_queue with
           | [] -> Netsim.Pass
           | c :: rest ->
               t.net_queue <- rest;
               log t "%s delivered (frame %d bytes)" (chaos_name c)
                 (String.length frame);
               c))

let wire_kernel t kernel ~victims =
  t.victims <- victims;
  t.kernel <- Some kernel;
  Kernel.set_call_fault_hook kernel
    (Some
       (fun ~comp ~entry ->
         if t.armed && t.pending_crash > 0 && List.mem comp t.victims then begin
           t.pending_crash <- t.pending_crash - 1;
           log t "crash delivered at %s.%s" comp entry;
           true
         end
         else false))

let observe_reboots t =
  (match t.reboot_sub with
  | Some (k, s) ->
      Microreboot.unsubscribe k s;
      t.reboot_sub <- None
  | None -> ());
  match t.kernel with
  | None -> invalid_arg "observe_reboots: wire_kernel first"
  | Some k ->
      t.reboot_sub <-
        Some
          ( k,
            Microreboot.subscribe k (fun ~comp ~cycle ->
                let s = "micro-reboot completed: " ^ comp in
                if Machine.tracing t.machine then
                  Machine.emit t.machine (Obs.Fault_note { note = s });
                t.trace_rev <- Printf.sprintf "[%d] %s" cycle s :: t.trace_rev) )
