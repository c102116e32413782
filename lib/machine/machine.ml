module Cap = Capability

module Device = struct
  type t = {
    name : string;
    read : addr:int -> size:int -> int;
    write : addr:int -> size:int -> int -> unit;
  }

  let ram ~name ~size =
    let store = Bytes.make size '\000' in
    let read ~addr ~size:sz =
      if addr + sz <= size then
        match sz with
        | 4 ->
            Bytes.get_uint16_le store addr
            lor (Bytes.get_uint16_le store (addr + 2) lsl 16)
        | 1 -> Bytes.get_uint8 store addr
        | 2 -> Bytes.get_uint16_le store addr
        | _ ->
            let rec go acc i =
              if i < 0 then acc
              else go ((acc lsl 8) lor Char.code (Bytes.get store (addr + i))) (i - 1)
            in
            go 0 (sz - 1)
      else 0
    in
    let write ~addr ~size:sz v =
      if addr + sz <= size then
        match sz with
        | 4 ->
            Bytes.set_uint16_le store addr (v land 0xffff);
            Bytes.set_uint16_le store (addr + 2) ((v lsr 16) land 0xffff)
        | 1 -> Bytes.set_uint8 store addr (v land 0xff)
        | 2 -> Bytes.set_uint16_le store addr (v land 0xffff)
        | _ ->
            for i = 0 to sz - 1 do
              Bytes.set store (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
            done
    in
    { name; read; write }
end

type region = { dev : Device.t; dev_base : int; dev_size : int }

type listener = {
  lk_fn : int -> unit;
  lk_period : int;  (* 0 = parked: fires only at explicitly set wakeups *)
  mutable lk_next : int;  (* absolute cycle of next wakeup; max_int = never *)
  mutable lk_alive : bool;
}

type listener_handle = listener

type t = {
  mem : Memory.t;
  mutable cycles : int;
  mutable irq_enabled : bool;
  mutable pending : int;
  mutable hook : (int -> unit) option;
  mutable post_tick : (unit -> unit) option;
  mutable listeners : listener array;
  mutable n_listeners : int;
  mutable delivering : bool;
  mutable timer_deadline : int option;
  mutable regions : region list;  (* newest first: find_device + layout order *)
  mutable region_tbl : region array;  (* sorted by base, for lookup *)
  mutable region_hot : region option;  (* last MMIO hit *)
  mutable rev_sweeping : bool;  (* a sweep is in flight *)
  mutable rev_next : int;  (* the sweep's next granule *)
  mutable rev_debt : int;  (* cycles of the sweep not yet worth a granule *)
  mutable rev_epoch : int;
  mutable rev_rate : int;
  mutable rev_lag : int;  (* fast-path cycles not yet applied to the sweep *)
  mutable horizon : int;  (* next cycle at which anything can happen; 0 = stale *)
  mutable attention : bool;  (* sticky slow-path request (kernel preemption) *)
  mutable obs : Obs.t option;  (* trace sink; never affects simulation *)
  mutable frn : Forensics.t option;  (* flight recorder *)
  mutable prof : Profiler.t option;  (* sampling profiler *)
  mutable input_log : (cycle:int -> string -> unit) option;
      (* replay-journal tap (lib/replay): IRQ raises, injected frames,
         fault notes.  Host-side only, observationally invisible. *)
  mutable snaps : (unit -> unit -> unit) list;
      (* component capture registry, newest first: each entry keeps its
         owner's state (immutable records as is, in-place parts copied)
         and returns the restore thunk *)
}

let timer_irq = 0
let revoker_irq = 1
let ethernet_irq = 2
let first_user_irq = 3
let clock_mhz = 33
let seconds_of_cycles c = float_of_int c /. (float_of_int clock_mhz *. 1e6)

(* Invalidate the cached event horizon; the next [tick] recomputes it. *)
let dirty m = m.horizon <- 0

(* Tracing.  Emission must stay observationally invisible: no [tick], no
   simulated-memory access, no [dirty].  Hot paths check [tracing] first
   so the event record is never even allocated when no sink is attached. *)

let set_trace m o = m.obs <- o
let trace m = m.obs
let set_forensics m f = m.frn <- f
let forensics m = m.frn
let set_profiler m p = m.prof <- p
let profiler m = m.prof

(* Any attached consumer makes the emitters produce events; the three
   sinks are independent (any subset of CHERIOT_OBS works). *)
let tracing m = m.obs <> None || m.frn <> None || m.prof <> None

let emit m kind =
  (match m.obs with
  | None -> ()
  | Some o -> Obs.emit o ~cycle:m.cycles kind);
  (match m.frn with
  | None -> ()
  | Some f -> Forensics.ingest f ~cycle:m.cycles kind);
  match m.prof with
  | None -> ()
  | Some p -> Profiler.ingest p ~cycle:m.cycles kind

let no_listener =
  { lk_fn = ignore; lk_period = 0; lk_next = max_int; lk_alive = false }

let mem m = m.mem
let sram_base m = Memory.base m.mem
let sram_size m = Memory.size m.mem
let cycles m = m.cycles
let irq_enabled m = m.irq_enabled
let in_sram m addr = Memory.contains m.mem addr

(* Can [n] cycles of work be charged as one batched [tick] at the end of
   the batch without any observable difference?  Yes iff the whole batch
   stays strictly below the event horizon: then every intermediate tick
   would have taken the fast path (no listener, no timer, no IRQ
   delivery), and only the final clock value is observable.  A stale
   horizon (0, or already passed) answers [false], which is always
   safe. *)
let defer_window m n = m.cycles + n < m.horizon
let defer_room m = m.horizon - m.cycles

let revoker_busy m = m.rev_sweeping

(* The only horizon term that reads [irq_enabled] is "an IRQ is pending
   and deliverable: now".  Enabling with an IRQ pending can create that
   earlier event, so it dirties the horizon; disabling, or enabling with
   nothing pending, can only leave it where it is or move it later, and
   a stale-but-early horizon is safe.  Keeping the horizon across a
   posture change is what lets a sentry call stay in a deferred batch.
   The one thing the skipped slow tick could still have shown is sweep
   progress: it settles an in-flight sweep, and each settlement emits a
   [Revoker_quantum] event.  So with a sink attached and a sweep in
   flight the horizon is dirtied as before, which keeps every traced
   event stream as it was; untraced, settlement is additive and emits
   nothing, so settling later is invisible.  It must be a full dirty,
   not a settlement-only tick that keeps the parked horizon: traced, a
   slow tick mid-sweep is observable (it settles and emits), and the
   full slow tick's [recompute_horizon] moves a stale-early horizon
   later.  Campaign seed 60: the tick at cycle 1014007 moves the horizon
   from 1014009 to 1014222; left parked, the stream gains a
   revoker-quantum at 1014009. *)
let set_irq_enabled m b =
  if (b && (not m.irq_enabled) && m.pending <> 0) || (revoker_busy m && tracing m) then
    dirty m;
  m.irq_enabled <- b

(* Replay journal tap.  Like tracing, logging must stay observationally
   invisible: no tick, no simulated memory, no [dirty]. *)

let set_input_log m h = m.input_log <- h
let input_logging m = m.input_log <> None

let log_input m s =
  match m.input_log with None -> () | Some f -> f ~cycle:m.cycles s

let raise_irq m n =
  (match m.input_log with
  | None -> ()
  | Some f -> f ~cycle:m.cycles (Printf.sprintf "irq %d" n));
  m.pending <- m.pending lor (1 lsl n);
  dirty m

let pending m n = m.pending land (1 lsl n) <> 0

let set_deliver_hook m h =
  m.hook <- h;
  dirty m

let set_post_tick_hook m h =
  m.post_tick <- h;
  dirty m

let request_attention m =
  m.attention <- true;
  dirty m

(* Tick listeners: a dynamic array of records with absolute wakeup
   cycles.  [period = 1] (the default) reproduces the legacy behaviour of
   being called at every [tick]; [period = 0] parks the listener until an
   explicit [set_listener_wakeup]. *)

let add_tick_listener ?(period = 1) m f =
  if period < 0 then invalid_arg "add_tick_listener: negative period";
  if m.n_listeners = Array.length m.listeners then begin
    (* Compact dead entries before growing so removed listeners don't
       occupy slots forever. *)
    let live = Array.of_list (List.filter (fun l -> l.lk_alive)
                                (Array.to_list (Array.sub m.listeners 0 m.n_listeners)))
    in
    let n = Array.length live in
    if n < m.n_listeners then begin
      Array.blit live 0 m.listeners 0 n;
      Array.fill m.listeners n (Array.length m.listeners - n) no_listener;
      m.n_listeners <- n
    end
    else begin
      let bigger = Array.make (2 * Array.length m.listeners) no_listener in
      Array.blit m.listeners 0 bigger 0 m.n_listeners;
      m.listeners <- bigger
    end
  end;
  let l =
    {
      lk_fn = f;
      lk_period = period;
      lk_next = (if period > 0 then m.cycles + period else max_int);
      lk_alive = true;
    }
  in
  m.listeners.(m.n_listeners) <- l;
  m.n_listeners <- m.n_listeners + 1;
  dirty m;
  l

let remove_tick_listener m l =
  l.lk_alive <- false;
  l.lk_next <- max_int;
  dirty m

let set_listener_wakeup m l ~at =
  if l.lk_alive then begin
    l.lk_next <- at;
    dirty m
  end

let set_timer m d =
  m.timer_deadline <- d;
  dirty m

let timer_deadline m = m.timer_deadline

let skew_timer m delta =
  match m.timer_deadline with
  | None -> ()
  | Some d ->
      m.timer_deadline <- Some (Int.max (m.cycles + 1) (d + delta));
      dirty m

let revoker_epoch m = m.rev_epoch

(* Sweep the tagged granules in [g, stop): only tagged granules can be
   affected by a sweep step, so the untagged stretches are skipped via
   the tag bitmap. *)
let rec sweep_tagged mem g stop =
  let t = Memory.next_tagged mem ~from:g in
  if t >= 0 && t < stop then begin
    ignore (Memory.sweep_granule mem t);
    sweep_tagged mem (t + 1) stop
  end

(* Progress the background revoker by [n] cycles of wall time.  Debt
   arithmetic is additive, so one batched call here is equivalent to any
   sequence of smaller calls totalling [n] — provided no tag was set or
   cleared in between, which the event horizon and the tag-set hook
   guarantee for the lazily accumulated [rev_lag]. *)
let revoker_advance m n =
  if m.rev_sweeping then begin
    let debt = m.rev_debt + n in
    let steps = debt / m.rev_rate in
    m.rev_debt <- debt mod m.rev_rate;
    let total = Memory.granule_count m.mem in
    let take = Int.min steps (total - m.rev_next) in
    let stop = m.rev_next + take in
    sweep_tagged m.mem m.rev_next stop;
    m.rev_next <- stop;
    if take > 0 && tracing m then
      emit m (Obs.Revoker_quantum { granules = take; next = stop });
    if stop >= total then begin
      m.rev_sweeping <- false;
      m.rev_epoch <- m.rev_epoch + 1;
      if tracing m then emit m (Obs.Revoker_done { epoch = m.rev_epoch });
      raise_irq m revoker_irq
    end
  end

(* Apply cycles that passed on the fast path to the revoker sweep. *)
let settle_revoker m =
  if m.rev_lag > 0 then begin
    let lag = m.rev_lag in
    m.rev_lag <- 0;
    revoker_advance m lag
  end

let revoker_kick m =
  if not m.rev_sweeping then begin
    (* Lag accumulated while idle predates this sweep: discard it
       (advancing an idle revoker is a no-op). *)
    m.rev_lag <- 0;
    m.rev_sweeping <- true;
    m.rev_next <- 0;
    m.rev_debt <- 0;
    dirty m
  end

let set_revoker_rate m ~cycles_per_granule =
  settle_revoker m;  (* apply outstanding lag at the old rate *)
  m.rev_rate <- cycles_per_granule;
  dirty m

(* The sinks CHERIOT_OBS selects: a comma-separated subset of
   [obs_sinks].  An unknown name fails loudly. *)
let obs_sinks = [ "trace"; "forensics"; "profile" ]

let env_sinks () =
  match Sys.getenv_opt "CHERIOT_OBS" with
  | None -> []
  | Some s ->
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun n -> n <> "")
      |> List.map (fun n ->
             if List.mem n obs_sinks then n
             else
               failwith
                 (Printf.sprintf
                    "CHERIOT_OBS: unknown sink %S (expected a \
                     comma-separated subset of %s)"
                    n (String.concat ", " obs_sinks)))

let create ?(sram_size = 256 * 1024) () =
  let sinks = env_sinks () in
  let m =
    {
      mem = Memory.create ~base:0x2000_0000 ~size:sram_size;
      cycles = 0;
      irq_enabled = true;
      pending = 0;
      hook = None;
      post_tick = None;
      listeners = Array.make 4 no_listener;
      n_listeners = 0;
      delivering = false;
      timer_deadline = None;
      regions = [];
      region_tbl = [||];
      region_hot = None;
      rev_sweeping = false;
      rev_next = 0;
      rev_debt = 0;
      rev_epoch = 0;
      rev_rate = Cost.revoker_cycles_per_granule;
      rev_lag = 0;
      horizon = 0;
      attention = false;
      obs =
        (if List.mem "trace" sinks then
           Some (Obs.create ())
         else None);
      frn =
        (if List.mem "forensics" sinks then Some (Forensics.create ()) else None);
      prof = (if List.mem "profile" sinks then Some (Profiler.create ()) else None);
      input_log = None;
      snaps = [];
    }
  in
  (* A tag appearing in memory is the one event the lazy revoker cannot
     anticipate.  Settle the in-flight sweep against the pre-store tag
     state first, so deferred sweep cycles that already elapsed can never
     be credited against the new capability; and dirty the horizon, since
     the new tag may now be the next granule the sweep touches. *)
  Memory.set_tag_set_hook m.mem (fun () ->
      if m.rev_sweeping then begin
        settle_revoker m;
        dirty m
      end);
  m

let rec lowest_set p i = if p land (1 lsl i) <> 0 then i else lowest_set p (i + 1)

(* Deliver pending interrupts, lowest line first, while delivery stays
   enabled. *)
let rec drain m hook =
  if m.irq_enabled && m.pending <> 0 then begin
    let n = lowest_set m.pending 0 in
    m.pending <- m.pending land lnot (1 lsl n);
    if tracing m then emit m (Obs.Irq_enter { irq = n });
    hook n;
    if tracing m then emit m (Obs.Irq_exit { irq = n });
    drain m hook
  end

let deliver m =
  match m.hook with
  | None -> ()
  | Some hook ->
      if m.irq_enabled && (not m.delivering) && m.pending <> 0 then begin
        m.delivering <- true;
        match drain m hook with
        | () -> m.delivering <- false
        | exception e ->
            m.delivering <- false;
            raise e
      end

(* The event horizon: the earliest future cycle at which a tick could do
   anything observable.  Components:
     - a pending interrupt with delivery possible, or requested
       attention: now;
     - the timer deadline;
     - the earliest live listener wakeup;
     - the sweep reaching the next tagged granule (the only granules a
       sweep step can affect), and sweep completion (epoch/IRQ).
   Stale-but-early horizons are safe (a spurious slow tick is a no-op);
   anything that could create an *earlier* event must call [dirty]. *)
let rec listeners_min ls i n h =
  if i >= n then h
  else
    let l = Array.unsafe_get ls i in
    listeners_min ls (i + 1) n (if l.lk_alive && l.lk_next < h then l.lk_next else h)

let recompute_horizon m =
  let deliverable = match m.hook with Some _ -> m.irq_enabled | None -> false in
  let h = if m.attention || (m.pending <> 0 && deliverable) then 0 else max_int in
  let h = match m.timer_deadline with Some d when d < h -> d | Some _ | None -> h in
  let h = listeners_min m.listeners 0 m.n_listeners h in
  let h =
    if not m.rev_sweeping then h
    else
      let next = m.rev_next and debt = m.rev_debt in
      let total = Memory.granule_count m.mem in
      let h = Int.min h (m.cycles + ((total - next) * m.rev_rate) - debt) in
      let g = Memory.next_tagged m.mem ~from:next in
      if g >= 0 then Int.min h (m.cycles + ((g - next + 1) * m.rev_rate) - debt) else h
  in
  m.horizon <- h

let slow_tick m n =
  m.cycles <- m.cycles + n;
  m.rev_lag <- m.rev_lag + n;
  m.attention <- false;
  settle_revoker m;
  let count = m.n_listeners in
  for i = 0 to count - 1 do
    let l = m.listeners.(i) in
    if l.lk_alive && m.cycles >= l.lk_next then begin
      (* Re-arm before the call so the listener can override it. *)
      l.lk_next <- (if l.lk_period > 0 then m.cycles + l.lk_period else max_int);
      l.lk_fn m.cycles
    end
  done;
  (match m.timer_deadline with
  | Some d when m.cycles >= d ->
      m.timer_deadline <- None;
      raise_irq m timer_irq
  | Some _ | None -> ());
  deliver m;
  (match m.post_tick with None -> () | Some f -> f ());
  recompute_horizon m

let tick m n =
  if n > 0 then
    if m.cycles + n < m.horizon then begin
      (* Fast path: nothing can happen before [horizon], so the whole
         tick reduces to advancing the clock and deferring sweep work. *)
      m.cycles <- m.cycles + n;
      m.rev_lag <- m.rev_lag + n
    end
    else slow_tick m n

let run_revoker_to_completion m =
  while revoker_busy m do
    tick m 64
  done

(* MMIO dispatch *)

(* Each call builds a fresh sorted table and never mutates it, so a
   snapshot keeps the table itself and a restore need not re-sort. *)
let add_device m ~base ~size dev =
  m.regions <- { dev; dev_base = base; dev_size = size } :: m.regions;
  let tbl = Array.of_list m.regions in
  Array.sort (fun a b -> compare a.dev_base b.dev_base) tbl;
  m.region_tbl <- tbl;
  m.region_hot <- None

let device_regions m =
  List.rev_map (fun r -> (r.dev.Device.name, r.dev_base, r.dev_size)) m.regions

let find_device m name =
  List.find_map
    (fun r -> if r.dev.Device.name = name then Some (r.dev_base, r.dev_size) else None)
    m.regions

let region_of m addr =
  match m.region_hot with
  | Some r when addr >= r.dev_base && addr < r.dev_base + r.dev_size -> Some r
  | _ ->
      let tbl = m.region_tbl in
      let found = ref None in
      let lo = ref 0 and hi = ref (Array.length tbl - 1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let r = Array.unsafe_get tbl mid in
        if r.dev_base <= addr then begin
          if addr < r.dev_base + r.dev_size then found := Some r;
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      (match !found with Some _ as f -> m.region_hot <- f | None -> ());
      !found

let check ~auth ~perm ~addr ~size access =
  match Cap.check_access ~perm ~addr ~size auth with
  | Ok () -> ()
  | Error cause -> raise (Memory.Fault { Memory.cause; addr; access })

(* SRAM accesses keep the historical fault/cycle ordering: capability
   fault before any cycles are charged; alignment and load-filter faults
   after the access cycles.  The split [Memory.check_aligned_filtered] +
   [_priv] pair performs exactly one capability check per access. *)
let load m ~auth ~addr ~size =
  check ~auth ~perm:Perm.Load ~addr ~size Memory.Read;
  if Memory.contains m.mem addr then begin
    tick m Cost.mem_word;
    Memory.check_aligned_filtered m.mem ~auth ~addr ~size Memory.Read;
    Memory.load_priv m.mem ~addr ~size
  end
  else
    match region_of m addr with
    | Some r ->
        tick m Cost.mmio;
        r.dev.Device.read ~addr:(addr - r.dev_base) ~size
    | None ->
        raise
          (Memory.Fault
             { Memory.cause = Cap.Bounds_violation; addr; access = Memory.Read })

let store m ~auth ~addr ~size v =
  check ~auth ~perm:Perm.Store ~addr ~size Memory.Write;
  if Memory.contains m.mem addr then begin
    tick m Cost.mem_word;
    Memory.check_aligned_filtered m.mem ~auth ~addr ~size Memory.Write;
    Memory.store_priv m.mem ~addr ~size v
  end
  else
    match region_of m addr with
    | Some r ->
        tick m Cost.mmio;
        r.dev.Device.write ~addr:(addr - r.dev_base) ~size v
    | None ->
        raise
          (Memory.Fault
             { Memory.cause = Cap.Bounds_violation; addr; access = Memory.Write })

let load_cap m ~auth ~addr =
  tick m Cost.mem_cap;
  Memory.load_cap ~auth m.mem ~addr

let store_cap m ~auth ~addr c =
  tick m Cost.mem_cap;
  Memory.store_cap ~auth m.mem ~addr c

let zero m ~auth ~addr ~len =
  if len > 0 then begin
    tick m ((len + Memory.granule_size - 1) / Memory.granule_size * Cost.mem_cap);
    Memory.zero ~auth m.mem ~addr ~len
  end

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                 *)
(* ------------------------------------------------------------------ *)

(* The machine itself owns memory, the clock, interrupt state, the timer,
   the revoker, the listener table and the attached observability sinks;
   everything else (interpreter registers, kernel, allocator, scheduler,
   netsim, firewall, fault engine) registers a capture here at creation
   time, so the whole reachable state surface restores through one call.
   Capture is pure (it keeps immutable state and copies what is mutated
   in place); restore is in-place, so every closure the simulation
   handed out (hooks, listeners, implement bodies) keeps pointing at the
   live instances.

   Two states are deliberately NOT restorable and snapshot refuses them:
   mid-delivery (the continuation of the interrupted hook cannot be
   copied) — and, by the same argument, components must only register
   captures whose state is plain data at the snapshot point (the kernel's
   quiescence contract, see DESIGN.md). *)

type snap = { sn_machine : t; sn_restore : unit -> unit }

type snapshot_handle = snap

let on_snapshot m capture = m.snaps <- capture :: m.snaps

let snapshot m =
  if m.delivering then
    invalid_arg "Machine.snapshot: inside interrupt delivery";
  let mem_r = Memory.snapshot m.mem in
  let cycles = m.cycles in
  let irq_enabled = m.irq_enabled in
  let pending = m.pending in
  let hook = m.hook in
  let post_tick = m.post_tick in
  let timer_deadline = m.timer_deadline in
  let regions = m.regions and region_tbl = m.region_tbl in
  let rev_sweeping = m.rev_sweeping in
  let rev_next = m.rev_next and rev_debt = m.rev_debt in
  let rev_epoch = m.rev_epoch in
  let rev_rate = m.rev_rate in
  let rev_lag = m.rev_lag in
  let attention = m.attention in
  let obs = m.obs in
  let frn = m.frn in
  let prof = m.prof in
  let input_log = m.input_log in
  let snaps = m.snaps in
  let obs_r = match m.obs with Some o -> Obs.snapshot o | None -> ignore in
  let frn_r =
    match m.frn with Some f -> Forensics.snapshot f | None -> ignore
  in
  let prof_r =
    match m.prof with Some p -> Profiler.snapshot p | None -> ignore
  in
  let listeners = Array.sub m.listeners 0 m.n_listeners in
  let lstate = Array.map (fun l -> (l.lk_next, l.lk_alive)) listeners in
  (* Component captures run in registration order. *)
  let comp_rs = List.rev_map (fun capture -> capture ()) m.snaps in
  let restore () =
    mem_r ();
    m.cycles <- cycles;
    m.irq_enabled <- irq_enabled;
    m.pending <- pending;
    m.hook <- hook;
    m.post_tick <- post_tick;
    m.timer_deadline <- timer_deadline;
    m.regions <- regions;
    m.region_tbl <- region_tbl;
    m.region_hot <- None;
    m.rev_sweeping <- rev_sweeping;
    m.rev_next <- rev_next;
    m.rev_debt <- rev_debt;
    m.rev_epoch <- rev_epoch;
    m.rev_rate <- rev_rate;
    m.rev_lag <- rev_lag;
    m.attention <- attention;
    m.obs <- obs;
    m.frn <- frn;
    m.prof <- prof;
    m.input_log <- input_log;
    m.snaps <- snaps;
    obs_r ();
    frn_r ();
    prof_r ();
    (* Exactly the snapshot-time listeners, with their scheduling state;
       listeners registered after the snapshot are forgotten (their
       handles stay inert: a dead slot is never called). *)
    let n = Array.length listeners in
    let arr = Array.make (Int.max 4 n) no_listener in
    Array.blit listeners 0 arr 0 n;
    m.listeners <- arr;
    m.n_listeners <- n;
    Array.iteri
      (fun i l ->
        let next, alive = lstate.(i) in
        l.lk_next <- next;
        l.lk_alive <- alive)
      listeners;
    List.iter (fun r -> r ()) comp_rs;
    m.delivering <- false;
    dirty m
  in
  { sn_machine = m; sn_restore = restore }

let restore m s =
  if s.sn_machine != m then
    invalid_arg "Machine.restore: snapshot belongs to a different machine";
  s.sn_restore ()
