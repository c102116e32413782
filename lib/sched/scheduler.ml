module Cap = Capability

let comp_name = "sched"
let max_irqs = 8

let firmware_compartment () =
  Firmware.compartment comp_name ~code_loc:260 ~globals_size:(4 * max_irqs)
    ~entries:
      [
        Firmware.entry "futex_wait" ~arity:3 ~min_stack:128;
        Firmware.entry "futex_wake" ~arity:2 ~min_stack:128;
        Firmware.entry "multiwait" ~arity:3 ~min_stack:128;
        Firmware.entry "interrupt_futex" ~arity:1 ~min_stack:64;
        Firmware.entry "time" ~arity:0 ~min_stack:64;
        Firmware.entry "idle_stats" ~arity:0 ~min_stack:64;
      ]

let client_imports = Firmware.client_imports (firmware_compartment ())

module Int_map = Map.Make (Int)

type t = {
  machine : Machine.t;
  cgp : Cap.t;  (** scheduler globals: the interrupt-futex words *)
  globals_base : int;
  mutable waiters : (unit -> bool) list Int_map.t;
      (** futex word address -> wakers, newest first (each returns true
          if it woke) *)
}

let add_waiter t addr w =
  t.waiters <-
    Int_map.update addr (fun l -> Some (w :: Option.value l ~default:[])) t.waiters

(* Wake up to [count] waiters on [addr]; prune the stale ones. *)
let wake t addr count =
  match Int_map.find_opt addr t.waiters with
  | None -> 0
  | Some l ->
      let woken = ref 0 in
      let rec go = function
        | [] -> []
        | w :: rest ->
            if !woken >= count then w :: rest
            else begin
              if w () then incr woken;
              go rest
            end
      in
      let l = go (List.rev l) |> List.rev in
      t.waiters <-
        (if l = [] then Int_map.remove addr t.waiters else Int_map.add addr l t.waiters);
      if !woken > 0 && Machine.tracing t.machine then
        Machine.emit t.machine (Obs.Futex_wake { addr; woken = !woken });
      !woken

(* Wait-queue sanity (fault-campaign invariant): the waiters table never
   retains empty lists, and every waited-on word is a real address the
   machine could have handed out (SRAM or MMIO). *)
let check_sanity t =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let sram_lo = Machine.sram_base t.machine in
  let sram_hi = sram_lo + Machine.sram_size t.machine in
  let devs = Machine.device_regions t.machine in
  Int_map.iter
    (fun addr l ->
      if l = [] then fail "empty waiter list retained for word 0x%x" addr;
      let in_sram = addr >= sram_lo && addr < sram_hi in
      let in_dev = List.exists (fun (_, b, s) -> addr >= b && addr < b + s) devs in
      if not (in_sram || in_dev) then
        fail "waiters parked on unmapped word 0x%x" addr)
    t.waiters;
  match !errs with [] -> Ok () | e -> Error (String.concat "; " e)

(* Results over the call boundary. *)
let r_woken = 0
let r_timeout = 1
let r_changed = 2

(* The futex word is at the capability's *cursor* (the pointer value). *)
let check_word_readable word =
  Cap.check_access ~perm:Perm.Load ~addr:(Cap.address word) ~size:4 word

let do_futex_wait t ctx word expected timeout =
  Machine.tick t.machine 30;
  match check_word_readable word with
  | Error _ -> r_changed
  | Ok () ->
      let addr = Cap.address word in
      let v = Machine.load t.machine ~auth:word ~addr ~size:4 in
      if v <> expected then r_changed
      else begin
        if Machine.tracing t.machine then
          Machine.emit t.machine
            (Obs.Futex_wait { addr; tid = ctx.Kernel.thread_id });
        let deadline =
          if timeout > 0 then Some (Machine.cycles t.machine + timeout) else None
        in
        match
          Kernel.suspend ctx ?deadline
            ~register:(fun wake -> add_waiter t addr (fun () -> wake (Kernel.Woken 0)))
            ()
        with
        | Kernel.Woken _ -> r_woken
        | Kernel.Timed_out -> r_timeout
      end

let do_futex_wake t word count =
  Machine.tick t.machine 30;
  match check_word_readable word with
  | Error _ -> 0
  | Ok () -> wake t (Cap.address word) count

(* Event buffers: 16 bytes per event, a capability then the expected
   value, read through the caller-supplied buffer capability. *)
let do_multiwait t ctx buf count timeout =
  Machine.tick t.machine (40 + (10 * count)) ;
  let read_event i =
    let base = Cap.address buf + (16 * i) in
    let c = Machine.load_cap t.machine ~auth:buf ~addr:base in
    let expected = Machine.load t.machine ~auth:buf ~addr:(base + 8) ~size:4 in
    (c, expected)
  in
  let events = List.init count read_event in
  let changed =
    List.find_index
      (fun (c, expected) ->
        match check_word_readable c with
        | Error _ -> true
        | Ok () -> Machine.load t.machine ~auth:c ~addr:(Cap.address c) ~size:4 <> expected)
      events
  in
  match changed with
  | Some i -> i
  | None -> (
      let deadline =
        if timeout > 0 then Some (Machine.cycles t.machine + timeout) else None
      in
      match
        Kernel.suspend ctx ?deadline
          ~register:(fun wake ->
            List.iteri
              (fun i (c, _) -> add_waiter t (Cap.address c) (fun () -> wake (Kernel.Woken i)))
              events)
          ()
      with
      | Kernel.Woken i -> i
      | Kernel.Timed_out -> -1)

let irq_word_addr t irq = t.globals_base + (4 * irq)

let install kernel =
  let machine = Kernel.machine kernel in
  let layout = Loader.find_comp (Kernel.loader kernel) comp_name in
  let t =
    {
      machine;
      cgp = layout.Loader.lc_cgp;
      globals_base = layout.Loader.lc_globals_base;
      waiters = Int_map.empty;
    }
  in
  (* Interrupt futexes: bump the word and wake waiters on delivery.  The
     handler runs inside interrupt delivery, so it must not re-enter the
     clock — raw stores only. *)
  Kernel.set_irq_handler kernel (Some (fun irq ->
      if irq >= 0 && irq < max_irqs then begin
        let addr = irq_word_addr t irq in
        let mem = Machine.mem machine in
        let v = Memory.load_priv mem ~addr ~size:4 in
        Memory.store_priv mem ~addr ~size:4 ((v + 1) land 0x7fffffff);
        ignore (wake t addr max_int)
      end));
  let iv = Interp.int_value and ti = Interp.to_int in
  Kernel.implement1 kernel ~comp:comp_name ~entry:"futex_wait" (fun ctx args ->
      iv (do_futex_wait t ctx args.(0) (ti args.(1)) (ti args.(2))));
  Kernel.implement1 kernel ~comp:comp_name ~entry:"futex_wake" (fun _ctx args ->
      iv (do_futex_wake t args.(0) (ti args.(1))));
  Kernel.implement1 kernel ~comp:comp_name ~entry:"multiwait" (fun ctx args ->
      iv (do_multiwait t ctx args.(0) (ti args.(1)) (ti args.(2))));
  Kernel.implement1 kernel ~comp:comp_name ~entry:"interrupt_futex" (fun _ctx args ->
      let irq = ti args.(0) in
      if irq < 0 || irq >= max_irqs then Cap.null
      else
        let c = Cap.exn (Cap.with_address t.cgp (irq_word_addr t irq)) in
        let c = Cap.exn (Cap.set_bounds c ~length:4) in
        Cap.exn (Cap.and_perms c Perm.Set.read_only));
  Kernel.implement1 kernel ~comp:comp_name ~entry:"time" (fun _ctx _ ->
      iv (Machine.cycles machine));
  Kernel.implement kernel ~comp:comp_name ~entry:"idle_stats" (fun _ctx _ ->
      (iv (Kernel.idle_cycles kernel), iv (Machine.cycles machine)));
  (* Waker closures wrap effect continuations and cannot be copied; the
     kernel's quiescence check (no thread mid-effect) guarantees the map
     holds no live wakers at any snapshot point. *)
  Machine.on_snapshot machine (fun () -> let w = t.waiters in fun () -> t.waiters <- w);
  t

(* Client wrappers *)

let iv = Interp.int_value
let ti = Interp.to_int

let futex_wait ctx ~word ~expected ?(timeout = 0) () =
  match
    Kernel.call1 ctx ~import:"sched.futex_wait" [ word; iv expected; iv timeout ]
  with
  | Ok r when ti r = r_woken -> `Woken
  | Ok r when ti r = r_timeout -> `Timed_out
  | Ok _ -> `Value_changed
  | Error _ -> `Value_changed

let futex_wake ctx ~word ~count =
  match Kernel.call1 ctx ~import:"sched.futex_wake" [ word; iv count ] with
  | Ok r -> ti r
  | Error _ -> 0

let multiwait ctx ~events ?(timeout = 0) () =
  (* Build the event buffer in the caller's stack frame. *)
  let k = ctx.Kernel.kernel in
  let count = List.length events in
  let size = 16 * count in
  (* Reserve the buffer in the caller's stack frame: the callee's
     (zeroed) stack window starts below it. *)
  let ctx, buf = Kernel.stack_alloc ctx size in
  let buf_base = Cap.base buf in
  List.iteri
    (fun i (c, expected) ->
      Machine.store_cap (Kernel.machine k) ~auth:buf ~addr:(buf_base + (16 * i)) c;
      Machine.store (Kernel.machine k) ~auth:buf
        ~addr:(buf_base + (16 * i) + 8)
        ~size:4 expected)
    events;
  match
    Kernel.call1 ctx ~import:"sched.multiwait" [ buf; iv count; iv timeout ]
  with
  | Ok r when ti r >= 0 -> `Fired (ti r)
  | Ok _ -> `Timed_out
  | Error _ -> `Timed_out

let interrupt_futex ctx ~irq =
  match Kernel.call1 ctx ~import:"sched.interrupt_futex" [ iv irq ] with
  | Ok c -> c
  | Error _ -> Cap.null

