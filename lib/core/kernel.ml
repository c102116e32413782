module Cap = Capability

type value = Cap.t

type t = {
  machine : Machine.t;
  interp : Interp.t;
  loader : Loader.t;
  comps : comp_runtime array;
  threads : thread array;
  mutable current : int option;
  mutable last_ran : int option;
  mutable idle : int;
  mutable switches : int;
  mutable stop : bool;
  mutable preempt_pending : bool;
  pad_ret_enable : Cap.t;
  pad_ret_disable : Cap.t;
      (* the return pad's two backward sentries, sealed once *)
  mutable ks : kernel_state;
}

(* Cold state: immutable records behind one mutable field each, so a
   snapshot keeps the record and a restore writes it back.  Recovery
   state lives on the kernel, never at module level: several kernels
   must be able to run concurrently (one per farm domain) without
   observing each other's reboots or budgets. *)
and kernel_state = {
  irq_handler : (int -> unit) option;
  call_fault_hook : (comp:string -> entry:string -> bool) option;
  reboot_cycles : int;
  reboot_hook : (comp:string -> cycle:int -> unit) option;
}

and comp_runtime = {
  layout : Loader.comp_layout;
  mutable st : comp_state;
  imports : import_memo;
}

(* Import-table slot addresses this compartment's calls looked up by
   name, keyed by the name string itself (physical equality: a call site
   passes the same literal every time; a name built per call misses and
   is looked up in the table, as correct but slower).  A cache of the immutable
   layout, so a restore need not touch it; it lives on the compartment
   of one kernel, never at module level, because images booted in one
   process (or on farm domains) share names but not slot orders. *)
and import_memo = {
  names : string array;
  addrs : int array;  (** -1 = empty entry; the last cell is the next victim *)
}

and comp_state = {
  impls : entry_impl array;
      (** indexed like [layout.lc_entries]; never written in place *)
  on_error : error_handler option;
  poisoned : bool;
  reboots : int;
  (* The repeat-attack limiter (§5.1.2): at most [max] reboots within
     any [window] cycles, the reboot timestamps (newest first) and
     whether it tripped. *)
  limit : (int * int) option;  (** [(max, window)] *)
  reboot_history : int list;
  locked : bool;
}

and thread = {
  tid : int;
  tlayout : Loader.thread_layout;
  mutable state : tstate;
  mutable resume : (wake_reason -> unit) option;
  mutable wake_value : wake_reason;
  mutable deadline : int option;
  mutable started : bool;
  mutable hazards : value list;
  mutable watermark : int;
}

and tstate = Ready | Running | Blocked | Finished

and ctx = {
  kernel : t;
  comp_id : int;
  thread_id : int;
  csp : value;
  cgp : value;
}

and fault_info = {
  fault_cause : string;
  fault_addr : int;
  fault_comp : string;
  fault_thread : int;
}

and entry_impl = ctx -> value array -> value * value
and error_handler = ctx -> fault_info -> [ `Unwind ]
and wake_reason = Woken of int | Timed_out

type call_error =
  | Fault_in_callee
  | Invalid_import
  | Insufficient_stack
  | Trusted_stack_exhausted
  | Compartment_poisoned

let pp_call_error ppf e =
  Fmt.string ppf
    (match e with
    | Fault_in_callee -> "fault in callee"
    | Invalid_import -> "invalid import"
    | Insufficient_stack -> "insufficient stack"
    | Trusted_stack_exhausted -> "trusted stack exhausted"
    | Compartment_poisoned -> "compartment poisoned")

type _ Effect.t +=
  | Eff_yield : unit Effect.t
  | Eff_suspend :
      (int option * ((wake_reason -> bool) -> unit))
      -> wake_reason Effect.t

(* Accessors *)

let machine t = t.machine
let interp t = t.interp
let loader t = t.loader
let firmware t = t.loader.Loader.fw

let comp_id t name =
  match
    Array.to_seq t.comps
    |> Seq.filter (fun c -> c.layout.Loader.lc_name = name)
    |> Seq.uncons
  with
  | Some (c, _) -> c.layout.Loader.lc_id
  | None -> invalid_arg ("unknown compartment " ^ name)

let comp_name t id = t.comps.(id).layout.Loader.lc_name
let thread_count t = Array.length t.threads
let thread_name t i = t.threads.(i).tlayout.Loader.lt_name
let idle_cycles t = t.idle
let context_switches t = t.switches
let set_irq_handler t h = t.ks <- { t.ks with irq_handler = h }
let set_call_fault_hook t h = t.ks <- { t.ks with call_fault_hook = h }

(* Run-queue sanity: the structural invariants the scheduler loop relies
   on, checked from outside (fault-campaign invariant). *)
let check_sanity t =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let running = ref 0 in
  Array.iter
    (fun th ->
      (match th.state with Running -> incr running | _ -> ());
      (match (th.state, th.deadline) with
      | (Ready | Running | Finished), Some _ ->
          fail "thread %d holds a wake deadline while %s" th.tid
            (match th.state with Ready -> "ready" | Running -> "running"
            | _ -> "finished")
      | _ -> ());
      (match (th.state, th.resume) with
      | Blocked, None ->
          fail "thread %d is blocked with no way to resume" th.tid
      | _ -> ());
      let sb = th.tlayout.Loader.lt_stack_base in
      let ss = th.tlayout.Loader.lt_stack_size in
      if th.watermark < sb || th.watermark > sb + ss then
        fail "thread %d stack watermark 0x%x outside [0x%x..0x%x]" th.tid
          th.watermark sb (sb + ss))
    t.threads;
  (match t.current with
  | Some i when t.threads.(i).state <> Running ->
      fail "current thread %d is not in the running state" i
  | Some _ -> ()
  | None -> if !running > 0 then fail "a thread is running with no current");
  if !running > 1 then fail "%d threads running simultaneously" !running;
  match !errs with [] -> Ok () | e -> Error (String.concat "; " e)

(* Boot *)

(* Entries in a compartment's import memo. *)
let import_memo_size = 16

(* The preemption timeslice, in cycles. *)
let quantum = 2000

(* What an entry runs until [implement] binds it. *)
let unimplemented (l : Loader.comp_layout) (e : Firmware.entry) : entry_impl =
 fun _ _ ->
  failwith
    (Printf.sprintf "entry %s.%s has no implementation" l.Loader.lc_name
       e.Firmware.entry_name)

(* The return pad's backward sentry of [kind]: 16 executable bytes at
   [Abi.return_pad].  Immutable, so each kernel seals its two once. *)
let pad_sentry_of kind =
  Cap.exn
    (Cap.seal_entry
       (Cap.make_root ~base:Abi.return_pad ~top:(Abi.return_pad + 16)
          ~perms:Perm.Set.executable)
       kind)

let boot ~machine fw =
  let interp = Interp.create machine in
  match Loader.load fw machine interp with
  | Error _ as e -> e
  | Ok ld ->
      let comps =
        Array.of_list
          (List.map
             (fun layout ->
               { layout;
                 imports =
                   { names = Array.make import_memo_size "";
                     addrs = Array.append (Array.make import_memo_size (-1)) [| 0 |] };
                 st =
                   { impls = Array.map (unimplemented layout) layout.Loader.lc_entries;
                     on_error = None; poisoned = false; reboots = 0;
                     limit = None; reboot_history = []; locked = false } })
             ld.Loader.comps)
      in
      let threads =
        Array.of_list
          (List.map
             (fun (tl : Loader.thread_layout) ->
               {
                 tid = tl.Loader.lt_id;
                 tlayout = tl;
                 state = Ready;
                 resume = None;
                 wake_value = Timed_out;
                 deadline = None;
                 started = false;
                 hazards = [];
                 watermark = tl.Loader.lt_stack_base + tl.Loader.lt_stack_size;
               })
             ld.Loader.threads)
      in
      Loader.erase_loader ld;
      let k =
        {
          machine;
          interp;
          loader = ld;
          comps;
          threads;
          current = None;
          last_ran = None;
          idle = 0;
          switches = 0;
          stop = false;
          preempt_pending = false;
          pad_ret_enable = pad_sentry_of Cap.Otype.Return_enable;
          pad_ret_disable = pad_sentry_of Cap.Otype.Return_disable;
          ks =
            { irq_handler = None; call_fault_hook = None; reboot_cycles = 50_000;
              reboot_hook = None };
        }
      in
      let deliver irq =
        Option.iter (fun h -> h irq) k.ks.irq_handler;
        if irq = Machine.timer_irq && k.current <> None then
          k.preempt_pending <- true
      in
      Machine.set_deliver_hook machine (Some deliver);
      Machine.set_post_tick_hook machine
        (Some
           (fun () ->
             if k.preempt_pending then
               if k.current <> None then begin
                 k.preempt_pending <- false;
                 Effect.perform Eff_yield
               end
               else
                 (* Can't preempt yet: keep the machine on the event path
                    so this hook runs again at the very next tick. *)
                 Machine.request_attention machine));
      Machine.on_snapshot machine (fun () ->
          (* Quiescence contract: a suspended thread's [resume] closure
             wraps an effect continuation, which is one-shot and cannot
             be copied, so the kernel only snapshots when no thread is
             mid-effect (all unstarted or finished, or parked with no
             pending resume) — see the snapshot invariant in DESIGN.md.
             Post-boot/pre-run and post-run states qualify.  Thread
             records and scheduling counters are hot state, copied
             field by field; the rest is the two immutable records. *)
          Array.iter
            (fun th ->
              if th.state = Running || th.resume <> None then
                invalid_arg
                  (Printf.sprintf
                     "Kernel snapshot: thread %d suspended mid-effect \
                      (snapshots require a quiescent kernel)"
                     th.tid))
            k.threads;
          let ks = k.ks and sts = Array.map (fun c -> c.st) k.comps in
          let threads =
            Array.map
              (fun th ->
                ( th.state, th.wake_value, th.deadline, th.started, th.hazards,
                  th.watermark ))
              k.threads
          in
          let current = k.current and last_ran = k.last_ran in
          let idle = k.idle and switches = k.switches in
          let stop = k.stop and preempt_pending = k.preempt_pending in
          fun () ->
            k.ks <- ks; Array.iteri (fun i c -> c.st <- sts.(i)) k.comps;
            Array.iteri
              (fun i (state, wake_value, deadline, started, hazards, watermark) ->
                let th = k.threads.(i) in
                th.state <- state;
                th.resume <- None;
                th.wake_value <- wake_value;
                th.deadline <- deadline;
                th.started <- started;
                th.hazards <- hazards;
                th.watermark <- watermark)
              threads;
            k.current <- current;
            k.last_ran <- last_ran;
            k.idle <- idle;
            k.switches <- switches;
            k.stop <- stop;
            k.preempt_pending <- preempt_pending);
      Ok k

(* Registration *)

let comp_runtime t name = t.comps.(comp_id t name)

let implement t ~comp ~entry impl =
  let c = comp_runtime t comp in
  match Loader.entry_index c.layout entry with
  | Some i ->
      let impls = Array.copy c.st.impls in
      impls.(i) <- impl;
      c.st <- { c.st with impls }
  | None -> invalid_arg (Printf.sprintf "compartment %s has no entry %s" comp entry)

let implement1 t ~comp ~entry f =
  implement t ~comp ~entry (fun ctx args -> (f ctx args, Cap.null))

let set_error_handler t ~comp h =
  let c = comp_runtime t comp in
  let fw_comp = Option.get (Firmware.find_compartment (firmware t) comp) in
  if not fw_comp.Firmware.has_error_handler then
    invalid_arg
      (Printf.sprintf
         "compartment %s did not declare an error handler in the firmware" comp);
  c.st <- { c.st with on_error = Some h }

(* Helpers *)

(* The index of the compartment whose code region holds [addr], or -1.
   Code regions are disjoint; scanning from the end keeps the
   last-match-wins answer of a full scan while stopping at the first
   hit. *)
let rec scan_code comps addr i =
  if i < 0 then -1
  else
    let l = (Array.unsafe_get comps i).layout in
    if addr >= l.Loader.lc_code_base && addr < l.Loader.lc_code_base + l.Loader.lc_code_size
    then i
    else scan_code comps addr (i - 1)

let comp_of_code_addr t addr = scan_code t.comps addr (Array.length t.comps - 1)

(* The native entry's name as crash dumps show it; only the poisoned
   and fault paths read it. *)
let entry_label comp (entry : Firmware.entry) =
  Printf.sprintf "native %s.%s" comp.layout.Loader.lc_name entry.Firmware.entry_name

let pad_sentry t =
  if Machine.irq_enabled t.machine then t.pad_ret_enable else t.pad_ret_disable

let reboot_count t ~comp = (comp_runtime t comp).st.reboots

let reboot_cycles t = t.ks.reboot_cycles
let set_reboot_cycles t n = t.ks <- { t.ks with reboot_cycles = n }

let set_reboot_hook t h = t.ks <- { t.ks with reboot_hook = h }

(* Micro-reboot (§3.2.6) *)

type reboot_steps = {
  wake_blocked : unit -> unit;
  release_heap : unit -> unit;
  reset_state : unit -> unit;
}

let set_reboot_limit t ~comp ~max_reboots ~window =
  let c = comp_runtime t comp in
  c.st <-
    { c.st with limit = Some (max_reboots, window); reboot_history = []; locked = false }

let locked_out t ~comp =
  let c = (comp_runtime t comp).st in
  c.locked && c.poisoned

let clear_lockout t ~comp =
  let c = comp_runtime t comp in
  c.st <- { c.st with locked = false; reboot_history = []; poisoned = false }

(* Pristine globals.  A firmware image declares only a globals size,
   never initial data, so every compartment's boot-time globals are all
   zeros; the charge models copying that image back, one capability-width
   store per 8 bytes. *)
let reset_globals t c =
  let l = c.layout in
  let size = l.Loader.lc_globals_size in
  if size > 0 then begin
    Machine.tick t.machine (size / 8 * Cost.mem_cap);
    Memory.zero_priv (Machine.mem t.machine) ~addr:l.Loader.lc_globals_base
      ~len:size
  end

(* Counts this reboot against the limiter; true when the compartment may
   reopen. *)
let within_limit t c =
  match c.st.limit with
  | None -> true
  | Some (max_reboots, window) ->
      let now = Machine.cycles t.machine in
      let reboot_history =
        now :: List.filter (fun at -> now - at <= window) c.st.reboot_history
      in
      let locked = List.length reboot_history > max_reboots in
      c.st <- { c.st with reboot_history; locked = locked || c.st.locked };
      not locked

let micro_reboot ctx steps =
  let t = ctx.kernel in
  let c = t.comps.(ctx.comp_id) in
  let comp = c.layout.Loader.lc_name in
  (* Step 1: close the guard — calls into the compartment now fail with
     [Compartment_poisoned] instead of reaching stale state. *)
  c.st <- { c.st with poisoned = true };
  (* Step 2: every parked thread must unwind with an error. *)
  steps.wake_blocked ();
  (* Step 3: drop all heap state owned by this compartment. *)
  steps.release_heap ();
  (* Step 4: pristine globals + component-specific reset. *)
  reset_globals t c;
  steps.reset_state ();
  (* Modelled reset latency, then record the reboot.  The flight
     recorder rides the machine and the hook the kernel, so concurrently
     live kernels never see each other's reboots. *)
  Machine.tick t.machine t.ks.reboot_cycles;
  c.st <- { c.st with reboots = c.st.reboots + 1 };
  Option.iter (fun f -> Forensics.note_reboot f ~comp) (Machine.forensics t.machine);
  Option.iter (fun h -> h ~comp ~cycle:(Machine.cycles t.machine)) t.ks.reboot_hook;
  (* Step 5: reopen — unless the rate limiter says this compartment is
     being reboot-bombed. *)
  if within_limit t c then c.st <- { c.st with poisoned = false }

(* Ephemeral claims: two hazard slots per thread, cleared at the next
   compartment call (§3.2.5). *)

let ephemeral_claim ctx v =
  let th = ctx.kernel.threads.(ctx.thread_id) in
  (* Switcher hazard-slot update: Table 3 reports 182 cycles. *)
  Machine.tick ctx.kernel.machine (170 + (2 * Cost.mem_cap));
  th.hazards <- (match th.hazards with [] -> [ v ] | h :: _ -> [ v; h ])

let ephemeral_claims t ~thread = t.threads.(thread).hazards

(* Trusted-stack native manipulation (trap path). *)

let ts_load t th ~off ~size =
  Memory.load_priv (Machine.mem t.machine)
    ~addr:(th.tlayout.Loader.lt_tstack_base + off) ~size

let ts_store t th ~off ~size v =
  Memory.store_priv (Machine.mem t.machine)
    ~addr:(th.tlayout.Loader.lt_tstack_base + off) ~size v

(* Forced unwind: pop the top trusted frame, zero the callee's stack
   window and the frame itself.  The switcher would do this in its trap
   path; we model it natively with charged costs. *)
let forced_unwind t th =
  let mem = Machine.mem t.machine in
  let tsb = th.tlayout.Loader.lt_tstack_base in
  let tsp = ts_load t th ~off:Abi.ts_tsp ~size:4 in
  assert (tsp > Abi.ts_frames);
  let fr = tsb + tsp - Abi.frame_size in
  let min_stack = Memory.load_priv mem ~addr:(fr + Abi.frame_min_stack) ~size:4 in
  let caller_csp = Memory.load_cap_priv mem ~addr:(fr + Abi.frame_caller_csp) in
  let top = Cap.address caller_csp in
  if min_stack > 0 then begin
    Machine.tick t.machine (min_stack / 8 * Cost.mem_cap);
    Memory.zero_priv mem ~addr:(top - min_stack) ~len:min_stack
  end;
  Memory.zero_priv mem ~addr:fr ~len:Abi.frame_size;
  ts_store t th ~off:Abi.ts_tsp ~size:4 (tsp - Abi.frame_size);
  Machine.tick t.machine Cost.forced_unwind

let fault_info_of ~comp ~thread cause addr =
  { fault_cause = cause; fault_addr = addr; fault_comp = comp; fault_thread = thread }

(* Crash-dump capture (flight recorder, see Forensics).  Pure
   observation: copy the interpreter's register file (its packed words)
   and hand the recorder a function that renders the copy — no ticks, no
   simulated-memory access, no text until a dump is read, and nothing is
   even allocated unless tracing is on and a recorder is attached. *)

let reg_names =
  [| "zero"; "ra"; "csp"; "cgp"; "ct0"; "ct1"; "ct2"; "ca0"; "ca1"; "ca2";
     "ca3"; "ca4"; "ca5"; "cs0"; "cs1"; "ct3" |]

let capture_dump t ~tid ~comp ~cause ~addr ~pc ~instr ~handler_ran =
  if Machine.tracing t.machine then
    match Machine.forensics t.machine with
    | None -> ()
    | Some f ->
        let saved = Interp.save_regs t.interp in
        Forensics.record_fault f
          ~cycle:(Machine.cycles t.machine)
          ~comp ~thread:tid ~cause ~addr ~pc ~instr ~regs:reg_names
          ~reg_value:(fun i -> Cap.to_string (Interp.saved_reg saved i))
          ~handler_ran

let trap_cause_string = function
  | Interp.Cap_fault v -> Cap.violation_to_string v
  | Interp.Software s -> s

let switcher_instr_at pc =
  let idx = (pc - Abi.switcher_code_base) / 4 in
  if pc >= Abi.switcher_code_base && idx < Isa.length Switcher.program then
    Fmt.str "%a" Isa.pp_instr (Isa.instr_at Switcher.program idx)
  else "-"

let record_scoped_fault ctx ~cause ~addr =
  let t = ctx.kernel in
  capture_dump t ~tid:ctx.thread_id ~comp:(comp_name t ctx.comp_id) ~cause ~addr
    ~pc:(-1) ~instr:"scoped handler" ~handler_ran:true

(* The faulted return: unwind the callee's frame, close its call and
   hand the caller [err]. *)
let fault_return t ~tid ~callee err =
  forced_unwind t t.threads.(tid);
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Call_leave { callee; tid; faulted = true });
  Error err

(* The compartment-call dance: native -> interpreted switcher -> native
   callee -> interpreted switcher return -> native.  A successful call
   answers [Ok ()] with the callee's results in ca0/ca1, where the
   return leg's switcher left them; [call] and [call1] read them from
   there before anything else runs on this interpreter. *)

(* The switcher's two legs, entered from constant sentries: the call
   sentry, and the return sentry the call leg leaves in [ra] for every
   callee (the switcher builds it from its own pcc). *)
let call_leg = Interp.entry Switcher.call_sentry
let return_leg = Interp.entry Switcher.return_sentry

(* The first six arguments go to ca0..ca5. *)
let rec set_args interp i = function
  | a :: rest when i < 6 ->
      Interp.set_reg interp (Isa.ca0 + i) a;
      set_args interp (i + 1) rest
  | _ -> ()

(* The register file a call leg starts from: NULL but for the return
   pad's sentry, the caller's stack and globals, the arguments and, set
   by the caller once this is done, the sealed export in ct2. *)
let prepare_call t ~tid ~csp ~cgp args =
  let interp = t.interp in
  let th = t.threads.(tid) in
  th.hazards <- [];
  Interp.set_special interp Isa.mtdc th.tlayout.Loader.lt_tstack;
  Interp.clear_regs interp;
  Interp.set_reg interp Isa.ra (pad_sentry t);
  Interp.set_reg interp Isa.csp csp;
  Interp.set_reg interp Isa.cgp cgp;
  set_args interp 0 args

let rec do_call t ~tid ~caller =
  let interp = t.interp in
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Switcher_call { tid });
  match Interp.enter interp call_leg with
  | addr -> dispatch t ~tid ~caller addr
  | exception Interp.Trap_exn tr ->
      if Machine.tracing t.machine then
        Machine.emit t.machine (Obs.Switcher_abort { tid });
      capture_dump t ~tid ~comp:"switcher"
        ~cause:(trap_cause_string tr.Interp.tcause)
        ~addr:(-1) ~pc:tr.Interp.tpc
        ~instr:(switcher_instr_at tr.Interp.tpc) ~handler_ran:false;
      (match tr.Interp.tcause with
      | Interp.Software s ->
          if s = Switcher.insufficient_stack then Error Insufficient_stack
          else if s = Switcher.trusted_stack_overflow then Error Trusted_stack_exhausted
          else Error Invalid_import
      | _ -> Error Invalid_import)

and dispatch t ~tid ~caller addr =
  let ci = comp_of_code_addr t addr in
  if ci < 0 then begin
    if Machine.tracing t.machine then
      Machine.emit t.machine (Obs.Switcher_abort { tid });
    capture_dump t ~tid ~comp:"switcher"
      ~cause:"call target outside any compartment" ~addr ~pc:addr ~instr:"-"
      ~handler_ran:false;
    Error Invalid_import
  end
  else begin
    let comp = t.comps.(ci) in
    let entry_idx = (addr - comp.layout.Loader.lc_code_base) / 4 in
    let callee_csp = Interp.get_reg t.interp Isa.csp in
    let callee_cgp = Interp.get_reg t.interp Isa.cgp in
    let entry = comp.layout.Loader.lc_entries.(entry_idx) in
    let callee = comp.layout.Loader.lc_name in
    let callee_ctx =
      {
        kernel = t;
        comp_id = comp.layout.Loader.lc_id;
        thread_id = tid;
        csp = callee_csp;
        cgp = callee_cgp;
      }
    in
    if Machine.tracing t.machine then
      Machine.emit t.machine
        (Obs.Call_enter
           { caller; callee; entry = entry.Firmware.entry_name; tid });
    let entry_addr = comp.layout.Loader.lc_code_base + (4 * entry_idx) in
    if comp.st.poisoned then begin
      capture_dump t ~tid ~comp:callee ~cause:"compartment poisoned"
        ~addr:(-1) ~pc:entry_addr ~instr:(entry_label comp entry)
        ~handler_ran:false;
      fault_return t ~tid ~callee Compartment_poisoned
    end
    else if
      (* Fault injection: a crash at the compartment-call boundary,
         as if the callee trapped on its first instruction. *)
      match t.ks.call_fault_hook with
      | Some f ->
          f ~comp:comp.layout.Loader.lc_name
            ~entry:entry.Firmware.entry_name
      | None -> false
    then
      handle_callee_fault t ~tid ~entry_addr ~entry comp callee_ctx
        "injected crash" (-1)
    else begin
      let arity = entry.Firmware.arity in
      let args = Array.make arity Cap.null in
      for i = 0 to arity - 1 do
        Array.unsafe_set args i (Interp.get_reg t.interp (Isa.ca0 + i))
      done;
      match comp.st.impls.(entry_idx) callee_ctx args with
      | r0, r1 -> finish_call t ~tid ~callee ~callee_csp r0 r1
      | exception Memory.Fault f ->
          handle_callee_fault t ~tid ~entry_addr ~entry comp callee_ctx
            (Cap.violation_to_string f.Memory.cause)
            f.Memory.addr
      | exception Cap.Derivation v ->
          handle_callee_fault t ~tid ~entry_addr ~entry comp callee_ctx
            (Cap.violation_to_string v) (-1)
    end
  end

(* No register clear before the return leg: the leg writes every
   register but ca0/ca1 (set here) and csp (set here) before it reads
   it — [Cspecialrw] into ct0, loads into cs0/cs1, [Li] into ct1,
   [Cincaddr] into ct3, [Cgetbase]/[Cgetlen] into ct1/ct2, [Clc] of
   csp/ra/cgp and the ten [Mv r, zero] — and a trap in it raises with
   no register dump. *)
and finish_call t ~tid ~callee ~callee_csp r0 r1 =
  let interp = t.interp in
  let th = t.threads.(tid) in
  Interp.set_special interp Isa.mtdc th.tlayout.Loader.lt_tstack;
  Interp.set_reg interp Isa.ca0 r0;
  Interp.set_reg interp Isa.ca1 r1;
  Interp.set_reg interp Isa.csp callee_csp;
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Switcher_return { tid });
  match Interp.enter interp return_leg with
  | pad when pad = Abi.return_pad ->
      if Machine.tracing t.machine then
        Machine.emit t.machine (Obs.Call_leave { callee; tid; faulted = false });
      Ok ()
  | _ -> failwith "switcher return escaped to unknown address"
  | exception Interp.Trap_exn tr ->
      failwith (Fmt.str "switcher return path trapped: %a" Interp.pp_trap tr)

and handle_callee_fault t ~tid ~entry_addr ~entry comp ctx cause addr =
  capture_dump t ~tid ~comp:comp.layout.Loader.lc_name ~cause ~addr
    ~pc:entry_addr ~instr:(entry_label comp entry)
    ~handler_ran:(comp.st.on_error <> None);
  Machine.tick t.machine Cost.trap_entry;
  let fi =
    fault_info_of ~comp:comp.layout.Loader.lc_name ~thread:tid cause addr
  in
  (match comp.st.on_error with
  | None -> ()
  | Some handler -> (
      Machine.tick t.machine Cost.error_handler_dispatch;
      (* The handler runs in the compartment's own context; a second
         fault inside it forces the unwind anyway. *)
      match handler ctx fi with
      | `Unwind -> ()
      | exception Memory.Fault _ | exception Cap.Derivation _ -> ()));
  fault_return t ~tid ~callee:comp.layout.Loader.lc_name Fault_in_callee

(* Public call API *)

let import_slot_addr l name =
  match Loader.import_slot l name with
  | slot -> Loader.import_slot_addr l slot
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf
           "%s does not import %s: not in the import table, not callable"
           l.Loader.lc_name name)

let load_import t l addr = Machine.load_cap t.machine ~auth:l.Loader.lc_import_cap ~addr

let import_cap t ~comp name =
  let l = Loader.find_comp t.loader comp in
  load_import t l (import_slot_addr l name)

(* Entries fill from 0 up, so the scan stops at the first empty one. *)
let rec memo_find names addrs name i =
  if i >= import_memo_size then -1
  else
    let a = Array.unsafe_get addrs i in
    if a < 0 then -1
    else if Array.unsafe_get names i == name then a
    else memo_find names addrs name (i + 1)

(* [import_slot_addr] through the compartment's memo; a name the table
   lacks raises as before and is not remembered. *)
let memo_slot_addr c name =
  let { names; addrs } = c.imports in
  let a = memo_find names addrs name 0 in
  if a >= 0 then a
  else begin
    let a = import_slot_addr c.layout name in
    let v = addrs.(import_memo_size) in
    names.(v) <- name;
    addrs.(v) <- a;
    addrs.(import_memo_size) <- (v + 1) mod import_memo_size;
    a
  end

let ctx_import_cap ctx name =
  let t = ctx.kernel in
  let c = t.comps.(ctx.comp_id) in
  load_import t c.layout (memo_slot_addr c name)

(* The import is loaded as [ctx_import_cap] loads it, charge and check
   first, but straight into ct2 once the register file is set up, so
   the sealed export is never boxed.  Nothing ticks between the check
   and the load. *)
let call_through ctx ~import args =
  let t = ctx.kernel in
  let c = t.comps.(ctx.comp_id) in
  let auth = c.layout.Loader.lc_import_cap in
  let addr = memo_slot_addr c import in
  Machine.charge_load_cap t.machine ~auth ~addr;
  prepare_call t ~tid:ctx.thread_id ~csp:ctx.csp ~cgp:ctx.cgp args;
  Interp.load_cap_reg t.interp Isa.ct2 ~addr ~perms:(Cap.perms auth);
  do_call t ~tid:ctx.thread_id ~caller:c.layout.Loader.lc_name

let call ctx ~import args =
  match call_through ctx ~import args with
  | Ok () ->
      let interp = ctx.kernel.interp in
      Ok (Interp.get_reg interp Isa.ca0, Interp.get_reg interp Isa.ca1)
  | Error _ as e -> e

let call1 ctx ~import args =
  match call_through ctx ~import args with
  | Ok () -> Ok (Interp.get_reg ctx.kernel.interp Isa.ca0)
  | Error _ as e -> e

let lib_call ctx ~import args =
  let t = ctx.kernel in
  let sentry = ctx_import_cap ctx import in
  Machine.tick t.machine Cost.library_call;
  match Cap.otype sentry with
  | Cap.Otype.Sentry _ | Cap.Otype.Unsealed -> (
      let target = Cap.address sentry in
      let li = comp_of_code_addr t target in
      if li >= 0 && t.comps.(li).layout.Loader.lc_kind = Firmware.Library then
        let lib = t.comps.(li) in
        let entry_idx = (target - lib.layout.Loader.lc_code_base) / 4 in
        (* Library code runs in the *caller's* security context. *)
        lib.st.impls.(entry_idx) ctx (Array.of_list args)
      else invalid_arg ("lib_call: " ^ import ^ " is not a library entry"))
  | Cap.Otype.Data _ -> invalid_arg ("lib_call: " ^ import ^ " is a sealed data import")

(* Threads *)

let yield _ctx = Effect.perform Eff_yield

let suspend _ctx ?deadline ~register () =
  Effect.perform (Eff_suspend (deadline, register))

let sleep ctx n =
  let t = ctx.kernel in
  let d = Machine.cycles t.machine + n in
  ignore (suspend ctx ~deadline:d ~register:(fun _ -> ()) ())

let with_interrupts_disabled ctx f =
  let m = ctx.kernel.machine in
  let saved = Machine.irq_enabled m in
  Machine.set_irq_enabled m false;
  Fun.protect ~finally:(fun () -> Machine.set_irq_enabled m saved) f

let stack_watermark t ~thread = t.threads.(thread).watermark

let note_stack_use ctx n =
  let th = ctx.kernel.threads.(ctx.thread_id) in
  let cur = Cap.address ctx.csp - n in
  if cur < th.watermark then th.watermark <- cur;
  { ctx with csp = Cap.exn (Cap.with_address ctx.csp cur) }

let stack_alloc ctx n =
  let n = (n + 7) / 8 * 8 in
  let ctx = note_stack_use ctx n in
  let buf =
    Cap.exn (Cap.set_bounds (Cap.exn (Cap.with_address ctx.csp (Cap.address ctx.csp))) ~length:n)
  in
  (ctx, buf)

(* Scheduler *)

let thread_body t th () =
  let tl = th.tlayout in
  let caller = "thread:" ^ tl.Loader.lt_name in
  prepare_call t ~tid:th.tid ~csp:tl.Loader.lt_stack ~cgp:Cap.null [];
  Interp.set_reg t.interp Isa.ct2 tl.Loader.lt_entry_cap;
  ignore (do_call t ~tid:th.tid ~caller)

let handler t th =
  {
    Effect.Deep.retc = (fun () -> th.state <- Finished);
    exnc =
      (fun e ->
        th.state <- Finished;
        match e with
        | Memory.Fault f ->
            (* A fault with no enclosing compartment frame kills the
               thread (it unwound out of its root call). *)
            Logs.warn (fun m ->
                m "thread %s died: %s" th.tlayout.Loader.lt_name
                  (Memory.fault_to_string f))
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Eff_yield ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                th.state <- Ready;
                th.wake_value <- Woken 0;
                th.resume <- Some (fun _ -> Effect.Deep.continue k ()))
        | Eff_suspend (deadline, register) ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                if Machine.tracing t.machine then
                  Machine.emit t.machine (Obs.Thread_block { tid = th.tid });
                th.state <- Blocked;
                th.deadline <- deadline;
                th.resume <- Some (fun reason -> Effect.Deep.continue k reason);
                let fired = ref false in
                register (fun reason ->
                    if (not !fired) && th.state = Blocked then begin
                      fired := true;
                      th.deadline <- None;
                      th.wake_value <- reason;
                      th.state <- Ready;
                      if Machine.tracing t.machine then
                        Machine.emit t.machine
                          (Obs.Thread_wake
                             {
                               tid = th.tid;
                               reason =
                                 (match reason with
                                 | Woken _ -> "woken"
                                 | Timed_out -> "timeout");
                             });
                      true
                    end
                    else false))
        | _ -> None);
  }

(* Highest priority wins; equal priorities round-robin, starting after
   the thread that ran last. *)
let pick_ready t =
  let n = Array.length t.threads in
  if n = 0 then None
  else begin
    let best_prio = ref min_int in
    Array.iter
      (fun th ->
        if th.state = Ready && th.tlayout.Loader.lt_priority > !best_prio then
          best_prio := th.tlayout.Loader.lt_priority)
      t.threads;
    if !best_prio = min_int then None
    else begin
      let start = match t.last_ran with Some i -> i + 1 | None -> 0 in
      let rec scan k =
        if k >= n then None
        else
          let th = t.threads.((start + k) mod n) in
          if th.state = Ready && th.tlayout.Loader.lt_priority = !best_prio then
            Some th
          else scan (k + 1)
      in
      scan 0
    end
  end

let charge_switch t =
  t.switches <- t.switches + 1;
  Machine.tick t.machine
    (Cost.trap_entry + (2 * Cost.register_spill) + Cost.sched_decision)

let run_one t th =
  if Machine.tracing t.machine then
    Machine.emit t.machine
      (Obs.Thread_dispatch { tid = th.tid; name = th.tlayout.Loader.lt_name });
  (match t.last_ran with
  | Some last when last = th.tid -> ()
  | Some _ | None -> charge_switch t);
  t.last_ran <- Some th.tid;
  t.current <- Some th.tid;
  th.state <- Running;
  Machine.set_timer t.machine (Some (Machine.cycles t.machine + quantum));
  (if not th.started then begin
     th.started <- true;
     Effect.Deep.match_with (thread_body t th) () (handler t th)
   end
   else
     match th.resume with
     | Some r ->
         th.resume <- None;
         r th.wake_value
     | None -> th.state <- Finished);
  t.current <- None;
  Machine.set_timer t.machine None

let wake_timeouts t =
  let now = Machine.cycles t.machine in
  Array.iter
    (fun th ->
      match (th.state, th.deadline) with
      | Blocked, Some d when d <= now ->
          th.deadline <- None;
          th.wake_value <- Timed_out;
          th.state <- Ready;
          if Machine.tracing t.machine then
            Machine.emit t.machine
              (Obs.Thread_wake { tid = th.tid; reason = "timeout" })
      | _ -> ())
    t.threads

let next_deadline t =
  Array.fold_left
    (fun acc th ->
      match (th.state, th.deadline) with
      | Blocked, Some d -> (
          match acc with Some a -> Some (Int.min a d) | None -> Some d)
      | _ -> acc)
    None t.threads

(* The largest k <= n such that k chunks fit below the event horizon
   ([Machine.defer_window] is monotone in its argument), by bisection. *)
let fast_chunks m ~chunk n =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if Machine.defer_window m (mid * chunk) then go mid hi else go lo (mid - 1)
  in
  if n <= 0 then 0 else if Machine.defer_window m (n * chunk) then n else go 0 (n - 1)

let run ?until_cycles t =
  let m = t.machine in
  let over () =
    match until_cycles with Some c -> Machine.cycles m >= c | None -> false
  in
  let rec loop () =
    if t.stop || over () then ()
    else begin
      wake_timeouts t;
      match pick_ready t with
      | Some th ->
          run_one t th;
          loop ()
      | None ->
          let alive = Array.exists (fun th -> th.state <> Finished) t.threads in
          if not alive then ()
          else begin
            let target =
              match next_deadline t with
              | Some d -> Some (Int.max d (Machine.cycles m + 1))
              | None ->
                  if Machine.revoker_busy m then Some (Machine.cycles m + 256)
                  else None
            in
            match target with
            | Some d ->
                if Machine.tracing m then Machine.emit m Obs.Sched_idle;
                let now = Machine.cycles m in
                let d =
                  match until_cycles with
                  | Some c -> Int.min d (Int.max (now + 1) c)
                  | None -> d
                in
                (* Advance in bounded chunks: simulated devices (tick
                   listeners) may raise interrupts that make a thread
                   runnable before the deadline. *)
                let chunk = 4096 in
                let stop_early = ref false in
                while (not !stop_early) && Machine.cycles m < d do
                  let now = Machine.cycles m in
                  let k = fast_chunks m ~chunk ((d - 1 - now) / chunk) in
                  if k > 0 then begin
                    (* Whole chunks ending before [d] and below the event
                       horizon: every tick among them takes the fast path
                       (no listener, timer or IRQ), so no thread state
                       changes, no deadline (all >= d) expires, and
                       [wake_timeouts]/[pick_ready] would find nothing
                       after any of them — one tick is exact. *)
                    t.idle <- t.idle + (k * chunk);
                    Machine.tick m (k * chunk)
                  end
                  else begin
                    let step = Int.min chunk (d - now) in
                    t.idle <- t.idle + step;
                    Machine.tick m step;
                    wake_timeouts t;
                    if pick_ready t <> None then stop_early := true
                  end
                done;
                loop ()
            | None ->
                failwith "scheduler: all threads blocked with nothing to wake them"
          end
    end
  in
  loop ()
