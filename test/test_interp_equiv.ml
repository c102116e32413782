(* Differential lockdown of the interpreter against the executable ISA
   spec (test/isa_spec.ml: boxed capabilities, one instruction per
   step, nothing packed, cached or batched).  On randomized programs
   covering every instruction, the engine must agree with the spec on
   everything observable — final registers, instructions retired,
   simulated cycles, outcome (including trap cause and faulting PC) and
   the emitted trace event stream.  The golden-cycles files pin the real
   workloads; this suite explores the weird corners (bound-edge
   branches, traps mid-loop, fuel exhaustion, sentry jumps) the
   workloads never reach, plus the corners specific to compiled blocks:
   an IRQ firing mid-block, a fault injected mid-block by external
   hardware, fuel running out inside a block (the one-instruction slow
   path), and a revocation edit between two executions of the same warm
   compiled block; the corners of memory access on the packed authority
   (the "access caches" and "direct checks" sections below); and the
   corners of mid-block exits and of Instr_sample boundaries falling
   inside, at the end of and mid-spin in deferred blocks under tracing
   ("trace blocks"); the corners of blocks folded through forward
   branches, whose paths retire different counts ("folded blocks"); and
   the whole switcher program, both legs, over generated call states
   ("switcher"). *)

module Cap = Capability
module Vm = Equiv_vm

let code_base = 0x4000_0000

(* ------------------------------------------------------------------ *)
(* One run on the engine or the spec                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_outcome : string;
  s_instret : int;
  s_cycles : int;
  s_regs : string list;
  s_events : string list;
}

(* One run's view and its memory as [mem_view] renders it. *)
type view_mem = snapshot * string

let outcome_to_string = function
  | Interp.Halted -> "halted"
  | Interp.Exited c -> "exited " ^ Cap.to_string c
  | Interp.Trapped tr -> Fmt.str "%a" Interp.pp_trap tr

let view machine obs interp outcome =
  {
    s_outcome = outcome_to_string outcome;
    s_instret = Vm.instret interp;
    s_cycles = Machine.cycles machine;
    s_regs = Array.to_list (Array.map Cap.to_string (Vm.read_regs interp));
    s_events = List.map (Fmt.str "%a" Obs.pp_event) (Obs.events obs);
  }

(* Memory as the oracle sees it: a digest of the SRAM words (the first
   [len] bytes, all of SRAM by default) plus every tagged granule with
   its capability. *)
let mem_view ?len machine =
  let mem = Machine.mem machine in
  let sram = Machine.sram_base machine in
  let len = Option.value len ~default:(Machine.sram_size machine) in
  let b = Buffer.create len in
  for i = 0 to (len / 4) - 1 do
    Buffer.add_string b
      (string_of_int (Memory.load_priv mem ~addr:(sram + (4 * i)) ~size:4));
    Buffer.add_char b ','
  done;
  let tags = ref [] in
  Memory.iter_caps mem (fun ~addr c ->
      tags := Fmt.str "0x%x=%s" addr (Cap.to_string c) :: !tags);
  String.concat " " (Digest.to_hex (Digest.string (Buffer.contents b)) :: List.rev !tags)

(* Generated programs write only through r6 and r7 and what they
   derive or load, all inside r6's 1 KiB, which starts seeded. *)
let gen_window = 1024

let run_one ~kind ~fuel prog =
  let machine = Machine.create () in
  let obs = Obs.create () in
  Machine.set_trace machine (Some obs);
  let interp = Vm.create kind machine in
  Vm.map_segment interp ~base:code_base prog;
  Equiv_gen.init_regs machine (Vm.set_reg interp);
  Equiv_gen.seed_window machine ~addr:(Machine.sram_base machine) ~len:gen_window;
  (* System_registers, so the generated Cspecialrw can succeed. *)
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:(Perm.Set.add Perm.System_registers Perm.Set.executable)
  in
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  Vm.set_reg interp 8 @@ entry;
  let outcome = Vm.run ~fuel interp entry in
  (view machine obs interp outcome, mem_view ~len:gen_window machine)

let diff_views what oracle got =
  let same l = String.concat "; " l in
  if got.s_outcome <> oracle.s_outcome then
    QCheck.Test.fail_reportf "%s outcome: %s vs %s" what got.s_outcome
      oracle.s_outcome;
  if got.s_instret <> oracle.s_instret then
    QCheck.Test.fail_reportf "%s instret: %d vs %d" what got.s_instret
      oracle.s_instret;
  if got.s_cycles <> oracle.s_cycles then
    QCheck.Test.fail_reportf "%s cycles: %d vs %d" what got.s_cycles
      oracle.s_cycles;
  if got.s_regs <> oracle.s_regs then
    QCheck.Test.fail_reportf "%s registers:@.%s@.vs@.%s" what
      (same got.s_regs) (same oracle.s_regs);
  if got.s_events <> oracle.s_events then
    QCheck.Test.fail_reportf "%s trace events:@.%s@.vs@.%s" what
      (same got.s_events) (same oracle.s_events)

let check_equiv ?(fuel = 2_000) prog =
  let oracle, oracle_mem = run_one ~kind:Vm.Spec ~fuel prog in
  let got, got_mem = run_one ~kind:Vm.Engine ~fuel prog in
  diff_views "engine" oracle got;
  if got_mem <> oracle_mem then
    QCheck.Test.fail_reportf "engine memory:@.%s@.vs@.%s" got_mem oracle_mem;
  true

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 0x3fffffff)

let prop_random_programs =
  QCheck.Test.make
    ~name:"engine == spec on random programs" ~count:300
    seed_gen
    (fun s ->
      let rng = Random.State.make [| s; 0x5eed |] in
      check_equiv (Equiv_gen.gen_program rng))

let prop_fuel_exhaustion =
  QCheck.Test.make ~name:"engine and spec agree at every fuel level"
    ~count:100
    (QCheck.pair seed_gen QCheck.(int_range 1 60))
    (fun (s, fuel) ->
      let rng = Random.State.make [| s; 0xf0e1 |] in
      check_equiv ~fuel (Equiv_gen.gen_program rng))

(* Hand-built corners the generator only rarely hits. *)

let test_bounds_fall_through () =
  (* Straight-line code running off the end of its segment must trap
     Bounds at the first address past it, in the engine as in the spec. *)
  let prog =
    Isa.assemble ~name:"fall" [ Isa.I (Isa.Li (1, 1)); Isa.I (Isa.Li (2, 2)) ]
  in
  ignore (check_equiv prog)

let test_narrow_pcc () =
  (* A pcc narrower than the segment: the in-segment check passes but
     the pcc bounds check must still fire, with the violation the spec
     reports.  The whole-block bounds precondition fails, forcing the
     engine onto its one-instruction slow path. *)
  let prog =
    Isa.assemble ~name:"narrow"
      [
        Isa.I (Isa.Li (1, 1));
        Isa.I (Isa.Li (2, 2));
        Isa.I (Isa.Li (3, 3));
        Isa.I Isa.Halt;
      ]
  in
  let run kind =
    let machine = Machine.create () in
    let interp = Vm.create kind machine in
    Vm.map_segment interp ~base:code_base prog;
    let pcc =
      Cap.make_root ~base:code_base ~top:(code_base + 8)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    ( outcome_to_string (Vm.run ~fuel:100 interp entry),
      Vm.instret interp,
      Machine.cycles machine )
  in
  Alcotest.(check (triple string int int))
    "narrow pcc agrees" (run Vm.Spec) (run Vm.Engine)

let test_jump_out_exits () =
  (* Cjalr to an address outside every segment leaves the interpreter
     (the kernel's native-trampoline convention). *)
  let prog =
    Isa.assemble ~name:"exit" [ Isa.I (Isa.Cjalr (1, 8)); Isa.I Isa.Halt ]
  in
  let run kind =
    let machine = Machine.create () in
    let interp = Vm.create kind machine in
    Vm.map_segment interp ~base:code_base prog;
    let sram = Machine.sram_base machine in
    let away =
      Cap.make_root ~base:sram ~top:(sram + 64) ~perms:Perm.Set.executable
    in
    Vm.set_reg interp 8
      @@ Cap.exn (Cap.seal_entry away Cap.Otype.Call_inherit);
    let pcc =
      Cap.make_root ~base:code_base
        ~top:(code_base + Isa.code_bytes prog)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    (outcome_to_string (Vm.run ~fuel:100 interp entry),
     Vm.instret interp)
  in
  Alcotest.(check (pair string int)) "exit agrees" (run Vm.Spec) (run Vm.Engine)

(* ------------------------------------------------------------------ *)
(* Compiled-block corners: the tight loop is one compiled block         *)
(* (Addi; Sw; Lw; Bne), the shape the deferred batching and self-loop  *)
(* spinning optimize hardest, perturbed by exactly the events those    *)
(* optimizations must not distort.                                     *)
(* ------------------------------------------------------------------ *)

let loop_prog trips =
  Isa.assemble ~name:"tight"
    [
      Isa.I (Isa.Li (4, 0));
      Isa.I (Isa.Li (5, trips));
      Isa.L "loop";
      Isa.I (Isa.Addi (4, 4, 1));
      Isa.I (Isa.Sw (4, 0, 6));
      Isa.I (Isa.Lw (7, 0, 6));
      Isa.I (Isa.Bne (4, 5, "loop"));
      Isa.I Isa.Halt;
    ]

(* Build a rig around [loop_prog] and hand the machine to [setup]
   before running, so each corner can arm its own perturbation. *)
let run_loop ~kind ?(fuel = 100_000) ~trips setup =
  let machine = Machine.create () in
  let obs = Obs.create () in
  Machine.set_trace machine (Some obs);
  let interp = Vm.create kind machine in
  let prog = loop_prog trips in
  Vm.map_segment interp ~base:code_base prog;
  let sram = Machine.sram_base machine in
  Vm.set_reg interp 6
    @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
  let extra = setup machine in
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  let outcome = Vm.run ~fuel interp entry in
  (view machine obs interp outcome, extra ())

let check_loop_matrix name ?fuel ~trips setup =
  let oracle, oracle_extra = run_loop ~kind:Vm.Spec ?fuel ~trips setup in
  let got, extra = run_loop ~kind:Vm.Engine ?fuel ~trips setup in
  diff_views name oracle got;
  Alcotest.(check (list (pair int int))) (name ^ " side observations") oracle_extra extra;
  oracle

let test_irq_mid_block () =
  (* A timer deadline landing mid-trip: the event horizon must stop the
     deferred batch (and the self-loop spin) short of the deadline so
     delivery happens at exactly the cycle the spec delivers at. *)
  let oracle =
    check_loop_matrix "irq mid-block" ~trips:200 (fun machine ->
        let delivered = ref [] in
        Machine.set_irq_enabled machine true;
        Machine.set_deliver_hook machine
          (Some
             (fun n -> delivered := (n, Machine.cycles machine) :: !delivered));
        (* 8 cycles per trip: cycle 501 is mid-trip, mid-block. *)
        Machine.set_timer machine (Some 501);
        fun () -> List.rev !delivered)
  in
  Alcotest.(check string) "loop still halts" "halted" oracle.s_outcome

let test_fault_mid_block () =
  (* External hardware revokes r6's base granule at an exact cycle: the
     wakeup shortens the horizon, the block runs non-deferred through
     the listener, and the very next Lw/Sw through r6 must see the
     revocation and trap at the same instruction as in the spec. *)
  let oracle =
    check_loop_matrix "fault mid-block" ~trips:200 (fun machine ->
        let mem = Machine.mem machine in
        let sram = Machine.sram_base machine in
        let h = Machine.add_tick_listener ~period:0 machine (fun _ ->
            Memory.set_revoked mem ~addr:sram ~len:8) in
        Machine.set_listener_wakeup machine h ~at:501;
        fun () -> [])
  in
  Alcotest.(check bool) "revocation mid-loop trapped" true
    (oracle.s_outcome <> "halted");
  Alcotest.(check bool) "trapped before the loop finished" true
    (oracle.s_instret < (200 * 4) + 3)

let test_fuel_inside_block () =
  (* Fuel that runs out inside the compiled block: the dispatcher's
     budget precondition fails and the remainder runs as one-instruction
     blocks, trapping "out of fuel" at the same pc and cycle as the
     spec.  Sweep fuel across several block phases. *)
  for fuel = 1 to 40 do
    ignore
      (check_loop_matrix
         (Printf.sprintf "fuel %d inside block" fuel)
         ~fuel ~trips:200
         (fun _ -> fun () -> []))
  done

let test_epoch_invalidation_between_runs () =
  (* Two executions of the same warm compiled block with a revocation
     edit in between: the first run warms the block cache; the second
     run must see the edit and trap, and after clearing the bit a third
     run must succeed again — in the engine as in the spec. *)
  let run kind =
    let machine = Machine.create () in
    let obs = Obs.create () in
    Machine.set_trace machine (Some obs);
    let interp = Vm.create kind machine in
    let prog = loop_prog 50 in
    Vm.map_segment interp ~base:code_base prog;
    let sram = Machine.sram_base machine in
    let mem = Machine.mem machine in
    Vm.set_reg interp 6
      @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
    let pcc =
      Cap.make_root ~base:code_base
        ~top:(code_base + Isa.code_bytes prog)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    let go () =
      view machine obs interp (Vm.run ~fuel:10_000 interp entry)
    in
    let warm = go () in
    Memory.set_revoked mem ~addr:sram ~len:8;
    let revoked = go () in
    Memory.clear_revoked mem ~addr:sram ~len:8;
    let cleared = go () in
    (warm, revoked, cleared)
  in
  let w0, r0, c0 = run Vm.Spec in
  Alcotest.(check string) "warm run halts" "halted" w0.s_outcome;
  Alcotest.(check bool) "revoked run traps" true (r0.s_outcome <> "halted");
  Alcotest.(check string) "cleared run halts again" "halted" c0.s_outcome;
  let w, r, c = run Vm.Engine in
  diff_views "epoch warm" w0 w;
  diff_views "epoch revoked" r0 r;
  diff_views "epoch cleared" c0 c

(* ------------------------------------------------------------------ *)
(* Capability-access corners: an access checked on the live authority  *)
(* must see revocation edits, filter toggles, restores, bounds,         *)
(* alignment and the SRAM range, however warm the compiled block.  Each *)
(* scenario is a sequence of runs with edits in between, compared run  *)
(* by run against the spec — memory bytes and tags included —         *)
(* both traced and untraced.  Both defer (passing accesses stay         *)
(* batched); traced runs also stop each batch short of the next        *)
(* Instr_sample.                                                       *)
(* ------------------------------------------------------------------ *)

(* Two NULL stores per trip, walking r6 up 16 bytes: the switcher's
   stack-zeroing shape, here as one self-looping block. *)
let zero_items trips =
  Isa.
    [
      I (Li (4, 0));
      I (Li (5, trips));
      L "loop";
      I (Csc (0, 0, 6));
      I (Csc (0, 8, 6));
      I (Cincaddrimm (6, 6, 16));
      I (Addi (4, 4, 1));
      I (Bne (4, 5, "loop"));
    ]

let zero_prog trips = Isa.assemble ~name:"zero" (zero_items trips @ [ Isa.I Isa.Halt ])

(* A rig for [prog], mapped at [base], in a machine with [sram_size]
   bytes of SRAM (256 KiB by default); [scenario] arms it and drives the
   runs through [go], which returns one view per run.  A run enters at
   the start of [prog] through a sentry, or through [at]. *)
let cap_runs ~kind ~traced ?(fuel = 100_000) ?(base = code_base) ?sram_size ?pcc_top prog
    (scenario : Machine.t -> Vm.t -> (?at:Cap.t -> unit -> view_mem) -> 'a) =
  let machine = Machine.create ?sram_size () in
  let obs = Obs.create () in
  if traced then Machine.set_trace machine (Some obs);
  let interp = Vm.create kind machine in
  Vm.map_segment interp ~base prog;
  let top = Option.value pcc_top ~default:(base + Isa.code_bytes prog) in
  let pcc = Cap.make_root ~base ~top ~perms:Perm.Set.executable in
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  let go ?(at = entry) () =
    let v = view machine obs interp (Vm.run ~fuel interp at) in
    (v, mem_view machine)
  in
  scenario machine interp go

let check_cap_matrix ?fuel ?base ?sram_size ?pcc_top name prog scenario =
  List.concat_map
    (fun traced ->
      let mode = if traced then "traced" else "untraced" in
      let oracle =
        cap_runs ~kind:Vm.Spec ~traced ?fuel ?base ?sram_size ?pcc_top prog scenario
      in
      let got =
        cap_runs ~kind:Vm.Engine ~traced ?fuel ?base ?sram_size ?pcc_top prog scenario
      in
      Alcotest.(check int)
        (Fmt.str "%s (%s): runs" name mode)
        (List.length oracle) (List.length got);
      List.iteri
        (fun i ((ov, om), (gv, gm)) ->
          let what = Fmt.str "%s (%s) run %d" name mode i in
          diff_views what ov gv;
          Alcotest.(check string) (what ^ " memory") om gm)
        (List.combine oracle got);
      List.map fst oracle)
    [ true; false ]

let outcomes views = List.map (fun v -> v.s_outcome) views

let set_auth interp r ~base ~top =
  Vm.set_reg interp r (Cap.make_root ~base ~top ~perms:Perm.Set.read_write)

let test_store_revoked_between_runs () =
  let views =
    check_cap_matrix "store authority revoked between runs" (zero_prog 8)
      (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        set_auth interp 6 ~base:sram ~top:(sram + 1024);
        let warm = go () in
        Memory.set_revoked mem ~addr:sram ~len:8;
        let revoked = go () in
        Memory.clear_revoked mem ~addr:sram ~len:8;
        let cleared = go () in
        [ warm; revoked; cleared ])
  in
  Alcotest.(check (list string))
    "warm, revoked, cleared"
    [ "halted"; "trap at 0x20000080: tag violation"; "halted" ]
    (List.filteri (fun i _ -> i < 3) (outcomes views))

let test_load_filter_toggle () =
  (* r6 zeroes a window; r7 reloads a capability to a freed object.
     Filter on: the loaded copy comes back untagged.  Filter off: tagged.
     Then r7's own base is revoked: harmless with the filter off, a trap
     once it is toggled back on — each step behind warm blocks. *)
  let prog =
    Isa.(
      assemble ~name:"filter"
        [
          I (Li (4, 0));
          I (Li (5, 6));
          L "loop";
          I (Csc (0, 0, 6));
          I (Clc (9, 0, 7));
          I (Cincaddrimm (6, 6, 8));
          I (Addi (4, 4, 1));
          I (Bne (4, 5, "loop"));
          I Halt;
        ])
  in
  let views =
    check_cap_matrix "load-filter toggle" prog (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        let obj = sram + 8192 in
        set_auth interp 6 ~base:sram ~top:(sram + 1024);
        set_auth interp 7 ~base:(sram + 2048) ~top:(sram + 2064);
        Memory.store_cap_priv mem ~addr:(sram + 2048)
          (Cap.make_root ~base:obj ~top:(obj + 64) ~perms:Perm.Set.read_write);
        Memory.set_revoked mem ~addr:obj ~len:64;
        let on = go () in
        Memory.set_load_filter mem false;
        let off = go () in
        Memory.set_revoked mem ~addr:(sram + 2048) ~len:8;
        let off_revoked = go () in
        Memory.set_load_filter mem true;
        let on_revoked = go () in
        [ on; off; off_revoked; on_revoked ])
  in
  Alcotest.(check (list string))
    "on, off, off+revoked auth, on+revoked auth"
    [ "halted"; "halted"; "halted"; "trap at 0x20000800: tag violation" ]
    (List.filteri (fun i _ -> i < 4) (outcomes views));
  let r9 v = List.nth v.s_regs 9 in
  Alcotest.(check bool) "filtered copy untagged" true
    (String.length (r9 (List.nth views 0)) > 0
    && r9 (List.nth views 0) <> r9 (List.nth views 1))

let test_bounds_last_granule () =
  (* Authority [base, base + 64): trip 4's second store hits the last
     granule, trip 5's first is one past it.  Then [base, base + 60):
     the last granule straddles the top. *)
  let views =
    check_cap_matrix "last granule and one past" (zero_prog 5)
      (fun machine interp go ->
        let sram = Machine.sram_base machine in
        set_auth interp 6 ~base:sram ~top:(sram + 64);
        let exact = go () in
        set_auth interp 6 ~base:sram ~top:(sram + 60);
        let straddle = go () in
        [ exact; straddle ])
  in
  Alcotest.(check (list string)) "bounds traps"
    [ "trap at 0x20000040: bounds violation"; "trap at 0x20000038: bounds violation" ]
    (List.filteri (fun i _ -> i < 2) (outcomes views))

let test_misaligned_cursor () =
  (* A warm loop re-entered with the cursor moved by 4. *)
  let prog =
    Isa.assemble ~name:"misalign"
      (Isa.I (Isa.Li (10, 0))
       :: zero_items 4
      @ Isa.
          [
            I (Bne (10, 0, "done"));
            I (Li (10, 1));
            I (Li (4, 0));
            I (Cincaddrimm (6, 6, 4));
            I (J "loop");
            L "done";
            I Halt;
          ])
  in
  let views =
    check_cap_matrix "misaligned cursor" prog (fun machine interp go ->
        let sram = Machine.sram_base machine in
        set_auth interp 6 ~base:sram ~top:(sram + 1024);
        [ go () ])
  in
  Alcotest.(check (list string)) "alignment trap"
    [ "trap at 0x20000044: bounds violation" ]
    (List.filteri (fun i _ -> i < 1) (outcomes views))

let test_authority_past_sram () =
  (* Capability bounds reach 64 bytes past the end of SRAM: the access
     check passes there, the SRAM range check must not. *)
  let views =
    check_cap_matrix "authority past the end of SRAM" (zero_prog 8)
      (fun machine interp go ->
        let sram_end = Machine.sram_base machine + Machine.sram_size machine in
        set_auth interp 6 ~base:(sram_end - 64) ~top:(sram_end + 64);
        [ go () ])
  in
  Alcotest.(check (list string)) "range trap at the end of SRAM"
    [ "trap at 0x20040000: bounds violation" ]
    (List.filteri (fun i _ -> i < 1) (outcomes views))

let test_listener_revokes_mid_block () =
  (* External hardware revokes the store authority at an exact cycle;
     the wakeup bounds every deferred batch, so the blocks around it run
     non-deferred, the charge ticks into the listener, and the store
     right after must re-check the filter and trap. *)
  let views =
    check_cap_matrix "listener revokes mid-block" (zero_prog 50)
      (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        set_auth interp 6 ~base:sram ~top:(sram + 1024);
        let h =
          Machine.add_tick_listener ~period:0 machine (fun _ ->
              Memory.set_revoked mem ~addr:sram ~len:8)
        in
        Machine.set_listener_wakeup machine h ~at:301;
        [ go () ])
  in
  let v = List.hd views in
  Alcotest.(check bool) "trapped mid-loop" true
    (v.s_outcome <> "halted" && v.s_instret < (50 * 5) + 2)

let test_restore_over_warm_cache () =
  (* Snapshot with the authority's base revoked, clear it, warm the
     blocks, then restore: the rewound revocation bit must trap. *)
  let views =
    check_cap_matrix "restore over a warm cache" (zero_prog 8)
      (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        set_auth interp 6 ~base:sram ~top:(sram + 1024);
        Memory.set_revoked mem ~addr:sram ~len:8;
        let snap = Machine.snapshot machine in
        Memory.clear_revoked mem ~addr:sram ~len:8;
        let warm = go () in
        let again = go () in
        Machine.restore machine snap;
        let restored = go () in
        [ warm; again; restored ])
  in
  Alcotest.(check (list string)) "warm, warm, restored"
    [ "halted"; "halted"; "trap at 0x20000000: tag violation" ]
    (List.filteri (fun i _ -> i < 3) (outcomes views))

let test_tagged_store_settles_revoker () =
  (* A sweep is in flight while a run of NULL stores lets its lag build
     up (deferred, traced or not); the tagged store that follows
     must settle the sweep to the present cycle before its tag appears.
     It stores a capability to a freed object behind the sweep's true
     position but ahead of its last settled one, so an unsettled sweep
     would wrongly clear it later. *)
  let prog =
    Isa.assemble ~name:"settle"
      (zero_items 40 @ Isa.[ I (Csc (7, 0, 8)); I Halt ])
  in
  let survived = ref false in
  let views =
    check_cap_matrix "tagged store after NULL stores" prog
      (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        let obj = sram + 8192 in
        let freed = Cap.make_root ~base:obj ~top:(obj + 64) ~perms:Perm.Set.read_write in
        set_auth interp 6 ~base:(sram + 4096) ~top:(sram + 6144);
        Vm.set_reg interp 7 freed;
        set_auth interp 8 ~base:sram ~top:(sram + 64);
        Vm.set_reg interp 8
          (Cap.exn (Cap.with_address (Vm.get_reg interp 8) (sram + 32)));
        Memory.store_cap_priv mem ~addr:(sram + 16384) freed;
        Memory.set_revoked mem ~addr:obj ~len:64;
        Machine.revoker_kick machine;
        let v = go () in
        Machine.run_revoker_to_completion machine;
        survived := false;
        Memory.iter_caps mem (fun ~addr _ -> if addr = sram + 32 then survived := true);
        let swept = (fst v, mem_view machine) in
        [ v; swept ])
  in
  Alcotest.(check string) "halts" "halted" (List.hd views).s_outcome;
  Alcotest.(check bool) "the sweep had passed the new capability" true !survived

let test_local_store_behind_warm_cache () =
  (* A warm tagged-store block must still apply the Store_local rule to
     each source: the loop stores r7 (Global) through an authority
     without Store_local, then re-enters with r7 := r9 (local). *)
  let prog =
    Isa.(
      assemble ~name:"local"
        [
          I (Li (10, 0));
          I (Li (4, 0));
          I (Li (5, 4));
          L "loop";
          I (Csc (7, 0, 6));
          I (Cincaddrimm (6, 6, 8));
          I (Addi (4, 4, 1));
          I (Bne (4, 5, "loop"));
          I (Bne (10, 0, "done"));
          I (Li (10, 1));
          I (Li (4, 0));
          I (Mv (7, 9));
          I (J "loop");
          L "done";
          I Halt;
        ])
  in
  let views =
    check_cap_matrix "local store behind a warm cache" prog
      (fun machine interp go ->
        let sram = Machine.sram_base machine in
        set_auth interp 6 ~base:sram ~top:(sram + 1024);
        set_auth interp 7 ~base:(sram + 2048) ~top:(sram + 2112);
        Vm.set_reg interp 9
          (Cap.make_root ~base:(sram + 4096) ~top:(sram + 4160)
             ~perms:(Perm.Set.remove Perm.Global Perm.Set.read_write));
        [ go () ])
  in
  Alcotest.(check (list string)) "Store_local trap"
    [ "trap at 0x20000020: permit violation: SL" ]
    (List.filteri (fun i _ -> i < 1) (outcomes views))

(* ------------------------------------------------------------------ *)
(* Trace-shaped blocks: a conditional branch that does not go back to  *)
(* the block's entry is a mid-block exit, so one block can leave early *)
(* while its fuel, PCC-bounds and defer-window preconditions were      *)
(* checked for its full length.  Each case runs traced and untraced on *)
(* the engine and the spec, memory bytes and tags compared.            *)
(* ------------------------------------------------------------------ *)

(* The entry block runs Li; Li; Addi; Bltu (taken on the first two
   trips: exit after 4 of its 7 instructions); then "skip" (Addi; J)
   jumps back to "top", whose block (Addi; Bltu; Addi; Addi; Halt) takes
   the same exit once more and falls through to Halt on the third trip.
   15 instructions in all. *)
let exit_prog =
  Isa.(
    assemble ~name:"exits"
      [
        I (Li (1, 0));
        I (Li (2, 3));
        L "top";
        I (Addi (1, 1, 1));
        I (Bltu (1, 2, "skip"));
        I (Addi (4, 4, 7));
        I (Addi (4, 4, 9));
        I Halt;
        L "skip";
        I (Addi (6, 6, 1));
        I (J "top");
      ])

let test_fuel_around_mid_block_exit () =
  (* Fuel 3 ends just before the entry block's taken Bltu, 4 exactly at
     it, 5 just after it; 7/8/9 do the same for the "top" block's exit
     and 14..16 for the final fall-through.  Every level must trap "out
     of fuel" (or halt) at the same pc, instret and cycle as the spec:
     a dispatcher that charged a block's full length for an early exit
     would run out of fuel too soon. *)
  for fuel = 1 to 17 do
    let views =
      check_cap_matrix ~fuel (Printf.sprintf "fuel %d around a mid-block exit" fuel)
        exit_prog (fun _ _ go -> [ go () ])
    in
    let v = List.hd views in
    Alcotest.(check int)
      (Printf.sprintf "fuel %d retires min(fuel, 15)" fuel)
      (min fuel 15) v.s_instret
  done

let test_pcc_top_inside_block () =
  (* The pcc ends between the "start" block's mid-block Bltu and its
     end, so the whole-block bounds precondition fails and the block
     runs on the one-instruction slow path.  Taken (r2 = 5), the branch leaves
     for "out" inside the pcc and the run halts; not taken (r2 = 0), the
     first instruction past the top traps. *)
  let prog =
    Isa.(
      assemble ~name:"pcctop"
        [
          I (J "start");
          L "out";
          I Halt;
          L "start";
          I (Addi (1, 1, 1));
          I (Bltu (1, 2, "out"));
          I (Addi (4, 4, 7));
          I (Addi (4, 4, 9));
          I Halt;
        ])
  in
  let views =
    check_cap_matrix ~pcc_top:(code_base + (4 * 5)) "pcc top inside a block" prog
      (fun _ interp go ->
        Vm.set_reg interp 2 (Interp.int_value 5);
        let taken = go () in
        Vm.set_reg interp 1 (Interp.int_value 0);
        Vm.set_reg interp 2 (Interp.int_value 0);
        let fell = go () in
        [ taken; fell ])
  in
  Alcotest.(check (list string)) "taken halts, not taken traps at the top"
    [ "halted"; "trap at 0x40000014: bounds violation" ]
    (List.filteri (fun i _ -> i < 2) (outcomes views))

(* The switcher's zeroing loop, instruction for instruction: the exit
   test is a mid-block Beq, so the whole loop is one self-spinning block
   (Cgetaddr; Beq; Csc; Csc; Cincaddrimm; J). *)
let zero_loop_items =
  Isa.
    [
      L "loop";
      I (Cgetaddr (1, 6));
      I (Beq (1, 5, "done"));
      I (Csc (0, 0, 6));
      I (Csc (0, 8, 6));
      I (Cincaddrimm (6, 6, 16));
      I (J "loop");
      L "done";
      I Halt;
    ]

let zero_loop_prog = Isa.assemble ~name:"zeroloop" zero_loop_items

let test_zero_loop_cut () =
  (* 64 trips over a seeded 1 KiB window (771 cycles in all).  A parked
     listener wakes at an exact cycle mid-spin (cutting the deferred
     batch at the event horizon), and a timer IRQ lands mid-spin; both
     record the cycle they fire at, which must match the spec's. *)
  let fired = ref [] in
  let scenario machine interp (go : ?at:Cap.t -> unit -> view_mem) =
    let sram = Machine.sram_base machine in
    set_auth interp 6 ~base:sram ~top:(sram + 1024);
    Vm.set_reg interp 5 (Interp.int_value (sram + 1024));
    Equiv_gen.seed_window machine ~addr:sram ~len:1024;
    fired := [];
    let h =
      Machine.add_tick_listener ~period:0 machine (fun c ->
          fired := ("listener", c) :: !fired)
    in
    Machine.set_listener_wakeup machine h ~at:301;
    Machine.set_deliver_hook machine
      (Some (fun n -> fired := (Printf.sprintf "irq %d" n, Machine.cycles machine) :: !fired));
    Machine.set_timer machine (Some 555);
    let v, mem = go () in
    let side =
      String.concat " "
        (List.rev_map (fun (what, c) -> Printf.sprintf "%s@%d" what c) !fired)
    in
    [ (v, mem ^ " " ^ side) ]
  in
  let views = check_cap_matrix "zeroing loop cut mid-spin" zero_loop_prog scenario in
  Alcotest.(check string) "halts" "halted" (List.hd views).s_outcome;
  Alcotest.(check (list string)) "both fire mid-spin" [ "listener@301"; "irq 0@555" ]
    (List.rev_map (fun (what, c) -> Printf.sprintf "%s@%d" what c) !fired);
  Alcotest.(check int) "instret" ((64 * 6) + 2 + 1) (List.hd views).s_instret

(* Sample boundaries.  With a sink attached a block still defers when
   every path through it retires before the next Instr_sample instret,
   and a self-spin is bounded by that room; both must leave the traced
   stream (cycle stamps included) exactly as the spec emits it.  [pad]
   Li's shift the instret phase so the 1024th retirement lands on each
   position of a trip. *)
let pad_items pad = List.init pad (fun _ -> Isa.I (Isa.Li (3, 0)))

(* Each trip runs "top" (five Addi and a J: a straight block ending in a
   jump to another block), then "next" (Addi; Bltu back to "top", a
   mid-block exit; Halt): 8 instructions.  The 1024th retirement is
   trip position [6 - pad] mod 8: the J for pad 0, inside "top" for pad
   1..4, the Bltu for pad 6. *)
let straight_prog ~pad trips =
  Isa.(
    assemble ~name:"straight"
      (pad_items pad
      @ [
          I (Li (1, 0));
          I (Li (2, trips));
          L "top";
          I (Addi (1, 1, 1));
          I (Addi (4, 4, 1));
          I (Addi (5, 5, 2));
          I (Addi (6, 6, 3));
          I (Addi (7, 7, 4));
          I (J "next");
          L "next";
          I (Addi (8, 8, 1));
          I (Bltu (1, 2, "top"));
          I Halt;
        ]))

(* A block that re-enters itself through Cjal rather than a branch: not
   a self-loop block, so the dispatcher's re-entry path ([sb_spin]) runs
   it again.  4 instructions per trip; the 1024th retirement lands on
   the Cjal for pad 0 and inside the block for pad 1..3. *)
let cjal_prog ~pad trips =
  Isa.(
    assemble ~name:"cjal"
      (pad_items pad
      @ [
          I (Li (1, 0));
          I (Li (2, trips));
          I (J "loop");
          L "loop";
          I (Addi (1, 1, 1));
          I (Bgeu (1, 2, "done"));
          I (Addi (4, 4, 1));
          I (Cjal (0, "loop"));
          L "done";
          I Halt;
        ]))

let sampled views =
  List.exists
    (fun l ->
      let tag = "instr-sample instret=1024" in
      let n = String.length tag and m = String.length l in
      m >= n && String.sub l (m - n) n = tag)
    (List.hd views).s_events

let test_sample_in_straight_block () =
  List.iter
    (fun (pad, where) ->
      let views =
        check_cap_matrix
          (Printf.sprintf "sample %s (pad %d)" where pad)
          (straight_prog ~pad 300)
          (fun _ _ go -> [ go () ])
      in
      Alcotest.(check bool) ("traced stream samples 1024, " ^ where) true
        (sampled views);
      Alcotest.(check int) ("instret, " ^ where) (pad + 2 + (8 * 300) + 1)
        (List.hd views).s_instret)
    [ (3, "inside a straight block"); (0, "at a block end");
      (6, "at a mid-block exit"); (1, "at a straight block's last body slot");
      (2, "inside a straight block"); (4, "inside a straight block");
      (5, "at a block entry"); (7, "at a block entry") ];
  for pad = 0 to 3 do
    let views =
      check_cap_matrix
        (Printf.sprintf "sample in a Cjal loop (pad %d)" pad)
        (cjal_prog ~pad 400)
        (fun _ _ go -> [ go () ])
    in
    Alcotest.(check bool) "Cjal loop samples 1024" true (sampled views)
  done

(* The switcher's zeroing loop over 200 trips (6 instructions each):
   pad 0 puts the 1024th retirement on the second Csc of a trip in the
   middle of the self-spin, pad 4 on the J that ends a trip. *)
let test_sample_in_zeroing_spin () =
  List.iter
    (fun (pad, where) ->
      let prog = Isa.assemble ~name:"zerospin" (pad_items pad @ zero_loop_items) in
      let views =
        check_cap_matrix (Printf.sprintf "zeroing spin, sample %s" where) prog
          (fun machine interp go ->
            let sram = Machine.sram_base machine in
            set_auth interp 6 ~base:sram ~top:(sram + 4096);
            Vm.set_reg interp 5 (Interp.int_value (sram + (200 * 16)));
            Equiv_gen.seed_window machine ~addr:sram ~len:(200 * 16);
            [ go () ])
      in
      Alcotest.(check bool) ("traced stream samples 1024, " ^ where) true
        (sampled views);
      Alcotest.(check int) ("instret, " ^ where) (pad + (200 * 6) + 2 + 1)
        (List.hd views).s_instret)
    [ (0, "mid-spin"); (4, "at the end of a spin trip") ]

(* ------------------------------------------------------------------ *)
(* Folded blocks: a forward branch is a two-way closure whose arms both *)
(* continue in the block, and a forward J continues at its target, so  *)
(* one block holds diamonds whose arms retire different counts.  Each  *)
(* exit must report its own path's count (fuel), the bounds check must *)
(* cover the farthest slot any path runs, the sample room the longest  *)
(* path, and a trap on one arm must leave the clock where per-step     *)
(* execution does.                                                      *)
(* ------------------------------------------------------------------ *)

(* Each trip of "top" counts r1 up and takes an uneven diamond on r1's
   parity: the taken arm (even r1, one Addi) makes a 6-instruction
   trip, the other (three Addi and a J) a 9-instruction one, and the
   arms meet at "join" with different counts.  The entry block runs
   Li; Li and the first trip, ending at the backward Bltu; "top" is then
   a self-loop block whose trips differ in length.  [pad] Li's shift
   the instret phase. *)
let diamond_prog ?(pad = 0) trips =
  Isa.(
    assemble ~name:"diamond"
      (pad_items pad
      @ [
          I (Li (1, 0));
          I (Li (2, trips));
          L "top";
          I (Addi (1, 1, 1));
          I (Andi (3, 1, 1));
          I (Beq (3, 0, "even"));
          I (Addi (4, 4, 1));
          I (Addi (4, 4, 2));
          I (Addi (4, 4, 3));
          I (J "join");
          L "even";
          I (Addi (5, 5, 1));
          L "join";
          I (Addi (6, 6, 1));
          I (Bltu (1, 2, "top"));
          I Halt;
        ]))

(* Instructions [diamond_prog ~pad trips] retires in all. *)
let diamond_len ?(pad = 0) trips = pad + 2 + (9 * ((trips + 1) / 2)) + (6 * (trips / 2)) + 1

let test_fuel_after_join () =
  (* Six trips, 48 instructions.  Every fuel level from 1 to 50 runs out
     somewhere: inside either arm, in the tail after the join reached
     from either side, at a back-edge.  A dispatcher that charged a trip
     its longest path, or a self-loop that counted every trip as long,
     runs out of fuel too soon. *)
  let total = diamond_len 6 in
  for fuel = 1 to total + 2 do
    let views =
      check_cap_matrix ~fuel ~sram_size:4096
        (Printf.sprintf "fuel %d across an uneven diamond" fuel)
        (diamond_prog 6) (fun _ _ go -> [ go () ])
    in
    Alcotest.(check int)
      (Printf.sprintf "fuel %d retires min(fuel, %d)" fuel total)
      (min fuel total) (List.hd views).s_instret
  done

let test_trap_on_diamond_arm () =
  (* r1 = r2 takes the arm that loads through r6 and joins; otherwise the
     arm loading 60 bytes past r7's cursor traps, with the batch of the
     instructions before it settled first.  A timer deadline inside the
     block's window checks the flush against a live event. *)
  let prog =
    Isa.(
      assemble ~name:"armtrap"
        [
          I (Addi (4, 4, 1));
          I (Bne (1, 2, "bad"));
          I (Lw (3, 0, 6));
          I (Addi (4, 4, 1));
          I (J "join");
          L "bad";
          I (Lw (3, 60, 7));
          L "join";
          I (Sw (3, 4, 6));
          I (Addi (4, 4, 1));
          I Halt;
        ])
  in
  let views =
    check_cap_matrix "trap on one arm of a diamond" prog (fun machine interp go ->
        let sram = Machine.sram_base machine in
        let arm ~same ~timer =
          set_auth interp 6 ~base:sram ~top:(sram + 64);
          set_auth interp 7 ~base:(sram + 64) ~top:(sram + 96);
          Vm.set_reg interp 7
            (Cap.with_address_unsealed (Vm.get_reg interp 7) (sram + 64));
          Vm.set_reg interp 1 (Interp.int_value 3);
          Vm.set_reg interp 2 (Interp.int_value (if same then 3 else 4));
          Machine.set_timer machine timer;
          go ()
        in
        [ arm ~same:true ~timer:None; arm ~same:false ~timer:None;
          arm ~same:true ~timer:(Some (Machine.cycles machine + 3));
          arm ~same:false ~timer:(Some (Machine.cycles machine + 2)) ])
  in
  Alcotest.(check (list string)) "the load arm halts, the narrow arm traps"
    [ "halted"; "trap at 0x2000007c: bounds violation" ]
    (List.filteri (fun i _ -> i < 2) (outcomes views))

let test_pcc_top_past_forward_branch () =
  (* The pcc ends after the not-taken arm's Halt and before the forward
     branch's target, so the block's slot span crosses the top: the
     block runs on the one-instruction slow path.  Not taken (r2 = 0)
     halts inside the pcc; taken (r2 = 5) traps at the target. *)
  let prog =
    Isa.(
      assemble ~name:"pccfwd"
        [
          I (Addi (1, 1, 1));
          I (Bltu (1, 2, "far"));
          I (Addi (4, 4, 7));
          I Halt;
          I (Addi (5, 5, 1));
          L "far";
          I (Addi (6, 6, 1));
          I Halt;
        ])
  in
  let views =
    check_cap_matrix ~pcc_top:(code_base + (4 * 4)) "pcc top past a forward branch" prog
      (fun _ interp go ->
        Vm.set_reg interp 2 (Interp.int_value 0);
        let fell = go () in
        Vm.set_reg interp 1 (Interp.int_value 0);
        Vm.set_reg interp 2 (Interp.int_value 5);
        let taken = go () in
        [ fell; taken ])
  in
  Alcotest.(check (list string)) "not taken halts, taken traps past the top"
    [ "halted"; "trap at 0x40000014: bounds violation" ]
    (List.filteri (fun i _ -> i < 2) (outcomes views))

let test_sample_on_longer_path () =
  (* 200 trips alternate the 9- and 6-instruction paths, 15 instructions
     per pair; pads 0..14 put the 1024th retirement on every position of
     a pair, the long arm and the tail after its join included.  A
     deferred block whose sample-room check read the shorter path would
     skip or move the sample. *)
  for pad = 0 to 14 do
    let views =
      check_cap_matrix ~sram_size:4096
        (Printf.sprintf "sample on a diamond path (pad %d)" pad)
        (diamond_prog ~pad 200)
        (fun _ _ go -> [ go () ])
    in
    Alcotest.(check bool) "traced stream samples 1024" true (sampled views);
    Alcotest.(check int) "instret" (diamond_len ~pad 200) (List.hd views).s_instret
  done

(* A run of six register clears ([Mv r, zero], the switcher's scrub
   shape), which the engine runs as one closure, behind a 505-trip loop:
   1,012 + [pad] instructions come before it, so pads 5..10 put the
   1024th retirement on each clear. *)
let clear_run_prog ~pad =
  Isa.(
    assemble ~name:"clears"
      (pad_items pad
      @ [
          I (Li (1, 0));
          I (Li (2, 505));
          L "top";
          I (Addi (1, 1, 1));
          I (Bltu (1, 2, "top"));
          I (Mv (3, 0));
          I (Mv (4, 0));
          I (Mv (5, 0));
          I (Mv (6, 0));
          I (Mv (7, 0));
          I (Mv (8, 0));
          I Halt;
        ]))

let test_clear_run () =
  (* Traced, the sample lands on each clear in turn; a timer deadline on
     each clear's cycle interrupts the run mid-way, untraced too. *)
  for pad = 5 to 10 do
    let prog = clear_run_prog ~pad in
    let at = pad + 1012 + (pad - 5) in
    let fired = ref "" in
    let views =
      check_cap_matrix ~sram_size:4096 (Printf.sprintf "register-clear run (pad %d)" pad) prog
        (fun machine interp go ->
          let sram = Machine.sram_base machine in
          List.iter (fun r -> set_auth interp r ~base:sram ~top:(sram + 64)) [ 3; 4; 5; 6; 7; 8 ];
          Machine.set_deliver_hook machine
            (Some (fun n -> fired := Printf.sprintf "irq %d@%d" n (Machine.cycles machine)));
          Machine.set_timer machine (Some at);
          let v, mem = go () in
          [ (v, mem ^ " " ^ !fired) ])
    in
    Alcotest.(check bool) "traced stream samples 1024" true (sampled views);
    Alcotest.(check int) "instret" (pad + 1012 + 7) (List.hd views).s_instret
  done

(* The zeroing loop with a tail behind its exit, folded into the loop's
   block behind the Beq's taken arm: four Addi, a forward diamond on r2
   (six more Addi when r2 is zero), six Addi and a halt.  The tail costs
   exactly its worst case, so a deadline inside it is crossed by
   whichever path runs. *)
let zero_tail_prog =
  Isa.(
    assemble ~name:"zerotail"
      ([
         L "loop";
         I (Cgetaddr (1, 6));
         I (Beq (1, 5, "done"));
         I (Csc (0, 0, 6));
         I (Csc (0, 8, 6));
         I (Cincaddrimm (6, 6, 16));
         I (J "loop");
         L "done";
       ]
      @ List.init 4 (fun i -> I (Addi (3, 3, i)))
      @ [ I (Bne (2, 0, "skip")) ]
      @ List.init 6 (fun i -> I (Addi (4, 4, i)))
      @ [ L "skip" ]
      @ List.init 6 (fun i -> I (Addi (7, 7, i)))
      @ [ I Halt ]))

let test_zero_spin_folded_tail () =
  (* 32 trips over a seeded 512-byte window (384 cycles), then the tail
     on either side of its diamond (r2 zero or not): with
     no event; with a listener mid-spin and the timer at each cycle from
     the last trip to inside the tail, so that the loop's last back-edge
     still fits below the deadline while the tail does not (the tail's
     deferral guard must settle the batch there); and at every fuel
     level around the loop's exit.  The cycles the listener and the
     interrupt fire at are compared. *)
  let total ~zero = (32 * 6) + 2 + 4 + 1 + (if zero then 6 else 0) + 6 + 1 in
  let run ?fuel ?timer ~zero name =
    check_cap_matrix ?fuel ~sram_size:4096 name zero_tail_prog (fun machine interp go ->
        let sram = Machine.sram_base machine in
        Equiv_gen.seed_window machine ~addr:sram ~len:512;
        set_auth interp 6 ~base:sram ~top:(sram + 512);
        Vm.set_reg interp 5 (Interp.int_value (sram + 512));
        Vm.set_reg interp 2 (Interp.int_value (if zero then 0 else 7));
        let fired = ref [] in
        let note what = fired := Printf.sprintf "%s@%d" what (Machine.cycles machine) :: !fired in
        Option.iter
          (fun at ->
            let h = Machine.add_tick_listener ~period:0 machine (fun _ -> note "listener") in
            Machine.set_listener_wakeup machine h ~at:(Machine.cycles machine + 200);
            Machine.set_deliver_hook machine (Some (fun n -> note (Printf.sprintf "irq %d" n)));
            Machine.set_timer machine (Some (Machine.cycles machine + at)))
          timer;
        let v, mem = go () in
        [ (v, mem ^ " " ^ String.concat " " (List.rev !fired)) ])
  in
  List.iter
    (fun zero ->
      let side = if zero then "zero word" else "non-zero word" in
      List.iter
        (fun timer ->
          let views =
            run ?timer ~zero
              (Printf.sprintf "zeroing spin into a folded tail, %s%s" side
                 (match timer with Some at -> Printf.sprintf ", timer at %d" at | None -> ""))
          in
          Alcotest.(check int) ("instret, " ^ side) (total ~zero) (List.hd views).s_instret)
        (None :: List.init 30 (fun i -> Some (384 + i)));
      for fuel = total ~zero - 8 to total ~zero + 1 do
        ignore
          (run ~fuel ~zero
             (Printf.sprintf "zeroing spin into a folded tail, %s, fuel %d" side fuel))
      done)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* The whole switcher: [Switcher.program] mapped where the kernel maps  *)
(* it, entered at switch_entry through [Switcher.call_sentry] and at    *)
(* switch_return through the return sentry the call leg hands the     *)
(* callee, over generated states: every arity and posture, stack       *)
(* requirements from 0 to 1 KiB with the caller's stack roomy or short, *)
(* a full trusted stack and an empty one.                               *)
(* ------------------------------------------------------------------ *)

(* SRAM offsets of the rig's trusted stack (two frames), export table,
   globals and the caller's 2 KiB stack, all in an 8 KiB SRAM; the
   callee's code sits at the flash base, outside every segment. *)
let sw_tstack = 0x100
let sw_export = 0x400
let sw_globals = 0x800
let sw_stack = 0x1000
let sw_stack_size = 2048

let sw_tstack_perms =
  Perm.Set.of_list
    [ Perm.Global; Perm.Load; Perm.Store; Perm.Mem_cap; Perm.Load_global;
      Perm.Load_mutable; Perm.Store_local ]

let sw_table_perms =
  Perm.Set.of_list [ Perm.Load; Perm.Mem_cap; Perm.Load_global; Perm.Load_mutable ]

(* Arm a rig for a call into export entry 1: trusted stack at [tsp],
   the entry's [min_stack], [arity] and [posture] in the table, the
   sealed export capability in ct2, the caller's stack with [room]
   bytes below its cursor, and every other register holding a value
   drawn from [rng] (integers and capabilities), so the switcher's
   clearing shows. *)
let switcher_arm ~rng ~arity ~posture ~min_stack ~room ~tsp machine interp =
  let sram = Machine.sram_base machine and mem = Machine.mem machine in
  let root =
    Cap.make_root ~base:sram ~top:(sram + Machine.sram_size machine)
      ~perms:Perm.Set.universe
  in
  let carve addr len perms =
    Cap.exn
      (Cap.and_perms (Cap.exn (Cap.set_bounds (Cap.with_address_exn root addr) ~length:len))
         perms)
  in
  let ts = sram + sw_tstack in
  Vm.set_special interp Isa.mtdc (carve ts (Abi.ts_size ~frames:2) sw_tstack_perms);
  Memory.store_priv mem ~addr:(ts + Abi.ts_tsp) ~size:4 tsp;
  let key = Cap.make_sealing_root ~first:Abi.otype_switcher ~last:Abi.otype_switcher in
  Vm.set_special interp Isa.mscratchc key;
  let ex = sram + sw_export in
  Memory.store_cap_priv mem ~addr:(ex + Abi.export_code_cap)
    (Cap.make_root ~base:Abi.flash_base ~top:(Abi.flash_base + 64)
       ~perms:Perm.Set.executable);
  Memory.store_cap_priv mem ~addr:(ex + Abi.export_globals_cap)
    (carve (sram + sw_globals) 64 Perm.Set.read_write);
  let e = Abi.export_entry_addr ~table_base:ex ~index:1 in
  List.iter
    (fun (off, v) -> Memory.store_priv mem ~addr:(e + off) ~size:4 v)
    [ (Abi.entry_code_offset, 4); (Abi.entry_min_stack, min_stack);
      (Abi.entry_arity, arity); (Abi.entry_posture, posture) ];
  let table = carve ex (Abi.export_table_size ~entries:2) sw_table_perms in
  let value () =
    match Random.State.int rng 3 with
    | 0 -> Interp.int_value (Random.State.int rng 1000)
    | 1 -> carve (sram + sw_globals + (8 * Random.State.int rng 8)) 8 Perm.Set.read_write
    | _ -> Cap.exn (Cap.seal ~key (Cap.with_address_exn table e))
  in
  for r = 1 to 15 do
    Vm.set_reg interp r (value ())
  done;
  Vm.set_reg interp Isa.ct2 (Cap.exn (Cap.seal ~key (Cap.with_address_exn table e)));
  let stack = carve (sram + sw_stack) sw_stack_size Perm.Set.stack in
  Vm.set_reg interp Isa.csp (Cap.with_address_exn stack (sram + sw_stack + room));
  Vm.set_reg interp Isa.cgp (carve (sram + sw_globals) 64 Perm.Set.read_write);
  Vm.set_reg interp Isa.ra
    (Cap.exn
       (Cap.seal_entry
          (Cap.make_root ~base:Abi.return_pad ~top:(Abi.return_pad + 16)
             ~perms:Perm.Set.executable)
          Cap.Otype.Return_enable))

(* A call leg and, when it reaches the callee, the return leg as the
   kernel drives it: registers cleared, results in ca0/ca1, the callee's
   stack in csp, entered through the return sentry the call left in ra.
   [underflow] empties the trusted stack first. *)
let switcher_runs ~seed ~arity ~posture ~min_stack ~room ~tsp ~underflow machine interp
    (go : ?at:Cap.t -> unit -> view_mem) =
  let rng = Random.State.make [| seed; arity; posture; min_stack; room; tsp |] in
  switcher_arm ~rng ~arity ~posture ~min_stack ~room ~tsp machine interp;
  let call = go ~at:Switcher.call_sentry () in
  if not (String.starts_with ~prefix:"exited" (fst call).s_outcome) then [ call ]
  else begin
    let ret = Vm.get_reg interp Isa.ra and csp = Vm.get_reg interp Isa.csp in
    for r = 1 to 15 do
      Vm.set_reg interp r Cap.null
    done;
    Vm.set_reg interp Isa.ca0 (Interp.int_value (Random.State.int rng 1000));
    Vm.set_reg interp Isa.ca1 (Vm.get_reg interp 0);
    Vm.set_reg interp Isa.csp csp;
    if underflow then
      Memory.store_priv (Machine.mem machine)
        ~addr:(Machine.sram_base machine + sw_tstack + Abi.ts_tsp)
        ~size:4 Abi.ts_frames;
    [ call; go ~at:ret () ]
  end

let check_switcher ?(room = sw_stack_size) ?(tsp = Abi.ts_frames) ?(underflow = false)
    ~arity ~posture ~min_stack () =
  let name =
    Printf.sprintf "switcher: arity %d, posture %d, min_stack %d, room %d, tsp %d%s" arity
      posture min_stack room tsp
      (if underflow then ", underflow" else "")
  in
  outcomes
    (check_cap_matrix ~base:Abi.switcher_code_base ~sram_size:8192 name Switcher.program
       (switcher_runs ~seed:17 ~arity ~posture ~min_stack ~room ~tsp ~underflow))

let test_switcher_matrix () =
  (* Roomy stack: the call reaches the callee and the return the pad. *)
  for arity = 0 to 6 do
    for posture = 0 to 1 do
      List.iter
        (fun min_stack ->
          match check_switcher ~arity ~posture ~min_stack () with
          | [ call; ret; _; _ ] ->
              Alcotest.(check bool) "call reaches the callee" true
                (String.starts_with ~prefix:"exited cap[0x80000000" call);
              Alcotest.(check bool) "return reaches the pad" true
                (String.starts_with ~prefix:"exited cap[0x7f000000" ret)
          | l -> Alcotest.failf "unexpected runs: %s" (String.concat "; " l))
        [ 0; 16; 48; 256; 1024 ]
    done
  done

let test_switcher_refusals () =
  let refused what expected outcomes =
    Alcotest.(check string) what expected (List.hd outcomes)
  in
  (* 32 bytes of stack below the caller's cursor. *)
  List.iter
    (fun min_stack ->
      let o = check_switcher ~room:32 ~arity:2 ~posture:0 ~min_stack () in
      if min_stack <= 32 then
        Alcotest.(check int) "enough stack: call and return" 4 (List.length o)
      else
        refused "insufficient stack"
          ("trap at 0x" ^ Printf.sprintf "%x" (Abi.switcher_code_base + (4 * Isa.label_index Switcher.program "stack_insufficient" + 32))
         ^ ": " ^ Switcher.insufficient_stack)
          o)
    [ 0; 16; 48; 256; 1024 ];
  refused "trusted stack overflow"
    (Printf.sprintf "trap at 0x%x: %s"
       (Abi.switcher_code_base + (4 * Isa.label_index Switcher.program "ts_overflow"))
       Switcher.trusted_stack_overflow)
    (check_switcher ~tsp:(Abi.ts_size ~frames:2) ~arity:1 ~posture:1 ~min_stack:16 ());
  let o = check_switcher ~underflow:true ~arity:3 ~posture:0 ~min_stack:48 () in
  Alcotest.(check string) "trusted stack underflow"
    (Printf.sprintf "trap at 0x%x: trusted stack underflow"
       (Abi.switcher_code_base + (4 * Isa.label_index Switcher.program "ts_underflow")))
    (List.nth o 1)

(* ------------------------------------------------------------------ *)
(* Zeroing-loop corners: the switcher-shaped loop ([zero_loop_items]),  *)
(* which the engine runs in closed form (one range check, one fill),   *)
(* with each precondition of that form failing in turn and each edge  *)
(* of its trip bound reached.  The window starts seeded with non-zero *)
(* bytes and tags, and memory is compared, so a trip zeroed short or a *)
(* tag left set shows.                                                  *)
(* ------------------------------------------------------------------ *)

(* [zero_loop_items] entered through a jump.  A run's first block ticks
   for real (that tick settles the event horizon), so a loop entered
   straight away would run its first trip unbatched; entered behind the
   [J], every trip, the first included, reaches the closed form's
   checks. *)
let zero_loop_entered =
  Isa.assemble ~name:"zeroentered" (Isa.[ I (Li (3, 0)); I (J "loop") ] @ zero_loop_items)

(* Seed [sram, sram + 1 KiB); r6 := an authority over [sram + base,
   sram + top) with its cursor at [sram + cursor], then [wrap]ped;
   r5 := the loop's end address, [sram + stop]. *)
let zero_loop_setup ?(wrap = Fun.id) ?(base = 0) ~top ~cursor ~stop machine interp =
  let sram = Machine.sram_base machine in
  Equiv_gen.seed_window machine ~addr:sram ~len:1024;
  let auth =
    Cap.make_root ~base:(sram + base) ~top:(sram + top) ~perms:Perm.Set.read_write
  in
  Vm.set_reg interp 6 (wrap (Cap.exn (Cap.with_address auth (sram + cursor))));
  Vm.set_reg interp 5 (Interp.int_value (sram + stop))

(* The outcome of one run of [zero_loop_entered] after [scenario]. *)
let check_zero_loop ?fuel name scenario =
  let views =
    check_cap_matrix ?fuel name zero_loop_entered (fun machine interp go ->
        scenario machine interp;
        [ go () ])
  in
  (List.hd views).s_outcome

let test_zero_loop_bounds () =
  (* The authority's top inside the window: at trip 32's first store,
     4 bytes into it (the store straddles the top) and at trip 32's
     second store.  The cursor 16 bytes below the authority's base, and
     16 bytes below SRAM under an authority that reaches below it.
     Each run traps at the exact granule. *)
  List.iter
    (fun (what, base, top, cursor, want) ->
      Alcotest.(check string) what want
        (check_zero_loop ("zeroing loop, " ^ what)
           (zero_loop_setup ~base ~top ~cursor ~stop:1024)))
    [
      ("top 512", 0, 512, 0, "trap at 0x20000200: bounds violation");
      ("top 516", 0, 516, 0, "trap at 0x20000200: bounds violation");
      ("top 520", 0, 520, 0, "trap at 0x20000208: bounds violation");
      ("cursor below the base", 256, 1024, 240, "trap at 0x200000f0: bounds violation");
      ("cursor below SRAM", -512, 1024, -16, "trap at 0x1ffffff0: bounds violation");
    ]

let test_zero_loop_past_sram () =
  (* The authority and the window both reach 512 bytes past the end of
     SRAM: the bounds pass there, the SRAM range must not. *)
  Alcotest.(check string) "range trap at the end of SRAM"
    "trap at 0x20040000: bounds violation"
    (check_zero_loop "zeroing loop, authority past the end of SRAM"
       (fun machine interp ->
         let size = Machine.sram_size machine in
         Equiv_gen.seed_window machine ~addr:(Machine.sram_base machine + size - 512)
           ~len:512;
         zero_loop_setup ~base:(size - 512) ~top:(size + 512) ~cursor:(size - 512)
           ~stop:(size + 512) machine interp))

let test_zero_loop_revoked_base () =
  (* The load filter on the authority's base, which lies below the
     window: the first store traps, and with the filter off the loop
     runs to the end. *)
  let run filter =
    check_zero_loop "zeroing loop, revoked base" (fun machine interp ->
        let mem = Machine.mem machine in
        zero_loop_setup ~top:2048 ~cursor:256 ~stop:768 machine interp;
        Memory.set_revoked mem ~addr:(Machine.sram_base machine) ~len:8;
        Memory.set_load_filter mem filter)
  in
  Alcotest.(check (list string)) "filter on, off"
    [ "trap at 0x20000100: tag violation"; "halted" ]
    [ run true; run false ]

let test_zero_loop_cursor () =
  (* A sealed cursor, an untagged one, and one 4 bytes past a granule
     boundary: the first store traps. *)
  let key = Cap.make_sealing_root ~first:Cap.Otype.data_first ~last:Cap.Otype.data_last in
  List.iter
    (fun (what, wrap, cursor, want) ->
      Alcotest.(check string) what want
        (check_zero_loop ("zeroing loop, " ^ what)
           (zero_loop_setup ~wrap ~top:1024 ~cursor ~stop:(cursor + 512))))
    [
      ("sealed cursor", (fun c -> Cap.exn (Cap.seal ~key c)), 0,
       "trap at 0x20000000: seal violation");
      ("untagged cursor", Cap.clear_tag, 0, "trap at 0x20000000: tag violation");
      ("misaligned cursor", Fun.id, 4, "trap at 0x20000004: bounds violation");
    ]

let test_zero_loop_never_meets_end () =
  (* An end 8 bytes off the trip grid, and one already behind the
     cursor: the loop walks past it and zeroes up to the authority's
     top, where it traps. *)
  List.iter
    (fun (what, cursor, stop) ->
      Alcotest.(check string) what "trap at 0x20000400: bounds violation"
        (check_zero_loop ("zeroing loop, " ^ what)
           (zero_loop_setup ~top:1024 ~cursor ~stop)))
    [ ("end off the trip grid", 0, 520); ("end behind the cursor", 256, 240) ]

let test_zero_loop_fuel_edges () =
  (* The entry jump (2 instructions), 40 trips (240), then the exit
     entry (Cgetaddr; Beq taken) and Halt: fuel ends one short of the
     last full trip, exactly after it, inside the exit entry, exactly
     after it, and with room to spare. *)
  let trips = 40 in
  let loop_end = 2 + (6 * trips) in
  List.iter
    (fun fuel ->
      let views =
        check_cap_matrix ~fuel
          (Printf.sprintf "zeroing loop, fuel %d" fuel)
          zero_loop_entered
          (fun machine interp go ->
            zero_loop_setup ~top:1024 ~cursor:0 ~stop:(16 * trips) machine interp;
            [ go () ])
      in
      let v = List.hd views in
      Alcotest.(check int)
        (Printf.sprintf "fuel %d retires min(fuel, %d)" fuel (loop_end + 3))
        (min fuel (loop_end + 3))
        v.s_instret)
    [ loop_end - 1; loop_end; loop_end + 1; loop_end + 2; loop_end + 3; loop_end + 6 ]

let test_zero_loop_listener_revokes () =
  (* A parked listener revokes the authority's base at cycle 301, mid
     spin: the deferred batch stops short of it, and the first store
     after it traps. *)
  let got =
    check_zero_loop "zeroing loop, listener revokes mid-spin" (fun machine interp ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        zero_loop_setup ~top:1024 ~cursor:0 ~stop:1024 machine interp;
        let h =
          Machine.add_tick_listener ~period:0 machine (fun _ ->
              Memory.set_revoked mem ~addr:sram ~len:8)
        in
        Machine.set_listener_wakeup machine h ~at:301)
  in
  Alcotest.(check bool) "trapped mid-loop" true
    (String.length got > 8 && String.sub got 0 8 = "trap at ")

(* ------------------------------------------------------------------ *)
(* Direct access checks: every Lw/Sw/Clc/Csc checks its access on the  *)
(* live packed authority (tag, seal and permissions in one mask and    *)
(* compare, bounds, SRAM range, alignment, load filter), with nothing  *)
(* remembered between accesses; posture changes and stores that set a  *)
(* tag keep the deferred batch when they cannot move an event earlier. *)
(* ------------------------------------------------------------------ *)

let test_tagged_store_idle_revoker () =
  (* 40 NULL stores through r8, then 8 tagged stores of r7 through r6.
     First run: revoker idle, so (traced or not) the tagged stores stay in
     the deferred batch.  Then r7 becomes a capability to a revoked
     object and a sweep is kicked: the second run's NULL stores build
     up sweep lag in a deferred batch, and each tagged store must settle
     the sweep to the present cycle before its tag appears.  The sweep
     has passed those granules by then, so every stored copy survives
     it. *)
  let prog =
    Isa.(
      assemble ~name:"tagged"
        [
          I (Li (4, 0));
          I (Li (5, 40));
          L "zero";
          I (Csc (0, 0, 8));
          I (Cincaddrimm (8, 8, 8));
          I (Addi (4, 4, 1));
          I (Bne (4, 5, "zero"));
          I (Li (4, 0));
          I (Li (5, 8));
          L "loop";
          I (Csc (7, 0, 6));
          I (Cincaddrimm (6, 6, 8));
          I (Addi (4, 4, 1));
          I (Bne (4, 5, "loop"));
          I Halt;
        ])
  in
  let survivors = ref 0 in
  let views =
    check_cap_matrix "tagged stores, idle then sweeping revoker" prog
      (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        let obj = sram + 8192 in
        set_auth interp 8 ~base:(sram + 4096) ~top:(sram + 5120);
        set_auth interp 6 ~base:(sram + 512) ~top:(sram + 576);
        Vm.set_reg interp 7
          (Cap.make_root ~base:(sram + 4096) ~top:(sram + 4160) ~perms:Perm.Set.read_write);
        let idle = go () in
        set_auth interp 8 ~base:(sram + 4096) ~top:(sram + 5120);
        set_auth interp 6 ~base:(sram + 32) ~top:(sram + 96);
        Vm.set_reg interp 7
          (Cap.make_root ~base:obj ~top:(obj + 64) ~perms:Perm.Set.read_write);
        Memory.set_revoked mem ~addr:obj ~len:64;
        Machine.revoker_kick machine;
        let sweeping = go () in
        Machine.run_revoker_to_completion machine;
        survivors := 0;
        Memory.iter_caps mem (fun ~addr _ ->
            if addr >= sram + 32 && addr < sram + 96 then incr survivors);
        let swept = (fst sweeping, mem_view machine) in
        [ idle; sweeping; swept ])
  in
  Alcotest.(check (list string)) "both runs halt" [ "halted"; "halted" ]
    (List.filteri (fun i _ -> i < 2) (outcomes views));
  Alcotest.(check int) "every copy stored behind the sweep survives" 8 !survivors

(* Cjalr through r8, a sentry of the given kind to "body" in the same
   segment; "body" does a little work so a delivered IRQ lands mid-run. *)
let sentry_prog =
  Isa.(
    assemble ~name:"sentry"
      [
        I (Li (1, 1));
        I (Cjalr (9, 8));
        I Halt;
        L "body";
        I (Addi (2, 2, 1));
        I (Addi (2, 2, 1));
        I (Addi (2, 2, 1));
        I (Halt);
      ])

let test_enabling_sentry () =
  (* Interrupts off at entry; the Cjalr's enabling sentry turns them on.
     With an IRQ already pending the next tick must deliver it, at the
     spec's cycle; with none pending the horizon is kept, and a timer
     deadline inside "body" must still fire on time. *)
  let side = ref "" in
  let run_with ~pending name =
    check_cap_matrix name sentry_prog (fun machine interp go ->
        let body = code_base + (4 * Isa.label_index sentry_prog "body") in
        let code =
          Cap.make_root ~base:code_base
            ~top:(code_base + Isa.code_bytes sentry_prog)
            ~perms:Perm.Set.executable
        in
        Vm.set_reg interp 8
          (Cap.exn (Cap.seal_entry (Cap.with_address_exn code body) Cap.Otype.Call_enable));
        let fired = ref [] in
        Machine.set_deliver_hook machine
          (Some (fun n -> fired := (n, Machine.cycles machine) :: !fired));
        Machine.set_irq_enabled machine false;
        if pending then Machine.raise_irq machine Machine.first_user_irq
        else Machine.set_timer machine (Some (Machine.cycles machine + 3));
        let v, mem = go () in
        side :=
          String.concat " "
            (List.rev_map (fun (n, c) -> Printf.sprintf "irq %d@%d" n c) !fired);
        [ (v, mem ^ " " ^ !side) ])
  in
  (* Li, Cjalr: the IRQ is delivered by the tick of the first "body"
     instruction, at cycle 3. *)
  let with_pending = run_with ~pending:true "enabling sentry, IRQ pending" in
  Alcotest.(check string) "pending IRQ delivered after the Cjalr" "irq 3@3" !side;
  let without = run_with ~pending:false "enabling sentry, none pending" in
  Alcotest.(check string) "timer fires at its deadline" "irq 0@3" !side;
  Alcotest.(check (list string)) "both halt" [ "halted"; "halted" ]
    [ (List.hd with_pending).s_outcome; (List.hd without).s_outcome ]

let test_alternating_authorities () =
  (* One Lw and one Sw slot used through r6 and r12 alternately (a swap
     every trip).  Then r12's base is revoked, then r12 loses Store:
     the second trip must trap in each, whatever the first trip saw. *)
  let prog =
    Isa.(
      assemble ~name:"alternate"
        [
          I (Li (4, 0));
          I (Li (5, 6));
          L "loop";
          I (Lw (1, 0, 6));
          I (Addi (1, 1, 1));
          I (Sw (1, 4, 6));
          I (Mv (11, 6));
          I (Mv (6, 12));
          I (Mv (12, 11));
          I (Addi (4, 4, 1));
          I (Bne (4, 5, "loop"));
          I Halt;
        ])
  in
  let views =
    check_cap_matrix "one slot, alternating authorities" prog (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        let reset () =
          set_auth interp 6 ~base:sram ~top:(sram + 64);
          set_auth interp 12 ~base:(sram + 512) ~top:(sram + 576)
        in
        reset ();
        let both = go () in
        reset ();
        Memory.set_revoked mem ~addr:(sram + 512) ~len:8;
        let revoked = go () in
        Memory.clear_revoked mem ~addr:(sram + 512) ~len:8;
        reset ();
        Vm.set_reg interp 12
          (Cap.make_root ~base:(sram + 512) ~top:(sram + 576) ~perms:Perm.Set.read_only);
        let read_only = go () in
        [ both; revoked; read_only ])
  in
  Alcotest.(check (list string)) "valid, revoked, read-only"
    [ "halted"; "trap at 0x20000200: tag violation";
      "trap at 0x20000204: permit violation: SD" ]
    (List.filteri (fun i _ -> i < 3) (outcomes views))

let test_clc_attenuation () =
  (* Clc of a Global, mutable capability and of a sentry through
     authorities lacking Mem_cap (the copy comes back untagged),
     Load_global (it loses Global and Load_global) and Load_mutable (it
     loses Store and Load_mutable; the sentry is exempt). *)
  let prog =
    Isa.(
      assemble ~name:"clc"
        [ I (Clc (1, 0, 6)); I (Clc (2, 8, 6)); I (Clc (3, 0, 6)); I Halt ])
  in
  let views =
    check_cap_matrix "Clc attenuation" prog (fun machine interp go ->
        let sram = Machine.sram_base machine and mem = Machine.mem machine in
        let code = Cap.make_root ~base:code_base ~top:(code_base + 64) ~perms:Perm.Set.executable in
        Memory.store_cap_priv mem ~addr:sram
          (Cap.make_root ~base:(sram + 256) ~top:(sram + 320) ~perms:Perm.Set.read_write);
        Memory.store_cap_priv mem ~addr:(sram + 8)
          (Cap.exn (Cap.seal_entry code Cap.Otype.Call_inherit));
        let through perms =
          Vm.set_reg interp 6 (Cap.make_root ~base:sram ~top:(sram + 64) ~perms);
          go ()
        in
        let without p = through (Perm.Set.remove p Perm.Set.read_write) in
        [ through Perm.Set.read_write; without Perm.Mem_cap; without Perm.Load_global;
          without Perm.Load_mutable ])
  in
  let r1 v = List.nth v.s_regs 1 in
  Alcotest.(check int) "four distinct loaded copies" 4
    (List.length (List.sort_uniq compare (List.map r1 (List.filteri (fun i _ -> i < 4) views))))

let () =
  Alcotest.run "cheriot_interp_equiv"
    [
      ( "equiv",
        [
          Qcheck_seed.to_alcotest prop_random_programs;
          Qcheck_seed.to_alcotest prop_fuel_exhaustion;
          Alcotest.test_case "bounds fall-through" `Quick
            test_bounds_fall_through;
          Alcotest.test_case "narrow pcc" `Quick test_narrow_pcc;
          Alcotest.test_case "jump out exits" `Quick test_jump_out_exits;
        ] );
      ( "superblock corners",
        [
          Alcotest.test_case "IRQ mid-block" `Quick test_irq_mid_block;
          Alcotest.test_case "fault injected mid-block" `Quick
            test_fault_mid_block;
          Alcotest.test_case "fuel exhausted inside a block" `Quick
            test_fuel_inside_block;
          Alcotest.test_case "epoch invalidation between runs" `Quick
            test_epoch_invalidation_between_runs;
        ] );
      ( "access caches",
        [
          Alcotest.test_case "store authority revoked between runs" `Quick
            test_store_revoked_between_runs;
          Alcotest.test_case "load-filter toggle" `Quick test_load_filter_toggle;
          Alcotest.test_case "last granule of the bounds and one past" `Quick
            test_bounds_last_granule;
          Alcotest.test_case "misaligned cursor" `Quick test_misaligned_cursor;
          Alcotest.test_case "authority past the end of SRAM" `Quick
            test_authority_past_sram;
          Alcotest.test_case "listener revokes the authority mid-block" `Quick
            test_listener_revokes_mid_block;
          Alcotest.test_case "restore over a warm cache" `Quick
            test_restore_over_warm_cache;
          Alcotest.test_case "tagged store after NULL stores settles the revoker"
            `Quick test_tagged_store_settles_revoker;
          Alcotest.test_case "local store behind a warm cache" `Quick
            test_local_store_behind_warm_cache;
        ] );
      ( "trace blocks",
        [
          Alcotest.test_case "fuel around a mid-block exit" `Quick
            test_fuel_around_mid_block_exit;
          Alcotest.test_case "pcc top inside a block" `Quick test_pcc_top_inside_block;
          Alcotest.test_case "zeroing loop cut mid-spin" `Quick test_zero_loop_cut;
          Alcotest.test_case "traced sample inside a straight block" `Quick
            test_sample_in_straight_block;
          Alcotest.test_case "traced sample inside a zeroing spin" `Quick
            test_sample_in_zeroing_spin;
        ] );
      ( "folded blocks",
        [
          Alcotest.test_case "fuel after a diamond's join" `Quick test_fuel_after_join;
          Alcotest.test_case "trap on one arm of a diamond" `Quick
            test_trap_on_diamond_arm;
          Alcotest.test_case "pcc top past a forward branch" `Quick
            test_pcc_top_past_forward_branch;
          Alcotest.test_case "traced sample on the longer path" `Quick
            test_sample_on_longer_path;
          Alcotest.test_case "zeroing spin into a folded tail" `Quick
            test_zero_spin_folded_tail;
          Alcotest.test_case "register-clear run" `Quick test_clear_run;
        ] );
      ( "switcher",
        [
          Alcotest.test_case "every arity, posture and stack requirement" `Quick
            test_switcher_matrix;
          Alcotest.test_case "short stack, full and empty trusted stack" `Quick
            test_switcher_refusals;
        ] );
      ( "zeroing loop",
        [
          Alcotest.test_case "authority top inside the window, cursor below" `Quick
            test_zero_loop_bounds;
          Alcotest.test_case "authority past the end of SRAM" `Quick
            test_zero_loop_past_sram;
          Alcotest.test_case "revoked authority base" `Quick test_zero_loop_revoked_base;
          Alcotest.test_case "sealed, untagged or misaligned cursor" `Quick
            test_zero_loop_cursor;
          Alcotest.test_case "end off the trip grid or behind the cursor" `Quick
            test_zero_loop_never_meets_end;
          Alcotest.test_case "fuel at the last trip and the exit entry" `Quick
            test_zero_loop_fuel_edges;
          Alcotest.test_case "listener revokes the authority mid-spin" `Quick
            test_zero_loop_listener_revokes;
        ] );
      ( "direct checks",
        [
          Alcotest.test_case "tagged stores, idle and sweeping revoker" `Quick
            test_tagged_store_idle_revoker;
          Alcotest.test_case "enabling sentry, IRQ pending or not" `Quick
            test_enabling_sentry;
          Alcotest.test_case "one slot, alternating authorities" `Quick
            test_alternating_authorities;
          Alcotest.test_case "Clc attenuation" `Quick test_clc_attenuation;
        ] );
    ]
