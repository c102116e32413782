(* Equivalence lockdown for the interpreter back-ends: on randomized
   programs, the pre-decoded and superblock-compiled engines must agree
   with the legacy per-step fetch/decode oracle on everything observable
   — final registers, instructions retired, simulated cycles, outcome
   (including trap cause and faulting PC) and the emitted trace event
   stream.  The golden-cycles files pin the real workloads; this suite
   explores the weird corners (bound-edge branches, traps mid-loop, fuel
   exhaustion, sentry jumps) the workloads never reach, plus the corners
   specific to superblock compilation: an IRQ firing mid-block, a fault
   injected mid-block by external hardware, fuel running out inside a
   block (forced side-exit), and filter-epoch invalidation between two
   executions of the same warm compiled block; and the corners of the
   hoisted-authority access caches (see the section below). *)

module Cap = Capability

let code_base = 0x4000_0000

let engine_name = function
  | `Legacy -> "legacy"
  | `Predecode -> "predecode"
  | `Superblock -> "superblock"

let fast_engines = [ `Predecode; `Superblock ]

(* ------------------------------------------------------------------ *)
(* Random program generation                                          *)
(* ------------------------------------------------------------------ *)

(* Registers 1..5 are scratch integers, 6 is a data capability over
   SRAM, 7 a deliberately narrow data capability, 8 a sentry back to the
   code segment.  Branch targets come from a fixed label pool placed at
   random positions, so [Isa.assemble] always validates. *)

let n_labels = 4

let gen_instr rng labels =
  let reg () = 1 + Random.State.int rng 5 in
  let label () = List.nth labels (Random.State.int rng (List.length labels)) in
  let small () = Random.State.int rng 64 - 8 in
  match Random.State.int rng 100 with
  | n when n < 10 -> Isa.Li (reg (), Random.State.int rng 1000)
  | n when n < 18 -> Isa.Addi (reg (), reg (), small ())
  | n when n < 24 -> Isa.Add (reg (), reg (), reg ())
  | n when n < 28 -> Isa.Sub (reg (), reg (), reg ())
  | n when n < 32 -> Isa.Andi (reg (), reg (), Random.State.int rng 255)
  | n when n < 36 -> Isa.Mv (reg (), reg ())
  | n when n < 44 -> Isa.Beq (reg (), reg (), label ())
  | n when n < 50 -> Isa.Bne (reg (), reg (), label ())
  | n when n < 54 -> Isa.Bltu (reg (), reg (), label ())
  | n when n < 58 -> Isa.Bgeu (reg (), reg (), label ())
  | n when n < 62 -> Isa.J (label ())
  | n when n < 68 ->
      (* mostly in-bounds loads/stores through r6; r7 is narrow, so the
         same offsets exercise the capability-fault path *)
      let auth = if Random.State.int rng 4 = 0 then 7 else 6 in
      Isa.Lw (reg (), 4 * Random.State.int rng 40, auth)
  | n when n < 74 ->
      let auth = if Random.State.int rng 4 = 0 then 7 else 6 in
      Isa.Sw (reg (), 4 * Random.State.int rng 40, auth)
  | n when n < 78 -> Isa.Cincaddrimm (reg (), 6, small ())
  | n when n < 81 -> Isa.Csetboundsimm (reg (), 6, Random.State.int rng 128)
  | n when n < 84 -> Isa.Cgetaddr (reg (), 6)
  | n when n < 86 -> Isa.Cgetlen (reg (), 7)
  | n when n < 88 -> Isa.Cgettag (reg (), reg ())
  | n when n < 90 -> Isa.Cgetperm (reg (), 6)
  | n when n < 92 -> Isa.Ccleartag (reg (), reg ())
  | n when n < 94 -> Isa.Cjal (reg (), label ())
  | n when n < 96 -> Isa.Auipcc (reg (), label ())
  | n when n < 97 -> Isa.Cjalr (reg (), 8)
  | n when n < 98 -> Isa.Trapif "generated"
  | _ -> Isa.Halt

let gen_program rng =
  let len = 8 + Random.State.int rng 32 in
  let labels = List.init n_labels (fun i -> Printf.sprintf "L%d" i) in
  (* Each label lands at a random instruction index. *)
  let label_at = Array.make len [] in
  List.iter
    (fun l ->
      let i = Random.State.int rng len in
      label_at.(i) <- l :: label_at.(i))
    labels;
  let items = ref [] in
  for i = len - 1 downto 0 do
    items := Isa.I (gen_instr rng labels) :: !items;
    List.iter (fun l -> items := Isa.L l :: !items) label_at.(i)
  done;
  (* Halt backstop so straight-line fall-through off the end (a legal
     Bounds trap) isn't the only way out. *)
  Isa.assemble ~name:"equiv" (!items @ [ Isa.I Isa.Halt ])

(* ------------------------------------------------------------------ *)
(* One run under any engine                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_outcome : string;
  s_instret : int;
  s_cycles : int;
  s_regs : string list;
  s_events : string list;
}

let outcome_to_string = function
  | Interp.Halted -> "halted"
  | Interp.Exited c -> "exited " ^ Cap.to_string c
  | Interp.Trapped tr -> Fmt.str "%a" Interp.pp_trap tr

let view machine obs interp outcome =
  {
    s_outcome = outcome_to_string outcome;
    s_instret = Interp.instret interp;
    s_cycles = Machine.cycles machine;
    s_regs = Array.to_list (Array.map Cap.to_string (Interp.read_regs interp));
    s_events = List.map (Fmt.str "%a" Obs.pp_event) (Obs.events obs);
  }

let run_one ~engine ~fuel prog =
  let machine = Machine.create () in
  let obs = Obs.create () in
  Machine.set_trace machine (Some obs);
  let interp = Interp.create ~engine machine in
  Interp.map_segment interp ~base:code_base prog;
  let sram = Machine.sram_base machine in
  Interp.set_reg interp 6
    @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
  Interp.set_reg interp 7
    @@ Cap.make_root ~base:(sram + 64) ~top:(sram + 96) ~perms:Perm.Set.read_write;
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  Interp.set_reg interp 8 @@ entry;
  let outcome = Interp.run ~fuel interp entry in
  view machine obs interp outcome

let diff_views what oracle fast =
  let same l = String.concat "; " l in
  if fast.s_outcome <> oracle.s_outcome then
    QCheck.Test.fail_reportf "%s outcome: %s vs %s" what fast.s_outcome
      oracle.s_outcome;
  if fast.s_instret <> oracle.s_instret then
    QCheck.Test.fail_reportf "%s instret: %d vs %d" what fast.s_instret
      oracle.s_instret;
  if fast.s_cycles <> oracle.s_cycles then
    QCheck.Test.fail_reportf "%s cycles: %d vs %d" what fast.s_cycles
      oracle.s_cycles;
  if fast.s_regs <> oracle.s_regs then
    QCheck.Test.fail_reportf "%s registers:@.%s@.vs@.%s" what
      (same fast.s_regs) (same oracle.s_regs);
  if fast.s_events <> oracle.s_events then
    QCheck.Test.fail_reportf "%s trace events:@.%s@.vs@.%s" what
      (same fast.s_events) (same oracle.s_events)

let check_equiv ?(fuel = 2_000) prog =
  let oracle = run_one ~engine:`Legacy ~fuel prog in
  List.iter
    (fun engine ->
      diff_views (engine_name engine) oracle (run_one ~engine ~fuel prog))
    fast_engines;
  true

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 0x3fffffff)

let prop_random_programs =
  QCheck.Test.make
    ~name:"predecode == superblock == legacy on random programs" ~count:300
    seed_gen
    (fun s ->
      let rng = Random.State.make [| s; 0x5eed |] in
      check_equiv (gen_program rng))

let prop_fuel_exhaustion =
  QCheck.Test.make ~name:"all three engines agree at every fuel level"
    ~count:100
    (QCheck.pair seed_gen QCheck.(int_range 1 60))
    (fun (s, fuel) ->
      let rng = Random.State.make [| s; 0xf0e1 |] in
      check_equiv ~fuel (gen_program rng))

(* Hand-built corners the generator only rarely hits. *)

let test_bounds_fall_through () =
  (* Straight-line code running off the end of its segment must trap
     Bounds at the first address past it, identically in all engines. *)
  let prog =
    Isa.assemble ~name:"fall" [ Isa.I (Isa.Li (1, 1)); Isa.I (Isa.Li (2, 2)) ]
  in
  ignore (check_equiv prog)

let test_narrow_pcc () =
  (* A pcc narrower than the segment: the fast paths' in-segment check
     passes but the pcc bounds check must still fire, with the same
     violation the legacy path reports.  For the superblock engine the
     whole-block bounds precondition fails, forcing the side-exit. *)
  let prog =
    Isa.assemble ~name:"narrow"
      [
        Isa.I (Isa.Li (1, 1));
        Isa.I (Isa.Li (2, 2));
        Isa.I (Isa.Li (3, 3));
        Isa.I Isa.Halt;
      ]
  in
  let run engine =
    let machine = Machine.create () in
    let interp = Interp.create ~engine machine in
    Interp.map_segment interp ~base:code_base prog;
    let pcc =
      Cap.make_root ~base:code_base ~top:(code_base + 8)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    ( outcome_to_string (Interp.run ~fuel:100 interp entry),
      Interp.instret interp,
      Machine.cycles machine )
  in
  let oracle = run `Legacy in
  List.iter
    (fun engine ->
      Alcotest.(check (triple string int int))
        ("narrow pcc agrees: " ^ engine_name engine)
        oracle (run engine))
    fast_engines

let test_jump_out_exits () =
  (* Cjalr to an address outside every segment leaves the interpreter
     (the kernel's native-trampoline convention). *)
  let prog =
    Isa.assemble ~name:"exit" [ Isa.I (Isa.Cjalr (1, 8)); Isa.I Isa.Halt ]
  in
  let run engine =
    let machine = Machine.create () in
    let interp = Interp.create ~engine machine in
    Interp.map_segment interp ~base:code_base prog;
    let sram = Machine.sram_base machine in
    let away =
      Cap.make_root ~base:sram ~top:(sram + 64) ~perms:Perm.Set.executable
    in
    Interp.set_reg interp 8
      @@ Cap.exn (Cap.seal_entry away Cap.Otype.Call_inherit);
    let pcc =
      Cap.make_root ~base:code_base
        ~top:(code_base + Isa.code_bytes prog)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    (outcome_to_string (Interp.run ~fuel:100 interp entry),
     Interp.instret interp)
  in
  let oracle = run `Legacy in
  List.iter
    (fun engine ->
      Alcotest.(check (pair string int))
        ("exit agrees: " ^ engine_name engine)
        oracle (run engine))
    fast_engines

(* ------------------------------------------------------------------ *)
(* Superblock-specific corners: the tight loop is one compiled block   *)
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
let run_loop ~engine ?(fuel = 100_000) ~trips setup =
  let machine = Machine.create () in
  let obs = Obs.create () in
  Machine.set_trace machine (Some obs);
  let interp = Interp.create ~engine machine in
  let prog = loop_prog trips in
  Interp.map_segment interp ~base:code_base prog;
  let sram = Machine.sram_base machine in
  Interp.set_reg interp 6
    @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
  let extra = setup machine in
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  let outcome = Interp.run ~fuel interp entry in
  (view machine obs interp outcome, extra ())

let check_loop_matrix name ?fuel ~trips setup =
  let oracle, oracle_extra = run_loop ~engine:`Legacy ?fuel ~trips setup in
  List.iter
    (fun engine ->
      let got, extra = run_loop ~engine ?fuel ~trips setup in
      diff_views (name ^ ": " ^ engine_name engine) oracle got;
      Alcotest.(check (list (pair int int)))
        (name ^ " side observations: " ^ engine_name engine)
        oracle_extra extra)
    fast_engines;
  oracle

let test_irq_mid_block () =
  (* A timer deadline landing mid-trip: the event horizon must stop the
     deferred batch (and the self-loop spin) short of the deadline so
     delivery happens at exactly the cycle the per-instruction oracle
     delivers at. *)
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
     the listener, the epoch bump invalidates the warm inline caches,
     and the very next Lw/Sw through r6 must take the slow path and
     trap at the same instruction in every engine. *)
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
     budget precondition fails and the remainder runs on the exact
     per-instruction engine, trapping "out of fuel" at the same pc and
     cycle.  Sweep fuel across several block phases. *)
  for fuel = 1 to 40 do
    ignore
      (check_loop_matrix
         (Printf.sprintf "fuel %d inside block" fuel)
         ~fuel ~trips:200
         (fun _ -> fun () -> []))
  done

let test_epoch_invalidation_between_runs () =
  (* Two executions of the same warm compiled block with a revocation
     edit in between: the first run warms the block cache and the
     memoized load-filter caches; the edit bumps the filter epoch; the
     second run must re-check and trap, and after clearing the bit a
     third run must succeed again — identically in every engine. *)
  let run engine =
    let machine = Machine.create () in
    let obs = Obs.create () in
    Machine.set_trace machine (Some obs);
    let interp = Interp.create ~engine machine in
    let prog = loop_prog 50 in
    Interp.map_segment interp ~base:code_base prog;
    let sram = Machine.sram_base machine in
    let mem = Machine.mem machine in
    Interp.set_reg interp 6
      @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
    let pcc =
      Cap.make_root ~base:code_base
        ~top:(code_base + Isa.code_bytes prog)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    let go () =
      view machine obs interp (Interp.run ~fuel:10_000 interp entry)
    in
    let warm = go () in
    Memory.set_revoked mem ~addr:sram ~len:8;
    let revoked = go () in
    Memory.clear_revoked mem ~addr:sram ~len:8;
    let cleared = go () in
    (warm, revoked, cleared)
  in
  let w0, r0, c0 = run `Legacy in
  Alcotest.(check string) "warm run halts" "halted" w0.s_outcome;
  Alcotest.(check bool) "revoked run traps" true (r0.s_outcome <> "halted");
  Alcotest.(check string) "cleared run halts again" "halted" c0.s_outcome;
  List.iter
    (fun engine ->
      let w, r, c = run engine in
      let n = engine_name engine in
      diff_views ("epoch warm: " ^ n) w0 w;
      diff_views ("epoch revoked: " ^ n) r0 r;
      diff_views ("epoch cleared: " ^ n) c0 c)
    fast_engines

(* ------------------------------------------------------------------ *)
(* Capability-access corners: the superblock engine's hoisted-authority *)
(* caches on Csc/Clc (keyed on the authority's meta/base/top plus the   *)
(* filter epoch, with bounds, alignment and the SRAM range re-checked   *)
(* on every access).  Each scenario is a sequence of runs with edits in *)
(* between, compared run by run against the legacy oracle — memory     *)
(* bytes and tags included — both traced (no deferral: every charge     *)
(* ticks) and untraced (deferred batches, where the NULL-store fast     *)
(* path stays batched).                                                 *)
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

(* Memory as the oracle sees it: a digest of every SRAM word plus the
   tagged granules with their capabilities. *)
let mem_view machine =
  let mem = Machine.mem machine in
  let sram = Machine.sram_base machine in
  let b = Buffer.create (Machine.sram_size machine) in
  for i = 0 to (Machine.sram_size machine / 4) - 1 do
    Buffer.add_string b
      (string_of_int (Memory.load_priv mem ~addr:(sram + (4 * i)) ~size:4));
    Buffer.add_char b ','
  done;
  let tags = ref [] in
  Memory.iter_caps mem (fun ~addr c ->
      tags := Fmt.str "0x%x=%s" addr (Cap.to_string c) :: !tags);
  String.concat " " (Digest.to_hex (Digest.string (Buffer.contents b)) :: List.rev !tags)

(* A rig for [prog]; [scenario] arms it and drives the runs through
   [go], which returns one view per run. *)
let cap_runs ~engine ~traced prog scenario =
  let machine = Machine.create () in
  let obs = Obs.create () in
  if traced then Machine.set_trace machine (Some obs);
  let interp = Interp.create ~engine machine in
  Interp.map_segment interp ~base:code_base prog;
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  let go () =
    let v = view machine obs interp (Interp.run ~fuel:100_000 interp entry) in
    (v, mem_view machine)
  in
  scenario machine interp go

let check_cap_matrix name prog scenario =
  List.concat_map
    (fun traced ->
      let mode = if traced then "traced" else "untraced" in
      let oracle = cap_runs ~engine:`Legacy ~traced prog scenario in
      List.iter
        (fun engine ->
          let got = cap_runs ~engine ~traced prog scenario in
          Alcotest.(check int)
            (Fmt.str "%s (%s): runs" name mode)
            (List.length oracle) (List.length got);
          List.iteri
            (fun i ((ov, om), (gv, gm)) ->
              let what = Fmt.str "%s (%s) run %d: %s" name mode i (engine_name engine) in
              diff_views what ov gv;
              Alcotest.(check string) (what ^ " memory") om gm)
            (List.combine oracle got))
        fast_engines;
      List.map fst oracle)
    [ true; false ]

let outcomes views = List.map (fun v -> v.s_outcome) views

let set_auth interp r ~base ~top =
  Interp.set_reg interp r (Cap.make_root ~base ~top ~perms:Perm.Set.read_write)

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
     once it is toggled back on — each step behind a warm cache. *)
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
  (* Snapshot with the authority's base revoked, clear it, warm every
     cache, then restore: the rewound revocation bit must trap. *)
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
     up (deferred in the untraced mode); the tagged store that follows
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
        Interp.set_reg interp 7 freed;
        set_auth interp 8 ~base:sram ~top:(sram + 64);
        Interp.set_reg interp 8
          (Cap.exn (Cap.with_address (Interp.get_reg interp 8) (sram + 32)));
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
  (* A warm tagged-store cache must still apply the Store_local rule to
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
        Interp.set_reg interp 9
          (Cap.make_root ~base:(sram + 4096) ~top:(sram + 4160)
             ~perms:(Perm.Set.remove Perm.Global Perm.Set.read_write));
        [ go () ])
  in
  Alcotest.(check (list string)) "Store_local trap"
    [ "trap at 0x20000020: permit violation: SL" ]
    (List.filteri (fun i _ -> i < 1) (outcomes views))

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
    ]
