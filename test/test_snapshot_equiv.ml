(* Equivalence lockdown for Machine.snapshot/restore: forking a run
   from a snapshot must be indistinguishable from never having forked.
   On randomized programs (the test_interp_equiv generator), three runs
   must agree on everything observable — outcome (including trap cause
   and faulting PC), instructions retired, simulated cycles, the full
   register file and the emitted trace event stream:

     f0: prologue; epilogue                    (uninterrupted)
     f1: prologue; snapshot; epilogue          (snapshot is invisible)
     f2: prologue; snapshot; epilogue;
         restore; epilogue                     (restore is exact)

   and identically under all three interpreter engines (legacy,
   pre-decoded, superblock — each restores through the same capture).
   Corners the generator cannot reach — snapshot with an IRQ latched
   behind a masked line, snapshot mid-quarantine-sweep, snapshot
   attempted from a running kernel thread, restore over a superblock
   engine's warm compiled blocks — get hand-built cases. *)

module Cap = Capability
module F = Firmware

let code_base = 0x4000_0000
let code_base2 = 0x4100_0000

(* ------------------------------------------------------------------ *)
(* Random program generation (the test_interp_equiv generator)        *)
(* ------------------------------------------------------------------ *)

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
  Isa.assemble ~name:"equiv" (!items @ [ Isa.I Isa.Halt ])

(* ------------------------------------------------------------------ *)
(* Harness: prologue program A, epilogue program B, fork between them *)
(* ------------------------------------------------------------------ *)

type rig = {
  machine : Machine.t;
  obs : Obs.t;
  frn : Forensics.t;
  prof : Profiler.t;
  interp : Interp.t;
}

let outcome_to_string = function
  | Interp.Halted -> "halted"
  | Interp.Exited c -> "exited " ^ Cap.to_string c
  | Interp.Trapped tr -> Fmt.str "%a" Interp.pp_trap tr

let make_rig ~engine prog_a prog_b =
  let machine = Machine.create () in
  let obs = Obs.create () in
  Machine.set_trace machine (Some obs);
  (* The flight recorder and profiler ride the same emission stream and
     are captured by the same snapshot — attaching them here puts their
     state under every fork-equivalence property below. *)
  let frn = Forensics.create () in
  Machine.set_forensics machine (Some frn);
  let prof = Profiler.create ~mode:Profiler.Exact () in
  Machine.set_profiler machine (Some prof);
  let interp = Interp.create ~engine machine in
  Interp.map_segment interp ~base:code_base prog_a;
  Interp.map_segment interp ~base:code_base2 prog_b;
  let sram = Machine.sram_base machine in
  Interp.set_reg interp 6
    @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
  Interp.set_reg interp 7
    @@ Cap.make_root ~base:(sram + 64) ~top:(sram + 96) ~perms:Perm.Set.read_write;
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog_a)
      ~perms:Perm.Set.executable
  in
  Interp.set_reg interp 8 @@ Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit);
  { machine; obs; frn; prof; interp }

let entry_of base prog =
  let pcc =
    Cap.make_root ~base ~top:(base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit)

type view = {
  s_outcome : string;
  s_instret : int;
  s_cycles : int;
  s_regs : string list;
  s_events : string list;
  s_folded : string;
  s_fleet : string;
}

let run_epilogue ~fuel rig prog_b =
  let outcome = Interp.run ~fuel rig.interp (entry_of code_base2 prog_b) in
  let cycles = Machine.cycles rig.machine in
  {
    s_outcome = outcome_to_string outcome;
    s_instret = Interp.instret rig.interp;
    s_cycles = cycles;
    s_regs = Array.to_list (Array.map Cap.to_string (Interp.read_regs rig.interp));
    s_events = List.map (Fmt.str "%a" Obs.pp_event) (Obs.events rig.obs);
    s_folded = Profiler.to_folded_text rig.prof ~total_cycles:cycles;
    s_fleet = Agg.table (Agg.of_forensics rig.frn ~cycles);
  }

let check_view what a b =
  let same l = String.concat "; " l in
  if a.s_outcome <> b.s_outcome then
    QCheck.Test.fail_reportf "%s outcome: %s vs %s" what a.s_outcome b.s_outcome;
  if a.s_instret <> b.s_instret then
    QCheck.Test.fail_reportf "%s instret: %d vs %d" what a.s_instret b.s_instret;
  if a.s_cycles <> b.s_cycles then
    QCheck.Test.fail_reportf "%s cycles: %d vs %d" what a.s_cycles b.s_cycles;
  if a.s_regs <> b.s_regs then
    QCheck.Test.fail_reportf "%s registers:@.%s@.vs@.%s" what (same a.s_regs)
      (same b.s_regs);
  if a.s_events <> b.s_events then
    QCheck.Test.fail_reportf "%s trace events:@.%s@.vs@.%s" what
      (same a.s_events) (same b.s_events);
  if a.s_folded <> b.s_folded then
    QCheck.Test.fail_reportf "%s folded stacks:@.%s@.vs@.%s" what a.s_folded
      b.s_folded;
  if a.s_fleet <> b.s_fleet then
    QCheck.Test.fail_reportf "%s fleet metrics:@.%s@.vs@.%s" what a.s_fleet
      b.s_fleet

(* One engine's triple for a given program pair. *)
let fork_views ~engine ~fuel prog_a prog_b =
  let plain = make_rig ~engine prog_a prog_b in
  ignore (Interp.run ~fuel plain.interp (entry_of code_base prog_a));
  let f0 = run_epilogue ~fuel plain prog_b in
  let rig = make_rig ~engine prog_a prog_b in
  ignore (Interp.run ~fuel rig.interp (entry_of code_base prog_a));
  let snap = Machine.snapshot rig.machine in
  let f1 = run_epilogue ~fuel rig prog_b in
  Machine.restore rig.machine snap;
  let f2 = run_epilogue ~fuel rig prog_b in
  (f0, f1, f2, rig, snap)

let check_matrix ?(fuel = 2_000) s =
  let rng = Random.State.make [| s; 0x54a9 |] in
  let prog_a = gen_program rng in
  let prog_b = gen_program rng in
  let f0, f1, f2, rig, snap =
    fork_views ~engine:`Superblock ~fuel prog_a prog_b
  in
  check_view "superblock: snapshot invisible" f0 f1;
  check_view "superblock: restore exact" f1 f2;
  (* Restoring the same snapshot again must fork identically — the
     capture owns its state, successive restores cannot see each other. *)
  Machine.restore rig.machine snap;
  let f3 = run_epilogue ~fuel rig prog_b in
  check_view "superblock: second restore exact" f2 f3;
  (* The other engines restore through the same capture and must land
     on the same fork. *)
  let g0, g1, g2, _, _ = fork_views ~engine:`Legacy ~fuel prog_a prog_b in
  check_view "legacy: snapshot invisible" g0 g1;
  check_view "legacy: restore exact" g1 g2;
  check_view "superblock == legacy after restore" f2 g2;
  let _, _, h2, _, _ = fork_views ~engine:`Predecode ~fuel prog_a prog_b in
  check_view "predecode == legacy after restore" h2 g2;
  true

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 0x3fffffff)

let prop_fork_matrix =
  QCheck.Test.make
    ~name:"snapshot fork == uninterrupted run (both engines)" ~count:100
    seed_gen check_matrix

let prop_fork_any_fuel =
  QCheck.Test.make ~name:"fork equivalence at every prologue fuel" ~count:60
    (QCheck.pair seed_gen QCheck.(int_range 1 60))
    (fun (s, fuel) ->
      (* A fuel-starved prologue leaves the machine mid-whatever it was
         doing (Software trap); the fork must still be exact there. *)
      let rng = Random.State.make [| s; 0x0f0e |] in
      let prog_a = gen_program rng in
      let prog_b = gen_program rng in
      let _, f1, f2, _, _ =
        fork_views ~engine:`Superblock ~fuel prog_a prog_b
      in
      (* Only restore-exactness is meaningful here: the prologue was cut
         short by fuel in both runs, so f0 ≡ f1 already follows from the
         full-fuel property. *)
      check_view "starved prologue: restore exact" f1 f2;
      true)

(* ------------------------------------------------------------------ *)
(* Corner: snapshot with an IRQ latched behind a masked line          *)
(* ------------------------------------------------------------------ *)

let test_pending_irq_snapshot () =
  let machine = Machine.create () in
  let delivered = ref [] in
  Machine.set_deliver_hook machine
    (Some (fun n -> delivered := (n, Machine.cycles machine) :: !delivered));
  Machine.set_irq_enabled machine false;
  Machine.raise_irq machine 5;
  Machine.tick machine 100;
  Alcotest.(check bool) "latched while masked" true (Machine.pending machine 5);
  let snap = Machine.snapshot machine in
  let unmask_and_run () =
    Machine.set_irq_enabled machine true;
    Machine.tick machine 50;
    let got = List.rev !delivered in
    delivered := [];
    (got, Machine.cycles machine, Machine.pending machine 5)
  in
  let a = unmask_and_run () in
  Machine.restore machine snap;
  Alcotest.(check bool) "pending bit restored" true (Machine.pending machine 5);
  let b = unmask_and_run () in
  let pp = Alcotest.(triple (list (pair int int)) int bool) in
  Alcotest.check pp "post-restore delivery identical" a b;
  let deliveries, _, still_pending = a in
  Alcotest.(check bool) "irq actually delivered" true (deliveries <> []);
  Alcotest.(check bool) "pending cleared by delivery" false still_pending

(* ------------------------------------------------------------------ *)
(* Corner: restore over a superblock engine's warm caches             *)
(* ------------------------------------------------------------------ *)

let test_restore_over_warm_superblock_caches () =
  (* Snapshot a machine whose data region is revoked, clear the
     revocation and run a loop to warm the compiled blocks with passing
     accesses, then restore.  The restored machine is revoked again; if
     a compiled block remembered a passing check (or the interpreter
     kept stale per-run state), the loop would run unchecked.  It must
     trap exactly like a fresh legacy interpreter on the restored
     state. *)
  let prog =
    Isa.assemble ~name:"warm"
      [
        Isa.I (Isa.Li (4, 0));
        Isa.I (Isa.Li (5, 50));
        Isa.L "loop";
        Isa.I (Isa.Addi (4, 4, 1));
        Isa.I (Isa.Sw (4, 0, 6));
        Isa.I (Isa.Lw (7, 0, 6));
        Isa.I (Isa.Bne (4, 5, "loop"));
        Isa.I Isa.Halt;
      ]
  in
  let run engine =
    let machine = Machine.create () in
    let interp = Interp.create ~engine machine in
    Interp.map_segment interp ~base:code_base prog;
    let sram = Machine.sram_base machine in
    let mem = Machine.mem machine in
    Interp.set_reg interp 6
      @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
    let go () =
      ( outcome_to_string (Interp.run ~fuel:10_000 interp (entry_of code_base prog)),
        Interp.instret interp,
        Machine.cycles machine )
    in
    Memory.set_revoked mem ~addr:sram ~len:8;
    let snap = Machine.snapshot machine in
    Memory.clear_revoked mem ~addr:sram ~len:8;
    let warm = go () in
    Machine.restore machine snap;
    let restored = go () in
    (warm, restored)
  in
  let (warm_l, restored_l) = run `Legacy in
  let (warm_s, restored_s) = run `Superblock in
  let t3 = Alcotest.(triple string int int) in
  let (o, _, _) = warm_l in
  Alcotest.(check string) "warm run halts" "halted" o;
  let (o, _, _) = restored_l in
  Alcotest.(check bool) "restored run traps" true (o <> "halted");
  Alcotest.check t3 "warm run agrees" warm_l warm_s;
  Alcotest.check t3 "restored run agrees over warm caches" restored_l
    restored_s

(* ------------------------------------------------------------------ *)
(* Corners needing a full system: mid-sweep fork, quiescence contract *)
(* ------------------------------------------------------------------ *)

let churn_firmware () =
  System.image ~name:"snapchurn"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"q" ~quota:8192 ]
    ~threads:
      [ F.thread ~name:"main" ~comp:"churn" ~entry:"main" ~stack_size:2048 () ]
    [
      F.compartment "churn" ~globals_size:16
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
        ~imports:(System.standard_imports @ [ F.Static_sealed { target = "q" } ]);
    ]

let boot_churn body =
  let machine = Machine.create () in
  Machine.set_forensics machine (Some (Forensics.create ()));
  Machine.set_profiler machine (Some (Profiler.create ~mode:Profiler.Exact ()));
  let sys = Result.get_ok (System.boot ~machine (churn_firmware ())) in
  let k = sys.System.kernel in
  Kernel.implement1 k ~comp:"churn" ~entry:"main" (fun ctx _ ->
      let l = Loader.find_comp (Kernel.loader ctx.Kernel.kernel) "churn" in
      let q =
        Machine.load_cap machine ~auth:l.Loader.lc_import_cap
          ~addr:(Loader.import_slot_addr l (Loader.import_slot l "sealed:q"))
      in
      body machine ctx q;
      Cap.null);
  System.run ~until_cycles:2_000_000_000 sys;
  (machine, sys)

let test_mid_sweep_snapshot () =
  (* Free enough to fill the quarantine, then snapshot with the revoker
     partway through a sweep: the sweep cursor and cycle debt are state
     like any other, so completing the sweep after a restore must land
     on the same cycle count and quarantine level as the first time. *)
  let machine, sys =
    boot_churn (fun _machine ctx q ->
        for _ = 1 to 40 do
          match Allocator.allocate ctx ~alloc_cap:q 64 with
          | Ok c -> ignore (Allocator.free ctx ~alloc_cap:q c)
          | Error _ -> ()
        done)
  in
  Machine.revoker_kick machine;
  Machine.tick machine 64;
  let c_snap = Machine.cycles machine in
  let snap = Machine.snapshot machine in
  let finish () =
    Machine.run_revoker_to_completion machine;
    (Machine.cycles machine, Allocator.quarantined_bytes sys.System.alloc)
  in
  let c1, q1 = finish () in
  Alcotest.(check bool) "sweep was actually in progress" true (c1 > c_snap);
  Machine.restore machine snap;
  let c2, q2 = finish () in
  Alcotest.(check int) "completion cycles identical" c1 c2;
  Alcotest.(check int) "quarantine level identical" q1 q2

let test_obs_state_fork () =
  (* Observability state is machine state: restore mid-run (with the
     revoker partway through a sweep) and complete the run — the
     profiler's folded stacks and the flight recorder's histograms and
     counters must be identical to a run that was never interrupted.
     The comparison goes through [Agg.of_forensics], so a fleet rollup
     merged from restored machines equals one merged from pristine
     machines. *)
  let churn machine ctx q =
    ignore machine;
    for _ = 1 to 40 do
      match Allocator.allocate ctx ~alloc_cap:q 64 with
      | Ok c -> ignore (Allocator.free ctx ~alloc_cap:q c)
      | Error _ -> ()
    done
  in
  let finish machine =
    Machine.run_revoker_to_completion machine;
    let cycles = Machine.cycles machine in
    let prof = Option.get (Machine.profiler machine) in
    let frn = Option.get (Machine.forensics machine) in
    ( Profiler.to_folded_text prof ~total_cycles:cycles,
      Agg.table (Agg.of_forensics frn ~cycles) )
  in
  (* Uninterrupted run. *)
  let machine0, _ = boot_churn churn in
  Machine.revoker_kick machine0;
  Machine.tick machine0 64;
  let folded0, fleet0 = finish machine0 in
  (* Same run, but forked mid-sweep: snapshot, finish, restore, finish. *)
  let machine, _ = boot_churn churn in
  Machine.revoker_kick machine;
  Machine.tick machine 64;
  let snap = Machine.snapshot machine in
  let folded1, fleet1 = finish machine in
  Machine.restore machine snap;
  let folded2, fleet2 = finish machine in
  Alcotest.(check string) "folded stacks: snapshot invisible" folded0 folded1;
  Alcotest.(check string) "folded stacks: restore exact" folded0 folded2;
  Alcotest.(check string) "fleet metrics: snapshot invisible" fleet0 fleet1;
  Alcotest.(check string) "fleet metrics: restore exact" fleet0 fleet2;
  Alcotest.(check bool) "profile is non-trivial" true
    (String.length folded0 > 0 && String.contains folded0 ';')

let test_snapshot_rejected_mid_run () =
  (* The quiescence contract: a kernel thread suspended mid-effect (or
     running) cannot be deep-copied, so snapshotting from inside a
     compartment call must refuse loudly rather than capture a lie. *)
  let refused = ref false in
  let attempted = ref false in
  let _ =
    boot_churn (fun machine _ctx _q ->
        attempted := true;
        match Machine.snapshot machine with
        | _ -> ()
        | exception Invalid_argument _ -> refused := true)
  in
  Alcotest.(check bool) "body ran" true !attempted;
  Alcotest.(check bool) "snapshot refused inside a running thread" true !refused

let () =
  Alcotest.run "cheriot_snapshot_equiv"
    [
      ( "equiv",
        [
          Qcheck_seed.to_alcotest prop_fork_matrix;
          Qcheck_seed.to_alcotest prop_fork_any_fuel;
          Alcotest.test_case "pending IRQ behind masked line" `Quick
            test_pending_irq_snapshot;
          Alcotest.test_case "restore over warm superblock caches" `Quick
            test_restore_over_warm_superblock_caches;
          Alcotest.test_case "mid-quarantine-sweep fork" `Quick
            test_mid_sweep_snapshot;
          Alcotest.test_case "profiler and forensics fork mid-run" `Quick
            test_obs_state_fork;
          Alcotest.test_case "snapshot refused mid-run" `Quick
            test_snapshot_rejected_mid_run;
        ] );
    ]
