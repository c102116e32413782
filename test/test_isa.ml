(* Tests for the assembler and interpreter. *)

module Cap = Capability
open Isa

let code_base = 0x4000_0000

let setup prog_items =
  let m = Machine.create ~sram_size:(64 * 1024) () in
  let t = Interp.create m in
  let prog = assemble ~name:"test" prog_items in
  Interp.map_segment t ~base:code_base prog;
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  (m, t, pcc)

let sram_cap m =
  Cap.make_root ~base:(Machine.sram_base m)
    ~top:(Machine.sram_base m + Machine.sram_size m)
    ~perms:Perm.Set.universe

let check_halt what = function
  | Interp.Halted -> ()
  | Interp.Exited c -> Alcotest.failf "%s: exited to %s" what (Cap.to_string c)
  | Interp.Trapped tr -> Alcotest.failf "%s: %s" what (Fmt.str "%a" Interp.pp_trap tr)

let test_arith_loop () =
  (* Sum 1..10 with a loop. *)
  let items =
    [
      I (Li (ca0, 0));
      I (Li (ct0, 1));
      I (Li (ct1, 11));
      L "loop";
      I (Beq (ct0, ct1, "done"));
      I (Add (ca0, ca0, ct0));
      I (Addi (ct0, ct0, 1));
      I (J "loop");
      L "done";
      I Halt;
    ]
  in
  let _, t, pcc = setup items in
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check int) "sum" 55 (Interp.to_int (Interp.get_reg t ca0))

let test_memory_instrs () =
  let items =
    [
      I (Li (ct0, 0xbeef));
      I (Sw (ct0, 16, ca0));
      I (Lw (ca1, 16, ca0));
      I (Csc (ca0, 24, ca0));
      I (Clc (ca2, 24, ca0));
      I Halt;
    ]
  in
  let m, t, pcc = setup items in
  Interp.set_reg t ca0 @@ sram_cap m;
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check int) "loaded word" 0xbeef (Interp.to_int (Interp.get_reg t ca1));
  Alcotest.(check bool) "loaded cap tagged" true (Cap.tag (Interp.get_reg t ca2))

let test_cap_instrs () =
  let items =
    [
      I (Cincaddrimm (ca1, ca0, 128));
      I (Csetboundsimm (ca1, ca1, 64));
      I (Cgetbase (ca2, ca1));
      I (Cgetlen (ca3, ca1));
      I (Candperm (ca4, ca1, Perm.Set.to_bits Perm.Set.read_only));
      I (Cgetperm (ca5, ca4));
      I Halt;
    ]
  in
  let m, t, pcc = setup items in
  Interp.set_reg t ca0 @@ sram_cap m;
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check int) "base" (Machine.sram_base m + 128) (Interp.to_int (Interp.get_reg t ca2));
  Alcotest.(check int) "len" 64 (Interp.to_int (Interp.get_reg t ca3));
  Alcotest.(check int) "perms" (Perm.Set.to_bits Perm.Set.read_only)
    (Interp.to_int (Interp.get_reg t ca5))

let test_trap_on_bad_access () =
  let items = [ I (Lw (ca1, 0, ca0)); I Halt ] in
  let _, t, pcc = setup items in
  (* ca0 is NULL: untagged. *)
  match Interp.run t pcc with
  | Interp.Trapped { tcause = Interp.Cap_fault Cap.Tag_violation; _ } -> ()
  | o ->
      Alcotest.failf "expected tag trap, got %s"
        (match o with
        | Interp.Halted -> "halt"
        | Interp.Exited _ -> "exit"
        | Interp.Trapped tr -> Fmt.str "%a" Interp.pp_trap tr)

let test_trap_on_widen () =
  let items = [ I (Csetboundsimm (ca1, ca0, 1 lsl 20)); I Halt ] in
  let m, t, pcc = setup items in
  Interp.set_reg t ca0 @@ sram_cap m;
  match Interp.run t pcc with
  | Interp.Trapped { tcause = Interp.Cap_fault Cap.Bounds_violation; _ } -> ()
  | _ -> Alcotest.fail "expected bounds trap"

let test_cjal_and_return () =
  let items =
    [
      I (Cjal (ra, "sub"));
      I (Li (ca1, 7));
      I Halt;
      L "sub";
      I (Li (ca0, 42));
      I (Cjalr (zero, ra));
    ]
  in
  let _, t, pcc = setup items in
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check int) "sub ran" 42 (Interp.to_int (Interp.get_reg t ca0));
  Alcotest.(check int) "fallthrough ran" 7 (Interp.to_int (Interp.get_reg t ca1))

let test_sentry_posture () =
  (* Jump through an interrupt-disabling forward sentry; the backward
     sentry restores the enabled posture. *)
  let items =
    [
      I (Cjalr (ra, ct2));
      (* call through sentry in ct2 *)
      I Halt;
      L "handler";
      I (Cgetaddr (ca0, ra));
      I (Cjalr (zero, ra));
    ]
  in
  let m, t, pcc = setup items in
  let handler_addr = code_base + 8 in
  let handler =
    Cap.exn
      (Cap.seal_entry (Cap.with_address_exn pcc handler_addr) Cap.Otype.Call_disable)
  in
  Interp.set_reg t ct2 @@ handler;
  Machine.set_irq_enabled m true;
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check bool) "posture restored" true (Machine.irq_enabled m)

let test_jump_to_data_sealed_traps () =
  let items = [ I (Cjalr (zero, ct2)); I Halt ] in
  let m, t, pcc = setup items in
  let key =
    Cap.with_address_exn
      (Cap.make_sealing_root ~first:Cap.Otype.data_first ~last:Cap.Otype.data_last)
      Cap.Otype.data_first
  in
  Interp.set_reg t ct2 @@ Cap.exn (Cap.seal ~key (sram_cap m));
  match Interp.run t pcc with
  | Interp.Trapped { tcause = Interp.Cap_fault Cap.Seal_violation; _ } -> ()
  | _ -> Alcotest.fail "expected seal trap"

let test_exit_to_native () =
  (* Jumping outside every segment exits the interpreter: the native
     trampoline mechanism used for compartment entry points. *)
  let items = [ I (Cjalr (ra, ct2)); I Halt ] in
  let _, t, pcc = setup items in
  let target =
    Cap.make_root ~base:0x5000_0000 ~top:0x5000_1000 ~perms:Perm.Set.executable
  in
  Interp.set_reg t ct2 @@ target;
  match Interp.run t pcc with
  | Interp.Exited c -> Alcotest.(check int) "target addr" 0x5000_0000 (Cap.address c)
  | _ -> Alcotest.fail "expected exit"

let test_specialrw_needs_sr () =
  let items = [ I (Cspecialrw (ca0, Isa.mtdc, zero)); I Halt ] in
  let _, t, pcc = setup items in
  (match Interp.run t pcc with
  | Interp.Trapped { tcause = Interp.Cap_fault (Cap.Permit_violation Perm.System_registers); _ } ->
      ()
  | _ -> Alcotest.fail "expected SR trap");
  (* With SR on the PCC it works. *)
  let m = Machine.create () in
  let t = Interp.create m in
  let prog = assemble ~name:"test" items in
  Interp.map_segment t ~base:code_base prog;
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:(Perm.Set.add Perm.System_registers Perm.Set.executable)
  in
  Interp.set_special t Isa.mtdc (sram_cap m);
  check_halt "privileged run" (Interp.run t pcc);
  Alcotest.(check bool) "read mtdc" true (Cap.tag (Interp.get_reg t ca0))

let test_instret_and_cycles () =
  let items = [ I (Li (ca0, 1)); I (Li (ca1, 2)); I Halt ] in
  let m, t, pcc = setup items in
  let c0 = Machine.cycles m in
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check int) "instret" 3 (Interp.instret t);
  Alcotest.(check bool) "cycles charged" true (Machine.cycles m >= c0 + 3)

let test_fuel_exhaustion () =
  let items = [ L "spin"; I (J "spin"); I Halt ] in
  let _, t, pcc = setup items in
  match Interp.run ~fuel:100 t pcc with
  | Interp.Trapped { tcause = Interp.Software _; _ } -> ()
  | _ -> Alcotest.fail "expected fuel trap"

let test_assembler_errors () =
  let rejected what items =
    match assemble ~name:"bad" items with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejected "undefined label" [ I (J "nowhere") ];
  rejected "duplicate label" [ L "x"; L "x" ];
  rejected "register 16" [ I (Li (16, 1)) ];
  rejected "register -1" [ I (Mv (1, -1)) ];
  rejected "special register 3" [ I (Cspecialrw (1, 3, 0)) ]


let test_auipcc () =
  (* PCC-relative address formation: rd gets the PCC with the cursor at
     the label, keeping the segment's bounds and permissions. *)
  let items =
    [
      I (Auipcc (ca0, "target"));
      I (Cgetaddr (ca1, ca0));
      I Halt;
      L "target";
      I Halt;
    ]
  in
  let _, t, pcc = setup items in
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check int) "label address" (code_base + 12)
    (Interp.to_int (Interp.get_reg t ca1));
  Alcotest.(check bool) "bounds preserved" true
    (Cap.base (Interp.get_reg t ca0) = code_base)

let test_sentry_kinds_encode () =
  (* Csealentry with explicit kinds; Cgettype reports the encoding. *)
  let items =
    [
      I (Csealentry (ca1, ca0, Cap.Otype.Call_enable));
      I (Cgettype (ca2, ca1));
      I (Csealentry (ca3, ca0, Cap.Otype.Return_disable));
      I (Cgettype (ca4, ca3));
      I Halt;
    ]
  in
  let _, t, pcc = setup items in
  Interp.set_reg t ca0
    (Cap.make_root ~base:0x5000_0000 ~top:0x5000_1000 ~perms:Perm.Set.executable);
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check int) "call-enable type" 3 (Interp.to_int (Interp.get_reg t ca2));
  Alcotest.(check int) "return-disable type" 4 (Interp.to_int (Interp.get_reg t ca4))

let test_backward_sentry_restores_posture () =
  (* Disable interrupts by calling through a Call_disable sentry, then
     return through the backward sentry: the enabled posture returns. *)
  let items =
    [
      I (Cjalr (ra, ct2));
      (* after return: capture posture via a flag in ca0 *)
      I Halt;
      L "disabled_code";
      I (Mv (ca1, ra));
      I (Cjalr (zero, ca1));
    ]
  in
  let m, t, pcc = setup items in
  Interp.set_reg t ct2
    (Cap.exn
       (Cap.seal_entry
          (Cap.with_address_exn pcc (code_base + 8))
          Cap.Otype.Call_disable));
  Machine.set_irq_enabled m true;
  check_halt "run" (Interp.run t pcc);
  Alcotest.(check bool) "posture restored after return" true (Machine.irq_enabled m)

let test_store_into_readonly_segment_data () =
  (* The executable PCC has no Store permission: writing through it
     traps (code is immutable at run time). *)
  let items = [ I (Sw (ca0, 0, ca1)); I Halt ] in
  let _, t, pcc = setup items in
  Interp.set_reg t ca1 @@ pcc;
  match Interp.run t pcc with
  | Interp.Trapped { tcause = Interp.Cap_fault (Cap.Permit_violation Perm.Store); _ } -> ()
  | _ -> Alcotest.fail "store through PCC allowed"


(* Property: the toolchain is total — arbitrary instruction sequences,
   with register operands drawn from just outside the valid range too,
   are either rejected by the assembler or run to an outcome (halt,
   trap, exit or out of fuel), never crashing the host. *)
let gen_instr =
  QCheck.Gen.(
    (* mostly valid, so that many programs also run *)
    let reg = frequency [ (30, int_bound 15); (1, oneofl [ -2; -1; 16; 17 ]) ] in
    let imm = int_range (-64) 64 in
    oneof
      [
        map2 (fun rd v -> Li (rd, v)) reg imm;
        map2 (fun rd rs -> Mv (rd, rs)) reg reg;
        map3 (fun rd rs v -> Addi (rd, rs, v)) reg reg imm;
        map3 (fun rd a b -> Add (rd, a, b)) reg reg reg;
        map3 (fun rd i rs -> Lw (rd, i * 4, rs)) reg (int_bound 8) reg;
        map3 (fun rs2 i rs1 -> Sw (rs2, i * 4, rs1)) reg (int_bound 8) reg;
        map3 (fun rd i rs -> Clc (rd, i * 8, rs)) reg (int_bound 4) reg;
        map2 (fun rd a -> Cincaddrimm (rd, a, 8)) reg reg;
        map2 (fun rd a -> Csetboundsimm (rd, a, 16)) reg reg;
        map2 (fun rd a -> Cgetaddr (rd, a)) reg reg;
        map2 (fun rd a -> Cgetlen (rd, a)) reg reg;
        map3 (fun rd a k -> Cseal (rd, a, k)) reg reg reg;
        map3 (fun rd a k -> Cunseal (rd, a, k)) reg reg reg;
        map2 (fun a b -> Beq (a, b, "out")) reg reg;
        map2 (fun rd rs -> Cjalr (rd, rs)) reg reg;
        map3 (fun rd i rs -> Cspecialrw (rd, i, rs)) reg (int_range (-1) 3) reg;
      ])

let prop_interp_total =
  QCheck.Test.make ~name:"interpreter is total on random programs" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 24) gen_instr))
    (fun instrs ->
      let items = List.map (fun i -> I i) instrs @ [ L "out"; I Halt ] in
      match setup items with
      | exception Invalid_argument _ -> true
      | m, t, pcc -> (
          Interp.set_reg t ca0 @@ sram_cap m;
          match Interp.run ~fuel:2_000 t pcc with
          | Interp.Halted | Interp.Trapped _ | Interp.Exited _ -> true))

let suite =
  [
    Alcotest.test_case "arith loop" `Quick test_arith_loop;
    Alcotest.test_case "memory instrs" `Quick test_memory_instrs;
    Alcotest.test_case "cap instrs" `Quick test_cap_instrs;
    Alcotest.test_case "trap on bad access" `Quick test_trap_on_bad_access;
    Alcotest.test_case "trap on widen" `Quick test_trap_on_widen;
    Alcotest.test_case "cjal/return" `Quick test_cjal_and_return;
    Alcotest.test_case "sentry posture" `Quick test_sentry_posture;
    Alcotest.test_case "data-sealed jump traps" `Quick test_jump_to_data_sealed_traps;
    Alcotest.test_case "exit to native" `Quick test_exit_to_native;
    Alcotest.test_case "specialrw needs SR" `Quick test_specialrw_needs_sr;
    Alcotest.test_case "instret/cycles" `Quick test_instret_and_cycles;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "assembler errors" `Quick test_assembler_errors;
    Alcotest.test_case "auipcc" `Quick test_auipcc;
    Alcotest.test_case "sentry kinds" `Quick test_sentry_kinds_encode;
    Alcotest.test_case "backward sentry posture" `Quick test_backward_sentry_restores_posture;
    Alcotest.test_case "code immutable" `Quick test_store_into_readonly_segment_data;
    Qcheck_seed.to_alcotest prop_interp_total;
  ]

let () = Alcotest.run "cheriot_isa" [ ("isa", suite) ]
