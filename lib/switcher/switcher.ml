module Cap = Capability
open Isa

(* Register roles in the call path (see the listing below):
   ct2 = sealed export capability (input), ct0 = trusted stack,
   ct1 = unsealed export entry, ct3 = frame pointer, cs0/cs1/ra/cgp =
   scratch once their caller values are saved in the frame. *)

let zero_non_arg_registers =
  (* for i in 0..5: if arity (cs0) <= i then ca_i := NULL *)
  List.concat_map
    (fun i ->
      let skip = Printf.sprintf "arg_keep_%d" i in
      [ I (Li (ra, i)); I (Bltu (ra, cs0, skip)); I (Mv (ca0 + i, zero)); L skip ])
    [ 0; 1; 2; 3; 4; 5 ]

(* The call path's two refusals; the kernel tells them apart by these
   messages. *)
let trusted_stack_overflow = "trusted stack overflow"
let insufficient_stack = "insufficient stack for callee"

let call_items =
  [
    L "switch_entry";
    (* Trusted stack and unsealing key: switcher-only state. *)
    I (Cspecialrw (ct0, mtdc, zero));
    I (Cspecialrw (ct3, mscratchc, zero));
    I (Cunseal (ct1, ct2, ct3));
    (* Check space for one more trusted frame. *)
    I (Lw (cs0, Abi.ts_tsp, ct0));
    I (Cgetlen (cs1, ct0));
    I (Addi (cs0, cs0, Abi.frame_size));
    I (Bltu (cs1, cs0, "ts_overflow"));
    I (Addi (cs0, cs0, -Abi.frame_size));
    (* Push the frame: caller stack, return sentry, globals, metadata. *)
    I (Cincaddr (ct3, ct0, cs0));
    I (Csc (csp, Abi.frame_caller_csp, ct3));
    I (Csc (ra, Abi.frame_caller_ra, ct3));
    I (Csc (cgp, Abi.frame_caller_cgp, ct3));
    I (Lw (cs1, Abi.entry_min_stack, ct1));
    I (Sw (cs1, Abi.frame_min_stack, ct3));
    I (Cgetaddr (ra, ct1));
    I (Sw (ra, Abi.frame_entry_addr, ct3));
    I (Addi (cs0, cs0, Abi.frame_size));
    I (Sw (cs0, Abi.ts_tsp, ct0));
    (* Callee stack window: [base, caller cursor), cursor at its top. *)
    I (Cgetbase (ra, csp));
    I (Cgetaddr (cgp, csp));
    I (Sub (cs0, cgp, ra));
    I (Bltu (cs0, cs1, "stack_insufficient"));
    I (Csetaddr (csp, csp, ra));
    I (Csetbounds (csp, csp, cs0));
    I (Csetaddr (csp, csp, cgp));
    (* Zero the declared stack requirement: [top - min_stack, top). *)
    I (Sub (ra, cgp, cs1));
    I (Csetaddr (ct2, csp, ra));
    L "zero_call_loop";
    I (Cgetaddr (ra, ct2));
    I (Beq (ra, cgp, "zero_call_done"));
    I (Csc (zero, 0, ct2));
    I (Csc (zero, 8, ct2));
    I (Cincaddrimm (ct2, ct2, 16));
    I (J "zero_call_loop");
    L "zero_call_done";
    (* Callee code and globals capabilities from the export header. *)
    I (Cgetbase (ra, ct1));
    I (Csetaddr (ct1, ct1, ra));
    I (Clc (ct2, Abi.export_code_cap, ct1));
    I (Clc (cgp, Abi.export_globals_cap, ct1));
    I (Lw (ra, Abi.frame_entry_addr, ct3));
    I (Csetaddr (ct1, ct1, ra));
    I (Lw (ra, Abi.entry_code_offset, ct1));
    I (Cincaddr (ct2, ct2, ra));
    I (Lw (cs0, Abi.entry_arity, ct1));
    I (Lw (cs1, Abi.entry_posture, ct1));
  ]
  @ zero_non_arg_registers
  @ [
      (* Callee return address: interrupt-disabling sentry to the return
         path; posture of the entry decides the forward sentry kind. *)
      I (Auipcc (ra, "switch_return"));
      I (Csealentry (ra, ra, Cap.Otype.Call_disable));
      I (Bne (cs1, zero, "posture_disabled"));
      I (Csealentry (ct2, ct2, Cap.Otype.Call_enable));
      I (J "posture_done");
      L "posture_disabled";
      I (Csealentry (ct2, ct2, Cap.Otype.Call_disable));
      L "posture_done";
      (* Scrub switcher state before entering the callee. *)
      I (Mv (ct0, zero));
      I (Mv (ct1, zero));
      I (Mv (ct3, zero));
      I (Mv (cs0, zero));
      I (Mv (cs1, zero));
      I (Cjalr (zero, ct2));
      L "ts_overflow";
      I (Trapif trusted_stack_overflow);
      (* The frame was pushed before the stack check; roll it back and
         scrub it so the caller's capabilities do not linger. *)
      L "stack_insufficient";
      I (Lw (cs0, Abi.ts_tsp, ct0));
      I (Addi (cs0, cs0, -Abi.frame_size));
      I (Sw (cs0, Abi.ts_tsp, ct0));
      I (Cincaddr (ct3, ct0, cs0));
      I (Csc (zero, 0, ct3));
      I (Csc (zero, 8, ct3));
      I (Csc (zero, 16, ct3));
      I (Csc (zero, 24, ct3));
      I (Trapif insufficient_stack);
    ]

let return_items =
  [
    L "switch_return";
    I (Cspecialrw (ct0, mtdc, zero));
    I (Lw (cs0, Abi.ts_tsp, ct0));
    I (Li (ct1, Abi.ts_frames));
    I (Bgeu (ct1, cs0, "ts_underflow"));
    I (Addi (cs0, cs0, -Abi.frame_size));
    I (Sw (cs0, Abi.ts_tsp, ct0));
    I (Cincaddr (ct3, ct0, cs0));
    (* Zero the callee's declared stack window before the caller can see
       it (callee-leak prevention, §5.3.2). *)
    I (Lw (cs1, Abi.frame_min_stack, ct3));
    I (Cgetbase (ct1, csp));
    I (Cgetlen (ct2, csp));
    I (Add (ct2, ct1, ct2));
    I (Sub (ct1, ct2, cs1));
    I (Csetaddr (csp, csp, ct1));
    L "zero_ret_loop";
    I (Cgetaddr (ct1, csp));
    I (Beq (ct1, ct2, "zero_ret_done"));
    I (Csc (zero, 0, csp));
    I (Csc (zero, 8, csp));
    I (Cincaddrimm (csp, csp, 16));
    I (J "zero_ret_loop");
    L "zero_ret_done";
    (* Restore the caller. *)
    I (Clc (csp, Abi.frame_caller_csp, ct3));
    I (Clc (ra, Abi.frame_caller_ra, ct3));
    I (Clc (cgp, Abi.frame_caller_cgp, ct3));
    I (Csc (zero, 0, ct3));
    I (Csc (zero, 8, ct3));
    I (Csc (zero, 16, ct3));
    I (Csc (zero, 24, ct3));
    (* Clear everything but the return registers ca0/ca1. *)
    I (Mv (ca2, zero));
    I (Mv (ca3, zero));
    I (Mv (ca4, zero));
    I (Mv (ca5, zero));
    I (Mv (ct0, zero));
    I (Mv (ct1, zero));
    I (Mv (ct2, zero));
    I (Mv (ct3, zero));
    I (Mv (cs0, zero));
    I (Mv (cs1, zero));
    I (Cjalr (zero, ra));
    L "ts_underflow";
    I (Trapif "trusted stack underflow");
  ]

let program = assemble ~name:"switcher" (call_items @ return_items)
let instruction_count = Isa.length program
let entry_offset = 4 * Isa.label_index program "switch_entry"
let install interp = Interp.map_segment interp ~base:Abi.switcher_code_base program

let pcc =
  Cap.make_root ~base:Abi.switcher_code_base
    ~top:(Abi.switcher_code_base + Isa.code_bytes program)
    ~perms:(Perm.Set.add Perm.System_registers Perm.Set.executable)

let call_sentry =
  Cap.exn
    (Cap.seal_entry (Cap.with_address_exn pcc (Abi.switcher_code_base + entry_offset))
       Cap.Otype.Call_disable)

(* The callee's return address as the call leg builds it: [Auipcc] of
   [switch_return] on the leg's pcc (the unsealed [call_sentry], which
   is [pcc]'s shape), sealed as an interrupt-disabling forward
   sentry. *)
let return_sentry =
  Cap.exn
    (Cap.seal_entry
       (Cap.with_address_exn pcc
          (Abi.switcher_code_base + (4 * Isa.label_index program "switch_return")))
       Cap.Otype.Call_disable)
