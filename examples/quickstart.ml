(* Quickstart: two compartments, a compartment call, heap allocation
   with quotas, a memory-safety fault contained by the compartment
   boundary, and an error handler.

   Run with: dune exec examples/quickstart.exe *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

(* 1. Describe the firmware image: every compartment, entry point,
   import and thread is static (auditable at integration time). *)
let firmware =
  System.image ~name:"quickstart"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"app_quota" ~quota:2048 ]
    ~threads:[ F.thread ~name:"main" ~comp:"hello" ~entry:"main" ~stack_size:2048 () ]
    [
      F.compartment "hello" ~globals_size:32
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
        ~imports:
          (System.standard_imports
          @ [
              F.Call { comp = "greeter"; entry = "greet" };
              F.Call { comp = "greeter"; entry = "crash" };
              F.Static_sealed { target = "app_quota" };
            ]);
      F.compartment "greeter" ~globals_size:32 ~error_handler:true
        ~entries:
          [
            F.entry "greet" ~arity:1 ~min_stack:256;
            F.entry "crash" ~arity:0 ~min_stack:256;
          ];
    ]

let () =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine firmware) in
  let k = sys.System.kernel in

  (* 2. Attach behaviour to the entry points. *)
  Kernel.implement1 k ~comp:"greeter" ~entry:"greet" (fun _ctx args ->
      Fmt.pr "  [greeter] greet(%d) running in its own compartment@." (ti args.(0));
      iv (ti args.(0) * 2));
  Kernel.implement1 k ~comp:"greeter" ~entry:"crash" (fun ctx _ ->
      Fmt.pr "  [greeter] about to dereference NULL...@.";
      ignore (Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:Cap.null ~addr:0 ~size:4);
      iv 0);
  Kernel.set_error_handler k ~comp:"greeter" (fun _ctx fi ->
      Fmt.pr "  [greeter] error handler: %s at 0x%x — unwinding@."
        fi.Kernel.fault_cause fi.Kernel.fault_addr;
      `Unwind);

  Kernel.implement1 k ~comp:"hello" ~entry:"main" (fun ctx _ ->
      Fmt.pr "[hello] calling greeter.greet(21) through the switcher@.";
      (match Kernel.call1 ctx ~import:"greeter.greet" [ iv 21 ] with
      | Ok v -> Fmt.pr "[hello] greeter returned %d@." (ti v)
      | Error e -> Fmt.pr "[hello] call failed: %a@." Kernel.pp_call_error e);

      Fmt.pr "[hello] allocating 64 bytes from my static quota@.";
      let quota = Kernel.import_cap k ~comp:"hello" "sealed:app_quota" in
      (match Allocator.allocate ctx ~alloc_cap:quota 64 with
      | Ok buf ->
          Fmt.pr "[hello] got %a@." Cap.pp buf;
          Machine.store machine ~auth:buf ~addr:(Cap.base buf) ~size:4 0x5a5a;
          (match Allocator.free ctx ~alloc_cap:quota buf with
          | Ok () -> Fmt.pr "[hello] freed; dangling accesses now trap@."
          | Error e -> Fmt.pr "[hello] free failed: %a@." Allocator.pp_err e);
          (match Machine.load machine ~auth:buf ~addr:(Cap.base buf) ~size:4 with
          | _ -> Fmt.pr "[hello] BUG: use-after-free succeeded?!@."
          | exception Memory.Fault _ ->
              Fmt.pr "[hello] use-after-free trapped, as it must@.")
      | Error e -> Fmt.pr "[hello] allocation failed: %a@." Allocator.pp_err e);

      Fmt.pr "[hello] calling greeter.crash — the fault stays in greeter@.";
      (match Kernel.call1 ctx ~import:"greeter.crash" [] with
      | Ok _ -> Fmt.pr "[hello] unexpected success@."
      | Error Kernel.Fault_in_callee ->
          Fmt.pr "[hello] greeter faulted and unwound; I keep running@."
      | Error e -> Fmt.pr "[hello] error: %a@." Kernel.pp_call_error e);

      (* One more call proves the system is still healthy. *)
      (match Kernel.call1 ctx ~import:"greeter.greet" [ iv 100 ] with
      | Ok v -> Fmt.pr "[hello] greeter still works: %d@." (ti v)
      | Error _ -> Fmt.pr "[hello] greeter is broken@.");
      Cap.null);

  System.run sys;
  Fmt.pr "quickstart done in %d simulated cycles (%.2f ms at %d MHz)@."
    (Machine.cycles machine)
    (1000.0 *. Machine.seconds_of_cycles (Machine.cycles machine))
    Machine.clock_mhz
