(* Porting legacy code (P5, §5.2): a FreeRTOS-style task pair runs on
   CHERIoT through the compatibility shim — the same story as the
   paper's FreeRTOS TCP/IP port, where interrupt disabling became a
   mutex via one header change and everything else ran unmodified.

   The "legacy" logic below uses only FreeRTOS idioms (ticks, xQueue*,
   critical sections); the CHERIoT platform underneath gives it memory
   safety, quotas and fault isolation for free.

   Run with: dune exec examples/ported_app.exe *)

module Cap = Capability
module F = Firmware
module RT = Freertos_compat

let firmware =
  System.image ~name:"ported-freertos-app"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"task_quota" ~quota:2048 ]
    ~threads:
      [
        F.thread ~name:"sampler" ~comp:"legacy" ~entry:"sampler_task" ~priority:2
          ~stack_size:2048 ();
        F.thread ~name:"logger" ~comp:"legacy" ~entry:"logger_task" ~priority:1
          ~stack_size:2048 ();
      ]
    ([
       F.compartment "legacy" ~globals_size:64
         ~entries:
           [
             F.entry "sampler_task" ~arity:0 ~min_stack:512;
             F.entry "logger_task" ~arity:0 ~min_stack:512;
           ]
         ~imports:
           (System.standard_imports @ Uart.client_imports
           @ [ F.Static_sealed { target = "task_quota" } ]);
     ]
    @ [ Uart.firmware_library () ])

let () =
  let machine = Machine.create () in
  let transcript = Uart.attach machine in
  let sys = Result.get_ok (System.boot ~machine firmware) in
  let k = sys.System.kernel in
  Uart.install k;
  let queue = ref None in

  (* The "legacy" sampler task, written in FreeRTOS style. *)
  Kernel.implement1 k ~comp:"legacy" ~entry:"sampler_task" (fun ctx _ ->
      let q_cap = Kernel.import_cap k ~comp:"legacy" "sealed:task_quota" in
      (match RT.xQueueCreate ctx ~alloc_cap:q_cap ~length:4 ~item_size:4 with
      | None -> failwith "xQueueCreate"
      | Some q ->
          queue := Some q;
          let ctx, item = Kernel.stack_alloc ctx 8 in
          for i = 1 to 5 do
            (* vTaskDelay until the next sample, then enqueue it. *)
            RT.vTaskDelay ctx (RT.pdMS_TO_TICKS 10);
            let sample = 20 + (i * i mod 5) in
            Machine.store machine ~auth:item ~addr:(Cap.base item) ~size:4 sample;
            ignore (RT.xQueueSend ctx q item ~ticks_to_wait:100)
          done);
      Cap.null);

  Kernel.implement1 k ~comp:"legacy" ~entry:"logger_task" (fun ctx _ ->
      while !queue = None do
        Kernel.yield ctx
      done;
      let q = Option.get !queue in
      let ctx, into = Kernel.stack_alloc ctx 8 in
      for _ = 1 to 5 do
        if RT.xQueueReceive ctx q ~into ~ticks_to_wait:1000 then begin
          let v = Machine.load machine ~auth:into ~addr:(Cap.base into) ~size:4 in
          let ctx = Uart.log ctx (Printf.sprintf "tick %4d: sample=%d\n"
                                    (RT.xTaskGetTickCount ctx) v) in
          ignore ctx
        end
      done;
      Cap.null);

  Fmt.pr "legacy FreeRTOS-style tasks on CHERIoT (via the P5 compat shim):@.";
  System.run ~until_cycles:1_000_000_000 sys;
  print_string (transcript ());
  Fmt.pr "done: the ported code never touched a raw pointer or interrupt flag.@."
