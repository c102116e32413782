(* Whole-platform integration: a "sensor gateway" firmware combining
   compartment calls, shared libraries, the queue compartment (opaque
   handles + quota delegation), the thread pool, UART debug output,
   heap quotas, fault tolerance with micro-reboot, and an audit policy
   over the final image — every §3 mechanism in one application. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

let firmware () =
  F.create ~name:"sensor-gateway"
    ~sealed_objects:
      [
        Allocator.alloc_capability ~name:"sensor_quota" ~quota:2048;
        Allocator.alloc_capability ~name:"gateway_quota" ~quota:4096;
      ]
    ~threads:
      [
        F.thread ~name:"sensor" ~comp:"sensor" ~entry:"run" ~priority:3
          ~stack_size:2048 ();
        F.thread ~name:"gateway" ~comp:"gateway" ~entry:"run" ~priority:2
          ~stack_size:4096 ~trusted_stack_frames:24 ();
        Thread_pool.worker_thread ~name:"pool0" ();
      ]
    ([
       F.compartment "sensor" ~globals_size:32
         ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
         ~imports:
           (System.standard_imports @ Uart.client_imports
           @ [
               F.Static_sealed { target = "sensor_quota" };
               F.Call { comp = "gateway"; entry = "attach" };
             ]);
       F.compartment "gateway" ~globals_size:64 ~error_handler:true
         ~entries:
           [
             F.entry "run" ~arity:0 ~min_stack:1024;
             F.entry "attach" ~arity:1 ~min_stack:128;
             F.entry "stats" ~arity:0 ~min_stack:128;
           ]
         ~imports:
           (System.standard_imports @ Uart.client_imports @ Thread_pool.client_imports
           @ [
               F.Static_sealed { target = "gateway_quota" };
               F.Call { comp = "filter"; entry = "smooth" };
             ]);
       (* A small filter compartment the gateway distrusts: it crashes on
          a poisoned reading and gets micro-rebooted. *)
       F.compartment "filter" ~globals_size:32 ~error_handler:true
         ~entries:[ F.entry "smooth" ~arity:1 ~min_stack:256 ];
       Thread_pool.firmware_compartment ();
       Uart.firmware_library ();
     ]
    @ System.base_compartments ())

type world = {
  sys : System.t;
  pool : Thread_pool.t;
  transcript : unit -> string;
}

let quota_of k comp name =
  let l = Loader.find_comp (Kernel.loader k) comp in
  Machine.load_cap
    (Kernel.machine k)
    ~auth:l.Loader.lc_import_cap
    ~addr:(Loader.import_slot_addr l (Loader.import_slot l ("sealed:" ^ name)))

let readings = 8

let boot () =
  let machine = Machine.create () in
  let transcript = Uart.attach machine in
  let fw = firmware () in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let k = sys.System.kernel in
  Uart.install k;
  let pool = Thread_pool.install k in
  let w = { sys; pool; transcript } in
  (w, k)

(* The filter: crashes on negative readings (the injected fault). *)
let install_filter k =
  Kernel.implement1 k ~comp:"filter" ~entry:"smooth" (fun fctx args ->
      let v = ti args.(0) in
      if v < 0 then
        (* Bug: negative readings index off the front of a table. *)
        ignore
          (Machine.load (Kernel.machine fctx.Kernel.kernel)
             ~auth:fctx.Kernel.cgp
             ~addr:(Cap.base fctx.Kernel.cgp + (v * 4))
             ~size:4);
      iv ((v * 3) / 4));
  Kernel.set_error_handler k ~comp:"filter" (fun fctx _ ->
      Kernel.micro_reboot fctx
        { Kernel.wake_blocked = ignore; release_heap = ignore;
          reset_state = ignore };
      `Unwind)

let run_world () =
  let w, k = boot () in
  install_filter w.sys.System.kernel;
  let handle_box = ref Cap.null in
  let smoothed = ref [] in
  let faults = ref 0 in
  let pool_ran = ref 0 in
  Thread_pool.register w.pool ~job:7 (fun _ arg -> pool_ran := !pool_ran + arg);
  (* Sensor thread: creates the queue under its own quota, hands the
     opaque handle to the gateway, then streams readings (one poisoned). *)
  Kernel.implement1 k ~comp:"sensor" ~entry:"run" (fun ctx _ ->
      let q = quota_of k "sensor" "sensor_quota" in
      (match Queue_comp.create ctx ~alloc_cap:q ~elem_size:4 ~capacity:4 with
      | Error e -> Alcotest.failf "queue create: %a" Queue_comp.pp_err e
      | Ok handle ->
          (match Kernel.call1 ctx ~import:"gateway.attach" [ handle ] with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "attach: %a" Kernel.pp_call_error e);
          let ctx, elem = Kernel.stack_alloc ctx 8 in
          for i = 1 to readings do
            let v = if i = 4 then -17 else 10 + i in
            Machine.store (Kernel.machine k) ~auth:elem ~addr:(Cap.base elem) ~size:4
              (v land 0xffffffff);
            (match Queue_comp.send ctx ~handle elem () with
            | Ok () -> ()
            | Error e -> Alcotest.failf "send: %a" Queue_comp.pp_err e);
            Kernel.sleep ctx 5_000
          done);
      Cap.null);
  (* Gateway: consumes the queue, runs each reading through the filter
     compartment (which dies on the poisoned one and recovers), posts
     async accounting to the pool, logs via the UART library. *)
  Kernel.implement1 k ~comp:"gateway" ~entry:"attach" (fun _ args ->
      handle_box := args.(0);
      iv 0);
  Kernel.implement1 k ~comp:"gateway" ~entry:"run" (fun ctx _ ->
      while not (Cap.tag !handle_box) do
        Kernel.yield ctx
      done;
      let handle = !handle_box in
      let ctx, into = Kernel.stack_alloc ctx 8 in
      for _ = 1 to readings do
        match Queue_comp.recv ctx ~handle ~into () with
        | Error e -> Alcotest.failf "recv: %a" Queue_comp.pp_err e
        | Ok () ->
            let raw =
              let v =
                Machine.load (Kernel.machine k) ~auth:into ~addr:(Cap.base into)
                  ~size:4
              in
              if v land 0x80000000 <> 0 then v - 0x100000000 else v
            in
            (match Kernel.call1 ctx ~import:"filter.smooth" [ iv raw ] with
            | Ok v -> smoothed := ti v :: !smoothed
            | Error Kernel.Fault_in_callee ->
                incr faults;
                ignore (Uart.log ctx "gateway: filter crashed, skipping reading\n")
            | Error e -> Alcotest.failf "smooth: %a" Kernel.pp_call_error e);
            ignore (Thread_pool.post ctx ~job:7 ~arg:1)
      done;
      ignore (Uart.log ctx "gateway: done\n");
      Thread_pool.shutdown ctx;
      Cap.null);
  System.run ~until_cycles:1_000_000_000 w.sys;
  (w, k, !smoothed, !faults, !pool_ran)

let result = lazy (run_world ())

let test_pipeline_delivers () =
  let _, _, smoothed, _, _ = Lazy.force result in
  (* 7 good readings survive (the poisoned one is dropped). *)
  Alcotest.(check int) "good readings" (readings - 1) (List.length smoothed);
  Alcotest.(check (list int)) "values"
    (List.filter_map
       (fun i -> if i = 4 then None else Some ((10 + i) * 3 / 4))
       (List.init readings (fun i -> i + 1)))
    (List.rev smoothed)

let test_fault_contained_and_recovered () =
  let _, k, _, faults, _ = Lazy.force result in
  Alcotest.(check int) "one fault" 1 faults;
  Alcotest.(check int) "one micro-reboot" 1 (Kernel.reboot_count k ~comp:"filter")

let test_pool_accounting () =
  let _, _, _, _, pool_ran = Lazy.force result in
  Alcotest.(check int) "async jobs ran" readings pool_ran

let test_uart_transcript () =
  let w, _, _, _, _ = Lazy.force result in
  let t = w.transcript () in
  Alcotest.(check bool) "crash logged" true
    (String.length t > 0
    &&
    let re = "filter crashed" in
    let rec contains i =
      i + String.length re <= String.length t
      && (String.sub t i (String.length re) = re || contains (i + 1))
    in
    contains 0);
  ignore w

let test_image_passes_policy () =
  (* The integrator's policy for this product: only the firewall-less
     image — no compartment may import MMIO except the debug library,
     quotas must fit, and only the gateway may call the filter. *)
  let machine = Machine.create () in
  let (_ : unit -> string) = Uart.attach machine in
  let interp = Interp.create machine in
  let ld = Result.get_ok (Loader.load (firmware ()) machine interp) in
  let report = Audit_report.of_loader ld in
  let policy =
    Result.get_ok
      (Rego.parse
         {|
deny[msg] { total_quota() > heap_size(); msg := "quota oversubscription" }
deny[msg] { count(mmio_users("uart0")) != 1; msg := "uart has multiple owners" }
deny[msg] { count(compartments_calling("filter")) != 1; msg := "filter reachable too widely" }
|})
  in
  Alcotest.(check (list string)) "policy passes" [] (Rego.denials policy ~report)

let suite =
  [
    Alcotest.test_case "pipeline delivers" `Quick test_pipeline_delivers;
    Alcotest.test_case "fault contained + recovered" `Quick
      test_fault_contained_and_recovered;
    Alcotest.test_case "pool accounting" `Quick test_pool_accounting;
    Alcotest.test_case "uart transcript" `Quick test_uart_transcript;
    Alcotest.test_case "image passes policy" `Quick test_image_passes_policy;
  ]

let () = Alcotest.run "cheriot_integration" [ ("sensor-gateway", suite) ]
