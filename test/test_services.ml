(* Service compartments: the UART debug library (Fig. 5 I/O + Debug
   Utilities), the thread pool, the hardened queue compartment, and the
   micro-reboot orchestration API. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

(* UART + debug library *)

let test_uart_logging () =
  let machine = Machine.create () in
  let read_transcript = Uart.attach machine in
  let fw =
    System.image ~name:"uart-test"
      ~threads:[ F.thread ~name:"main" ~comp:"app" ~entry:"main" ~stack_size:2048 () ]
      ([
         F.compartment "app" ~globals_size:16
           ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
           ~imports:(System.standard_imports @ Uart.client_imports);
       ]
      @ [ Uart.firmware_library () ])
  in
  let sys = Result.get_ok (System.boot ~machine fw) in
  Uart.install sys.System.kernel;
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      let ctx = Uart.log ctx "boot ok: " in
      Uart.log_int ctx 42;
      ignore (Uart.log ctx "\n");
      Cap.null);
  System.run sys;
  Alcotest.(check string) "transcript" "boot ok: 42\n" (read_transcript ())

let test_uart_grant_is_librarys () =
  (* The app itself has no MMIO import for the UART: writing to the
     device with only its own authority must be impossible, and the
     audit report shows the grant on the library. *)
  let machine = Machine.create () in
  let (_ : unit -> string) = Uart.attach machine in
  let fw =
    System.image ~name:"uart-audit"
      ~threads:[ F.thread ~name:"main" ~comp:"app" ~entry:"main" () ]
      ([
         F.compartment "app" ~globals_size:16
           ~entries:[ F.entry "main" ~arity:0 ]
           ~imports:Uart.client_imports;
       ]
      @ [ Uart.firmware_library () ])
  in
  let interp = Interp.create machine in
  let ld = Result.get_ok (Loader.load fw machine interp) in
  let report = Audit_report.of_loader ld in
  let policy =
    Result.get_ok
      (Rego.parse
         {|deny[msg] { count(mmio_users("uart0")) != 1; msg := "uart must have one owner" }
           deny[msg] { contains(mmio_users("uart0"), "app"); msg := "app must not own the uart" }|})
  in
  Alcotest.(check (list string)) "policy holds" [] (Rego.denials policy ~report)

(* Thread pool *)

let test_thread_pool_runs_jobs () =
  let machine = Machine.create () in
  let fw =
    System.image ~name:"pool-test"
      ~threads:
        [
          Thread_pool.worker_thread ~name:"w1" ();
          Thread_pool.worker_thread ~name:"w2" ();
          F.thread ~name:"main" ~comp:"app" ~entry:"main" ~priority:2
            ~stack_size:2048 ();
        ]
      [
        F.compartment "app" ~globals_size:16
          ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
          ~imports:(System.standard_imports @ Thread_pool.client_imports);
        Thread_pool.firmware_compartment ();
      ]
  in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let pool = Thread_pool.install sys.System.kernel in
  let sum = ref 0 in
  Thread_pool.register pool ~job:1 (fun _ctx arg -> sum := !sum + arg);
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      for i = 1 to 10 do
        Alcotest.(check bool) "posted" true (Thread_pool.post ctx ~job:1 ~arg:i)
      done;
      (* Unknown job ids are refused. *)
      Alcotest.(check bool) "unknown job refused" false
        (Thread_pool.post ctx ~job:99 ~arg:0);
      (* Let the workers drain, then stop them. *)
      while Thread_pool.completed pool < 10 do
        Kernel.sleep ctx 10_000
      done;
      Thread_pool.shutdown ctx;
      Cap.null);
  System.run ~until_cycles:500_000_000 sys;
  Alcotest.(check int) "all jobs ran" 55 !sum;
  Alcotest.(check int) "completion count" 10 (Thread_pool.completed pool)

let test_thread_pool_job_fault_contained () =
  (* A faulting job must not kill the worker thread. *)
  let machine = Machine.create () in
  let fw =
    System.image ~name:"pool-fault"
      ~threads:
        [
          Thread_pool.worker_thread ~name:"w1" ();
          F.thread ~name:"main" ~comp:"app" ~entry:"main" ~priority:2
            ~stack_size:2048 ();
        ]
      [
        F.compartment "app" ~globals_size:16
          ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
          ~imports:(System.standard_imports @ Thread_pool.client_imports);
        Thread_pool.firmware_compartment ();
      ]
  in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let pool = Thread_pool.install sys.System.kernel in
  let good = ref 0 in
  Thread_pool.register pool ~job:1 (fun _ctx _ ->
      ignore (Machine.load machine ~auth:Cap.null ~addr:0 ~size:4));
  Thread_pool.register pool ~job:2 (fun _ctx _ -> incr good);
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      ignore (Thread_pool.post ctx ~job:1 ~arg:0);
      ignore (Thread_pool.post ctx ~job:2 ~arg:0);
      while Thread_pool.completed pool < 2 do
        Kernel.sleep ctx 10_000
      done;
      Thread_pool.shutdown ctx;
      Cap.null);
  System.run ~until_cycles:500_000_000 sys;
  Alcotest.(check int) "good job still ran" 1 !good

(* Queue compartment across threads *)

let test_queue_compartment_cross_thread () =
  let machine = Machine.create () in
  let fw =
    System.image ~name:"qc-test"
      ~sealed_objects:[ Allocator.alloc_capability ~name:"pq" ~quota:2048 ]
      ~threads:
        [
          F.thread ~name:"prod" ~comp:"prod" ~entry:"run" ~priority:2 ~stack_size:2048 ();
          F.thread ~name:"cons" ~comp:"cons" ~entry:"run" ~priority:1 ~stack_size:2048 ();
        ]
      [
        F.compartment "prod" ~globals_size:16
          ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
          ~imports:(System.standard_imports @ [ F.Static_sealed { target = "pq" } ]);
        F.compartment "cons" ~globals_size:16
          ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
          ~imports:System.standard_imports;
      ]
  in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let k = sys.System.kernel in
  let handle_box = ref Cap.null in
  let got = ref [] in
  Kernel.implement1 k ~comp:"prod" ~entry:"run" (fun ctx _ ->
      let l = Loader.find_comp (Kernel.loader k) "prod" in
      let q =
        Machine.load_cap machine ~auth:l.Loader.lc_import_cap
          ~addr:(Loader.import_slot_addr l (Loader.import_slot l "sealed:pq"))
      in
      (match Queue_comp.create ctx ~alloc_cap:q ~elem_size:4 ~capacity:2 with
      | Error e -> Alcotest.failf "create: %a" Queue_comp.pp_err e
      | Ok handle ->
          handle_box := handle;
          let ctx, elem = Kernel.stack_alloc ctx 8 in
          for i = 1 to 5 do
            Machine.store machine ~auth:elem ~addr:(Cap.base elem) ~size:4 (100 + i);
            match Queue_comp.send ctx ~handle elem () with
            | Ok () -> ()
            | Error e -> Alcotest.failf "send: %a" Queue_comp.pp_err e
          done;
          (* Destroying with the wrong allocation capability must fail:
             the queue was created under prod's quota + queue's key. *)
          ());
      Cap.null);
  Kernel.implement1 k ~comp:"cons" ~entry:"run" (fun ctx _ ->
      while not (Cap.tag !handle_box) do
        Kernel.yield ctx
      done;
      let handle = !handle_box in
      let ctx, into = Kernel.stack_alloc ctx 8 in
      for _ = 1 to 5 do
        match Queue_comp.recv ctx ~handle ~into () with
        | Ok () ->
            got := Machine.load machine ~auth:into ~addr:(Cap.base into) ~size:4 :: !got
        | Error e -> Alcotest.failf "recv: %a" Queue_comp.pp_err e
      done;
      Cap.null);
  System.run ~until_cycles:500_000_000 sys;
  Alcotest.(check (list int)) "fifo across threads" [ 101; 102; 103; 104; 105 ]
    (List.rev !got)

(* Micro-reboot orchestration *)

let test_microreboot_api () =
  let machine = Machine.create () in
  let fw =
    System.image ~name:"reboot-test"
      ~sealed_objects:[ Allocator.alloc_capability ~name:"sq" ~quota:2048 ]
      ~threads:[ F.thread ~name:"main" ~comp:"app" ~entry:"main" ~stack_size:2048 () ]
      [
        F.compartment "app" ~globals_size:16
          ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
          ~imports:
            (System.standard_imports
            @ [
                F.Call { comp = "svc"; entry = "inc" };
                F.Call { comp = "svc"; entry = "crash" };
              ]);
        F.compartment "svc" ~globals_size:16 ~error_handler:true
          ~entries:
            [ F.entry "inc" ~arity:0 ~min_stack:256; F.entry "crash" ~arity:0 ~min_stack:256 ]
          ~imports:
            (System.standard_imports @ [ F.Static_sealed { target = "sq" } ]);
      ]
  in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let k = sys.System.kernel in
  (* svc keeps a counter in its globals; crashing resets it. *)
  let svc_layout = Loader.find_comp (Kernel.loader k) "svc" in
  let counter_addr = svc_layout.Loader.lc_globals_base in
  Kernel.implement1 k ~comp:"svc" ~entry:"inc" (fun cctx _ ->
      let v = Machine.load machine ~auth:cctx.Kernel.cgp ~addr:counter_addr ~size:4 in
      Machine.store machine ~auth:cctx.Kernel.cgp ~addr:counter_addr ~size:4 (v + 1);
      iv (v + 1));
  Kernel.implement1 k ~comp:"svc" ~entry:"crash" (fun _cctx _ ->
      ignore (Machine.load machine ~auth:Cap.null ~addr:0 ~size:4);
      iv 0);
  Kernel.set_error_handler k ~comp:"svc" (fun cctx _fi ->
      Kernel.micro_reboot cctx
        {
          Kernel.wake_blocked = (fun () -> ());
          release_heap = (fun () -> ());
          reset_state = (fun () -> ());
        };
      `Unwind);
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      Alcotest.(check int) "count 1" 1
        (ti (Result.get_ok (Kernel.call1 ctx ~import:"svc.inc" [])));
      Alcotest.(check int) "count 2" 2
        (ti (Result.get_ok (Kernel.call1 ctx ~import:"svc.inc" [])));
      (match Kernel.call1 ctx ~import:"svc.crash" [] with
      | Error Kernel.Fault_in_callee -> ()
      | _ -> Alcotest.fail "expected contained fault");
      (* The micro-reboot restored pristine globals: counting restarts. *)
      Alcotest.(check int) "count reset" 1
        (ti (Result.get_ok (Kernel.call1 ctx ~import:"svc.inc" [])));
      Alcotest.(check int) "one reboot recorded" 1 (Kernel.reboot_count k ~comp:"svc");
      Cap.null);
  System.run sys

let suite =
  [
    Alcotest.test_case "uart logging" `Quick test_uart_logging;
    Alcotest.test_case "uart grant audited" `Quick test_uart_grant_is_librarys;
    Alcotest.test_case "thread pool jobs" `Quick test_thread_pool_runs_jobs;
    Alcotest.test_case "pool fault contained" `Quick test_thread_pool_job_fault_contained;
    Alcotest.test_case "queue compartment cross-thread" `Quick
      test_queue_compartment_cross_thread;
    Alcotest.test_case "micro-reboot API" `Quick test_microreboot_api;
  ]

let () = Alcotest.run "cheriot_services" [ ("services", suite) ]
