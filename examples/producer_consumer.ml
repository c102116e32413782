(* Producer/consumer across mutually-distrusting compartments: the
   message-queue compartment exposes queues as opaque sealed handles
   (§3.2.1), storage is paid for by the creator's allocation capability
   (quota delegation, §3.2.3), and two threads in different compartments
   exchange readings through it.

   Run with: dune exec examples/producer_consumer.exe *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let _ = iv

let firmware =
  System.image ~name:"producer-consumer"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"sensor_quota" ~quota:2048 ]
    ~threads:
      [
        F.thread ~name:"sensor" ~comp:"sensor" ~entry:"run" ~priority:2
          ~stack_size:2048 ();
        F.thread ~name:"display" ~comp:"display" ~entry:"run" ~priority:1
          ~stack_size:2048 ();
      ]
    [
      F.compartment "sensor" ~globals_size:32
        ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
        ~imports:
          (System.standard_imports @ [ F.Static_sealed { target = "sensor_quota" } ]);
      F.compartment "display" ~globals_size:32
        ~entries:
          [ F.entry "run" ~arity:0 ~min_stack:512; F.entry "attach" ~arity:1 ~min_stack:128 ]
        ~imports:System.standard_imports;
    ]

let () =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine firmware) in
  let k = sys.System.kernel in
  let readings = 6 in

  (* The sensor owns the queue; it passes the opaque handle to the
     display via a compartment call.  The display can use the queue but
     cannot unseal, free or corrupt it. *)
  let handle_box = ref Cap.null in

  Kernel.implement1 k ~comp:"display" ~entry:"attach" (fun _ctx args ->
      handle_box := args.(0);
      Fmt.pr "  [display] received opaque queue handle (sealed: %b)@."
        (Cap.is_sealed args.(0));
      iv 0);

  Kernel.implement1 k ~comp:"sensor" ~entry:"run" (fun ctx _ ->
      let quota = Kernel.import_cap k ~comp:"sensor" "sealed:sensor_quota" in
      (match Queue_comp.create ctx ~alloc_cap:quota ~elem_size:4 ~capacity:4 with
      | Error e -> Fmt.pr "  [sensor] queue create failed: %a@." Queue_comp.pp_err e
      | Ok handle ->
          Fmt.pr "  [sensor] created a 4-element queue from my quota@.";
          handle_box := handle;
          let ctx, elem = Kernel.stack_alloc ctx 8 in
          for i = 1 to readings do
            let v = 20 + (i * 3 mod 7) in
            Machine.store machine ~auth:elem ~addr:(Cap.base elem) ~size:4 v;
            (match Queue_comp.send ctx ~handle elem () with
            | Ok () -> Fmt.pr "  [sensor] sent reading %d = %d@." i v
            | Error e -> Fmt.pr "  [sensor] send failed: %a@." Queue_comp.pp_err e);
            Kernel.sleep ctx 20_000
          done;
          Fmt.pr "  [sensor] done@.");
      Cap.null);

  Kernel.implement1 k ~comp:"display" ~entry:"run" (fun ctx _ ->
      (* Wait until the sensor published the handle. *)
      while not (Cap.tag !handle_box) do
        Kernel.yield ctx
      done;
      let handle = !handle_box in
      (* A malicious display cannot unseal or free someone else's queue:
         it lacks both the virtual sealing key and the allocation
         capability. *)
      (match Machine.load machine ~auth:handle ~addr:(Cap.base handle) ~size:4 with
      | _ -> Fmt.pr "  [display] BUG: read through sealed handle@."
      | exception Memory.Fault _ ->
          Fmt.pr "  [display] sealed handle is opaque to me — good@.");
      let ctx, into = Kernel.stack_alloc ctx 8 in
      for _ = 1 to readings do
        match Queue_comp.recv ctx ~handle ~into () with
        | Ok () ->
            Fmt.pr "  [display] got reading: %d@."
              (Machine.load machine ~auth:into ~addr:(Cap.base into) ~size:4)
        | Error e -> Fmt.pr "  [display] recv failed: %a@." Queue_comp.pp_err e
      done;
      Fmt.pr "  [display] done@.";
      Cap.null);

  Fmt.pr "producer/consumer over the hardened queue compartment:@.";
  System.run sys;
  Fmt.pr "done in %d simulated cycles@." (Machine.cycles machine)
