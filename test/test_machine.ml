(* Tests for the machine composition: clock, MMIO, timer, revoker. *)

module Cap = Capability

let mk () = Machine.create ~sram_size:(64 * 1024) ()

let rw m =
  Cap.make_root ~base:(Machine.sram_base m)
    ~top:(Machine.sram_base m + Machine.sram_size m)
    ~perms:Perm.Set.read_write

let test_tick_advances () =
  let m = mk () in
  Machine.tick m 100;
  Alcotest.(check int) "cycles" 100 (Machine.cycles m)

let test_access_charges_cycles () =
  let m = mk () in
  let auth = rw m in
  let c0 = Machine.cycles m in
  ignore (Machine.load m ~auth ~addr:(Machine.sram_base m) ~size:4);
  Alcotest.(check bool) "load charged" true (Machine.cycles m > c0)

let test_mmio_device () =
  let m = mk () in
  let dev = Machine.Device.ram ~name:"led" ~size:16 in
  Machine.add_device m ~base:0x1000_0000 ~size:16 dev;
  let auth =
    Cap.make_root ~base:0x1000_0000 ~top:0x1000_0010 ~perms:Perm.Set.read_write
  in
  Machine.store m ~auth ~addr:0x1000_0004 ~size:4 0x42;
  Alcotest.(check int) "device readback" 0x42
    (Machine.load m ~auth ~addr:0x1000_0004 ~size:4);
  (* A capability for SRAM must not reach the device. *)
  (match Machine.load m ~auth:(rw m) ~addr:0x1000_0004 ~size:4 with
  | _ -> Alcotest.fail "expected bounds fault"
  | exception Memory.Fault _ -> ());
  Alcotest.(check bool) "region listed" true
    (List.exists (fun (n, _, _) -> n = "led") (Machine.device_regions m))

let test_unmapped_address_faults () =
  let m = mk () in
  let auth = Cap.make_root ~base:0 ~top:0x4000_0000 ~perms:Perm.Set.read_write in
  match Machine.load m ~auth ~addr:0x0900_0000 ~size:4 with
  | _ -> Alcotest.fail "expected fault"
  | exception Memory.Fault { cause = Cap.Bounds_violation; _ } -> ()

let test_timer_irq () =
  let m = mk () in
  let fired = ref [] in
  Machine.set_deliver_hook m (Some (fun irq -> fired := irq :: !fired));
  Machine.set_timer m (Some 50);
  Machine.tick m 10;
  Alcotest.(check (list int)) "not yet" [] !fired;
  Machine.tick m 100;
  Alcotest.(check (list int)) "timer fired" [ Machine.timer_irq ] !fired

let test_irq_disabled_defers () =
  let m = mk () in
  let fired = ref 0 in
  Machine.set_deliver_hook m (Some (fun _ -> incr fired));
  Machine.set_irq_enabled m false;
  Machine.raise_irq m Machine.timer_irq;
  Machine.tick m 10;
  Alcotest.(check int) "deferred" 0 !fired;
  Machine.set_irq_enabled m true;
  Machine.tick m 1;
  Alcotest.(check int) "delivered on enable+tick" 1 !fired

let test_revoker_sweep_completes () =
  let m = mk () in
  let auth = rw m in
  let base = Machine.sram_base m in
  (* Plant a dangling cap, mark its target revoked, run the revoker. *)
  let obj = Cap.exn (Cap.set_bounds (Cap.with_address_exn auth (base + 1024)) ~length:32) in
  Memory.store_cap_priv (Machine.mem m) ~addr:(base + 512) obj;
  Memory.set_revoked (Machine.mem m) ~addr:(base + 1024) ~len:32;
  Alcotest.(check int) "epoch 0" 0 (Machine.revoker_epoch m);
  Machine.revoker_kick m;
  Alcotest.(check bool) "busy" true (Machine.revoker_busy m);
  Machine.run_revoker_to_completion m;
  Alcotest.(check int) "epoch 1" 1 (Machine.revoker_epoch m);
  Alcotest.(check bool) "irq pending" true (Machine.pending m Machine.revoker_irq);
  let c = Memory.load_cap_priv (Machine.mem m) ~addr:(base + 512) in
  Alcotest.(check bool) "cap swept" false (Cap.tag c)

let test_revoker_sweep_duration () =
  (* A sweep should take granules * rate cycles, matching the paper's
     ~1.5 ms per MiB figure when scaled. *)
  let m = mk () in
  Machine.set_revoker_rate m ~cycles_per_granule:3;
  Machine.revoker_kick m;
  let t0 = Machine.cycles m in
  Machine.run_revoker_to_completion m;
  let dt = Machine.cycles m - t0 in
  let expected = Memory.granule_count (Machine.mem m) * 3 in
  Alcotest.(check bool)
    (Printf.sprintf "sweep %d cycles ~ %d" dt expected)
    true
    (abs (dt - expected) < 200)

let test_listener_period () =
  let m = mk () in
  let fired = ref [] in
  ignore (Machine.add_tick_listener ~period:10 m (fun c -> fired := c :: !fired));
  Machine.tick m 5;
  Alcotest.(check (list int)) "before due" [] !fired;
  Machine.tick m 5;
  Alcotest.(check (list int)) "fires at period" [ 10 ] !fired;
  (* One big tick past several periods: listeners run at tick
     granularity, so this is a single call at the current cycle. *)
  Machine.tick m 25;
  Alcotest.(check (list int)) "one call per tick" [ 35; 10 ] (!fired)

let test_listener_every_tick_default () =
  let m = mk () in
  let calls = ref 0 in
  ignore (Machine.add_tick_listener m (fun _ -> incr calls));
  Machine.tick m 3;
  Machine.tick m 1;
  Machine.tick m 7;
  Alcotest.(check int) "legacy: every tick call" 3 !calls

let test_listener_remove () =
  let m = mk () in
  let calls = ref 0 in
  let h = Machine.add_tick_listener m (fun _ -> incr calls) in
  Machine.tick m 1;
  Machine.tick m 1;
  Machine.remove_tick_listener m h;
  Machine.tick m 1;
  Machine.tick m 1;
  Alcotest.(check int) "stopped after remove" 2 !calls

let test_listener_parked_wakeup () =
  let m = mk () in
  let fired = ref [] in
  let h = Machine.add_tick_listener ~period:0 m (fun c -> fired := c :: !fired) in
  Machine.tick m 50;
  Alcotest.(check (list int)) "parked" [] !fired;
  Machine.set_listener_wakeup m h ~at:80;
  Machine.tick m 10;
  Alcotest.(check (list int)) "still early" [] !fired;
  Machine.tick m 30;
  Alcotest.(check (list int)) "woken once" [ 90 ] !fired;
  Machine.tick m 100;
  Alcotest.(check (list int)) "parked again" [ 90 ] !fired

let test_posture_horizon () =
  (* A posture change keeps the cached event horizon (so batched ticks
     stay possible across it) unless it enables delivery with an IRQ
     already pending, or a sink is attached and a sweep is in flight —
     then the next tick must take the slow path: deliver the IRQ, or
     settle the sweep and emit its revoker-quantum event exactly where
     it always did. *)
  let m = mk () in
  Machine.set_deliver_hook m (Some ignore);
  Machine.set_timer m (Some 1000);
  Machine.tick m 1;
  Alcotest.(check bool) "horizon computed" true (Machine.defer_window m 10);
  Machine.set_irq_enabled m false;
  Alcotest.(check bool) "disable keeps it" true (Machine.defer_window m 10);
  Machine.set_irq_enabled m true;
  Alcotest.(check bool) "enable, none pending, keeps it" true (Machine.defer_window m 10);
  Machine.set_irq_enabled m false;
  Machine.raise_irq m Machine.first_user_irq;
  Machine.tick m 1;
  Alcotest.(check bool) "masked IRQ keeps it" true (Machine.defer_window m 10);
  Machine.set_irq_enabled m true;
  Alcotest.(check bool) "enable with one pending dirties it" false (Machine.defer_window m 10);
  Machine.tick m 1;
  let obs = Obs.create () in
  Machine.set_trace m (Some obs);
  let quanta () =
    List.length
      (List.filter
         (fun e -> match e.Obs.kind with Obs.Revoker_quantum _ -> true | _ -> false)
         (Obs.events obs))
  in
  Machine.revoker_kick m;
  Machine.tick m 1;
  Machine.tick m 50;
  let before = quanta () in
  Alcotest.(check bool) "sweep lag deferred" true (Machine.defer_window m 10);
  Machine.set_irq_enabled m false;
  Alcotest.(check bool) "posture change mid-sweep dirties it" false (Machine.defer_window m 10);
  Machine.tick m 1;
  Alcotest.(check int) "the next tick settles the sweep" (before + 1) (quanta ());
  Machine.set_trace m None;
  Machine.set_irq_enabled m true;
  Alcotest.(check bool) "untraced, mid-sweep keeps it" true (Machine.defer_window m 10)

let test_seconds_conversion () =
  Alcotest.(check bool) "33 MHz" true
    (abs_float (Machine.seconds_of_cycles 33_000_000 -. 1.0) < 1e-9)

let suite =
  [
    Alcotest.test_case "tick advances" `Quick test_tick_advances;
    Alcotest.test_case "access charges" `Quick test_access_charges_cycles;
    Alcotest.test_case "mmio device" `Quick test_mmio_device;
    Alcotest.test_case "unmapped faults" `Quick test_unmapped_address_faults;
    Alcotest.test_case "timer irq" `Quick test_timer_irq;
    Alcotest.test_case "irq disabled defers" `Quick test_irq_disabled_defers;
    Alcotest.test_case "revoker completes" `Quick test_revoker_sweep_completes;
    Alcotest.test_case "revoker duration" `Quick test_revoker_sweep_duration;
    Alcotest.test_case "listener period" `Quick test_listener_period;
    Alcotest.test_case "listener every tick" `Quick test_listener_every_tick_default;
    Alcotest.test_case "listener remove" `Quick test_listener_remove;
    Alcotest.test_case "listener parked wakeup" `Quick test_listener_parked_wakeup;
    Alcotest.test_case "seconds conversion" `Quick test_seconds_conversion;
    Alcotest.test_case "posture keeps horizon" `Quick test_posture_horizon;
  ]

let () = Alcotest.run "cheriot_machine" [ ("machine", suite) ]
