(* Extensions discussed in §5.1.2: repeat-attack rate limiting for
   micro-reboots (the Gecko-style defence) and RLBox-style tainted
   values. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

let firmware () =
  System.image ~name:"ext-test"
    ~threads:[ F.thread ~name:"main" ~comp:"app" ~entry:"main" ~stack_size:2048 () ]
    [
      F.compartment "app" ~globals_size:16
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
        ~imports:
          (System.standard_imports
          @ [
              F.Call { comp = "victim"; entry = "work" };
              F.Call { comp = "victim"; entry = "crash" };
            ]);
      F.compartment "victim" ~globals_size:16 ~error_handler:true
        ~entries:
          [
            F.entry "work" ~arity:1 ~min_stack:256;
            F.entry "crash" ~arity:0 ~min_stack:256;
          ];
    ]

let boot () =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let k = sys.System.kernel in
  Kernel.implement1 k ~comp:"victim" ~entry:"work" (fun _ args -> iv (ti args.(0) + 1));
  Kernel.implement1 k ~comp:"victim" ~entry:"crash" (fun _ _ ->
      ignore (Machine.load machine ~auth:Cap.null ~addr:0 ~size:4);
      iv 0);
  Kernel.set_error_handler k ~comp:"victim" (fun cctx _ ->
      Kernel.micro_reboot cctx
        { Kernel.wake_blocked = ignore; release_heap = ignore;
          reset_state = ignore };
      `Unwind);
  (sys, k)

let run_main sys k main =
  let failure = ref None in
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      (try main ctx with e -> failure := Some e);
      Cap.null);
  System.run sys;
  match !failure with Some e -> raise e | None -> ()

let test_reboot_storm_without_limit () =
  (* Without a rate limit, the attacker can force endless reboots; the
     victim keeps recovering (availability preserved, cycles burned). *)
  let sys, k = boot () in
  run_main sys k (fun ctx ->
      for _ = 1 to 10 do
        match Kernel.call1 ctx ~import:"victim.crash" [] with
        | Error Kernel.Fault_in_callee -> ()
        | _ -> Alcotest.fail "expected contained fault"
      done;
      Alcotest.(check int) "ten reboots" 10 (Kernel.reboot_count k ~comp:"victim");
      (* Still serving. *)
      match Kernel.call1 ctx ~import:"victim.work" [ iv 1 ] with
      | Ok v -> Alcotest.(check int) "alive" 2 (ti v)
      | Error _ -> Alcotest.fail "victim died")

let test_rate_limit_trips () =
  let sys, k = boot () in
  Kernel.set_reboot_limit k ~comp:"victim" ~max_reboots:3 ~window:100_000_000;
  run_main sys k (fun ctx ->
      (* The first crashes reboot-and-recover... *)
      for _ = 1 to 3 do
        ignore (Kernel.call1 ctx ~import:"victim.crash" [])
      done;
      Alcotest.(check bool) "not locked yet" false
        (Kernel.locked_out k ~comp:"victim");
      (* ...the fourth trips the limiter: the compartment stays offline
         instead of burning all its cycles rebooting. *)
      ignore (Kernel.call1 ctx ~import:"victim.crash" []);
      Alcotest.(check bool) "locked out" true
        (Kernel.locked_out k ~comp:"victim");
      (match Kernel.call1 ctx ~import:"victim.work" [ iv 1 ] with
      | Error Kernel.Compartment_poisoned -> ()
      | _ -> Alcotest.fail "locked-out compartment accepted a call");
      (* The watchdog reopens it. *)
      Kernel.clear_lockout k ~comp:"victim";
      match Kernel.call1 ctx ~import:"victim.work" [ iv 5 ] with
      | Ok v -> Alcotest.(check int) "recovered after clear" 6 (ti v)
      | Error _ -> Alcotest.fail "clear_lockout did not reopen")

(* The limiter's budget is part of [Machine.snapshot]: restoring a
   snapshot taken before the lockout reopens the compartment with the
   budget it had then, so it takes [max_reboots] fresh crashes (plus the
   one that trips) to lock it out again. *)
let test_rate_limit_restored_by_snapshot () =
  let sys, k = boot () in
  let machine = Kernel.machine k in
  Kernel.set_reboot_limit k ~comp:"victim" ~max_reboots:3 ~window:100_000_000;
  let snap = Machine.snapshot machine in
  let crash ctx = ignore (Kernel.call1 ctx ~import:"victim.crash" []) in
  run_main sys k (fun ctx ->
      for _ = 1 to 4 do
        crash ctx
      done;
      Alcotest.(check bool) "locked out" true (Kernel.locked_out k ~comp:"victim"));
  Machine.restore machine snap;
  run_main sys k (fun ctx ->
      Alcotest.(check bool) "restore lifts the lockout" false
        (Kernel.locked_out k ~comp:"victim");
      (match Kernel.call1 ctx ~import:"victim.work" [ iv 1 ] with
      | Ok v -> Alcotest.(check int) "answers again" 2 (ti v)
      | Error e -> Alcotest.failf "restored victim refused: %a" Kernel.pp_call_error e);
      for _ = 1 to 3 do
        crash ctx
      done;
      Alcotest.(check bool) "budget restored: three crashes stay open" false
        (Kernel.locked_out k ~comp:"victim");
      crash ctx;
      Alcotest.(check bool) "the fourth trips it again" true
        (Kernel.locked_out k ~comp:"victim"))

(* Tainted values *)

let test_tainted_requires_validation () =
  let t = Tainted.source 41 in
  (match Tainted.use t ~check:(fun v -> v > 0) (fun v -> v + 1) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "validated use failed");
  match Tainted.use t ~check:(fun v -> v > 100) Fun.id with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "failed check let the value through"

let test_tainted_map_stays_tainted () =
  let t = Tainted.map (fun x -> x * 2) (Tainted.source 21) in
  (* Still requires validation after the transform. *)
  match Tainted.use t ~check:(fun v -> v = 42) Fun.id with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "map broke the taint pipeline"

let test_tainted_pointer () =
  let sys, k = boot () in
  run_main sys k (fun ctx ->
      ignore k;
      ignore sys;
      (* A callee wraps its pointer argument as tainted; using it forces
         the check_pointer validation. *)
      let _ctx2, good = Kernel.stack_alloc ctx 16 in
      let bad = Cap.null in
      (match
         Tainted.use_pointer ctx (Tainted.source good) ~min_length:8 (fun _ -> "ok")
       with
      | Ok "ok" -> ()
      | _ -> Alcotest.fail "valid pointer rejected");
      match Tainted.use_pointer ctx (Tainted.source bad) ~min_length:8 Fun.id with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "null pointer validated")

let test_tainted_both () =
  let pair = Tainted.both (Tainted.source 1) (Tainted.source 2) in
  match Tainted.use pair ~check:(fun (a, b) -> a < b) (fun (a, b) -> a + b) with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "both/use failed"

let suite =
  [
    Alcotest.test_case "reboot storm (no limit)" `Quick test_reboot_storm_without_limit;
    Alcotest.test_case "rate limit trips" `Quick test_rate_limit_trips;
    Alcotest.test_case "rate limit restored by snapshot" `Quick
      test_rate_limit_restored_by_snapshot;
    Alcotest.test_case "tainted validation" `Quick test_tainted_requires_validation;
    Alcotest.test_case "tainted map" `Quick test_tainted_map_stays_tainted;
    Alcotest.test_case "tainted pointers" `Quick test_tainted_pointer;
    Alcotest.test_case "tainted both" `Quick test_tainted_both;
  ]

let () = Alcotest.run "cheriot_extensions" [ ("extensions", suite) ]
