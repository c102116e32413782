(* §5.2 fault recovery: a crash injected at the compartment-call
   boundary is contained — the caller sees an error return, the victim's
   error handler micro-reboots it, and its heap quota comes back whole.
   The second test drives the same path through the fault-injection
   engine instead of a hand-placed hook. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

let svc_quota = 4096

let firmware () =
  System.image ~name:"fault-recovery"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"svcq" ~quota:svc_quota ]
    ~threads:
      [
        F.thread ~name:"main" ~comp:"app" ~entry:"main" ~stack_size:4096
          ~trusted_stack_frames:16 ();
      ]
    [
      F.compartment "app" ~globals_size:16
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:1024 ]
        ~imports:
          (System.standard_imports @ [ F.Call { comp = "svc"; entry = "work" } ]);
      F.compartment "svc" ~globals_size:16 ~error_handler:true
        ~entries:[ F.entry "work" ~arity:0 ~min_stack:512 ]
        ~imports:
          (System.standard_imports @ [ F.Static_sealed { target = "svcq" } ]);
    ]

let sealed_quota k =
  let l = Loader.find_comp (Kernel.loader k) "svc" in
  Machine.load_cap (Kernel.machine k) ~auth:l.Loader.lc_import_cap
    ~addr:(Loader.import_slot_addr l (Loader.import_slot l "sealed:svcq"))

(* A service that accumulates heap state, capped so the quota never
   legitimately runs out, with a micro-rebooting error handler. *)
let install_svc k ~cap_live =
  let svc_live = ref [] in
  Kernel.implement1 k ~comp:"svc" ~entry:"work" (fun ctx _ ->
      (match Allocator.allocate ctx ~alloc_cap:(sealed_quota k) 128 with
      | Ok c ->
          svc_live := !svc_live @ [ c ];
          if List.length !svc_live > cap_live then begin
            match !svc_live with
            | oldest :: rest ->
                svc_live := rest;
                ignore (Allocator.free ctx ~alloc_cap:(sealed_quota k) oldest)
            | [] -> ()
          end
      | Error _ -> ());
      iv (List.length !svc_live));
  Kernel.set_error_handler k ~comp:"svc" (fun cctx _fi ->
      Kernel.micro_reboot cctx
        {
          Kernel.wake_blocked = (fun () -> ());
          release_heap =
            (fun () ->
              ignore (Allocator.free_all cctx ~alloc_cap:(sealed_quota k)));
          reset_state = (fun () -> svc_live := []);
        };
      `Unwind)

let test_injected_crash_recovers () =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let k = sys.System.kernel in
  install_svc k ~cap_live:8;
  let crash_next = ref false in
  Kernel.set_call_fault_hook k
    (Some
       (fun ~comp ~entry:_ ->
         if comp = "svc" && !crash_next then begin
           crash_next := false;
           true
         end
         else false));
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      (* Build up service heap state. *)
      Alcotest.(check int) "first call" 1
        (ti (Result.get_ok (Kernel.call1 ctx ~import:"svc.work" [])));
      Alcotest.(check int) "second call" 2
        (ti (Result.get_ok (Kernel.call1 ctx ~import:"svc.work" [])));
      (match Allocator.quota_remaining ctx ~alloc_cap:(sealed_quota k) with
      | Ok r -> Alcotest.(check bool) "quota charged" true (r < svc_quota)
      | Error e -> Alcotest.failf "quota_remaining: %a" Allocator.pp_err e);
      (* Crash at the next call boundary: the caller must get the error
         path, not a hang or a fault of its own. *)
      crash_next := true;
      (match Kernel.call1 ctx ~import:"svc.work" [] with
      | Error Kernel.Fault_in_callee -> ()
      | Ok _ -> Alcotest.fail "injected crash did not surface"
      | Error e -> Alcotest.failf "unexpected error: %a" Kernel.pp_call_error e);
      Alcotest.(check int) "one micro-reboot ran" 1
        (Kernel.reboot_count k ~comp:"svc");
      (match Allocator.quota_remaining ctx ~alloc_cap:(sealed_quota k) with
      | Ok r -> Alcotest.(check int) "quota fully restored" svc_quota r
      | Error e -> Alcotest.failf "quota_remaining: %a" Allocator.pp_err e);
      (* Pristine state: the counter restarts from one. *)
      Alcotest.(check int) "fresh service state" 1
        (ti (Result.get_ok (Kernel.call1 ctx ~import:"svc.work" [])));
      Cap.null);
  System.run ~until_cycles:500_000_000 sys

let test_engine_crash_storm_recovers () =
  let machine = Machine.create () in
  let engine =
    Fault_inject.create ~period:3_000
      ~weights:[ (Fault_inject.Crash, 1) ]
      ~seed:7 machine
  in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let k = sys.System.kernel in
  let alloc = sys.System.alloc in
  install_svc k ~cap_live:3;
  Fault_inject.wire_kernel engine k ~victims:[ "svc" ];
  let ok = ref 0 and failed = ref 0 and final_ok = ref false in
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      Fault_inject.arm engine;
      for _ = 1 to 20 do
        (match Kernel.call1 ctx ~import:"svc.work" [] with
        | Ok _ -> incr ok
        | Error _ -> incr failed);
        Kernel.sleep ctx 2_000
      done;
      Fault_inject.disarm engine;
      (match Kernel.call1 ctx ~import:"svc.work" [] with
      | Ok _ -> final_ok := true
      | Error _ -> ());
      Cap.null);
  System.run ~until_cycles:500_000_000 sys;
  Fault_inject.detach engine;
  Alcotest.(check bool) "crashes were delivered" true (!failed > 0);
  Alcotest.(check bool) "service survived between crashes" true (!ok > 0);
  Alcotest.(check bool) "service restored after the storm" true !final_ok;
  Alcotest.(check bool) "micro-reboots ran" true
    (Kernel.reboot_count k ~comp:"svc" >= 1);
  (match Allocator.check_integrity alloc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "allocator integrity: %s" e);
  match
    Allocator.check_quota_conservation alloc
      ~quotas:[ ("svcq", Cap.base (sealed_quota k) + 8) ]
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "quota conservation: %s" e

let suite =
  [
    Alcotest.test_case "injected crash recovers" `Quick
      test_injected_crash_recovers;
    Alcotest.test_case "engine crash storm recovers" `Quick
      test_engine_crash_storm_recovers;
  ]

let () = Alcotest.run "cheriot_fault_recovery" [ ("fault-recovery", suite) ]
