(* Tests for the scheduler compartment (futex, multiwait, interrupt
   futexes) and the synchronization libraries (§3.1.4, §3.2.4). *)

module Cap = Capability
module F = Firmware

let _iv = Interp.int_value
let _ti = Interp.to_int

(* A two-thread image: "alice" and "bob" run entries of compartment
   "app", which has globals used for futex words. *)
let firmware () =
  System.image ~name:"sync-test"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"app_quota" ~quota:8192 ]
    ~threads:
      [
        F.thread ~name:"alice" ~comp:"app" ~entry:"alice" ~priority:2
          ~stack_size:2048 ();
        F.thread ~name:"bob" ~comp:"app" ~entry:"bob" ~priority:1 ~stack_size:2048 ();
      ]
    [
      F.compartment "app" ~globals_size:256
        ~entries:
          [
            F.entry "alice" ~arity:0 ~min_stack:512;
            F.entry "bob" ~arity:0 ~min_stack:512;
          ]
        ~imports:(System.standard_imports @ [ F.Static_sealed { target = "app_quota" } ]);
    ]

let boot2 ~alice ~bob =
  let sys = Result.get_ok (System.boot (firmware ())) in
  let failure = ref None in
  let guard f ctx =
    (try f ctx with
    | Alcotest_engine__Core.Check_error _ as e -> failure := Some e
    | Memory.Fault _ as e -> failure := Some e);
    Cap.null
  in
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"alice" (fun ctx _ ->
      guard alice ctx);
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"bob" (fun ctx _ ->
      guard bob ctx);
  System.run sys;
  (match !failure with Some e -> raise e | None -> ());
  sys

(* A word in the app's globals usable as a futex. *)
let global_word ctx off =
  let c = Cap.exn (Cap.with_address ctx.Kernel.cgp (Cap.base ctx.Kernel.cgp + off)) in
  Cap.exn (Cap.set_bounds c ~length:4)

let test_futex_wait_wake () =
  let log = ref [] in
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = global_word ctx 0 in
         log := "alice-waits" :: !log;
         match Scheduler.futex_wait ctx ~word ~expected:0 () with
         | `Woken -> log := "alice-woken" :: !log
         | `Timed_out | `Value_changed -> Alcotest.fail "unexpected wait result")
       ~bob:(fun ctx ->
         let word = global_word ctx 0 in
         log := "bob-wakes" :: !log;
         let n = Scheduler.futex_wake ctx ~word ~count:1 in
         Alcotest.(check int) "one woken" 1 n));
  Alcotest.(check (list string)) "order"
    [ "alice-waits"; "bob-wakes"; "alice-woken" ]
    (List.rev !log)

let test_futex_value_changed () =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = global_word ctx 0 in
         let m = Kernel.machine ctx.Kernel.kernel in
         Machine.store m ~auth:ctx.Kernel.cgp ~addr:(Cap.base ctx.Kernel.cgp) ~size:4 7;
         match Scheduler.futex_wait ctx ~word ~expected:0 () with
         | `Value_changed -> ()
         | `Woken | `Timed_out -> Alcotest.fail "expected value-changed")
       ~bob:(fun _ -> ()))

let test_futex_timeout () =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = global_word ctx 0 in
         match Scheduler.futex_wait ctx ~word ~expected:0 ~timeout:5000 () with
         | `Timed_out -> ()
         | `Woken | `Value_changed -> Alcotest.fail "expected timeout")
       ~bob:(fun _ -> ()))

let test_futex_needs_load_perm () =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = global_word ctx 0 in
         let no_load = Hardening.deprivilege ctx ~perms:(Perm.Set.of_list [ Perm.Store ]) word in
         match Scheduler.futex_wait ctx ~word:no_load ~expected:0 () with
         | `Value_changed -> ()
         | `Woken | `Timed_out -> Alcotest.fail "load-permission not enforced")
       ~bob:(fun _ -> ()))

let test_mutex_mutual_exclusion () =
  let in_critical = ref false in
  let violations = ref 0 in
  let iterations = 20 in
  let work ctx =
    let word = global_word ctx 8 in
    for _ = 1 to iterations do
      Sync.Mutex.with_lock ctx ~word (fun () ->
          if !in_critical then incr violations;
          in_critical := true;
          (* Force contention: burn a quantum so the other thread runs. *)
          Machine.tick (Kernel.machine ctx.Kernel.kernel) 2500;
          in_critical := false)
    done
  in
  ignore (boot2 ~alice:work ~bob:work);
  Alcotest.(check int) "no mutual-exclusion violations" 0 !violations

let test_semaphore () =
  let log = ref [] in
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = global_word ctx 12 in
         Sync.Semaphore.init ctx ~word 0;
         Alcotest.(check bool) "acquire blocks then succeeds" true
           (Sync.Semaphore.acquire ctx ~word ());
         log := "alice-acquired" :: !log)
       ~bob:(fun ctx ->
         let word = global_word ctx 12 in
         log := "bob-releases" :: !log;
         Sync.Semaphore.release ctx ~word));
  Alcotest.(check (list string)) "order" [ "bob-releases"; "alice-acquired" ]
    (List.rev !log)

let test_event_flags () =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = global_word ctx 16 in
         match Sync.Event.wait ctx ~word ~mask:0b110 ~all:true () with
         | Some v -> Alcotest.(check int) "flags" 0b110 (v land 0b110)
         | None -> Alcotest.fail "event wait failed")
       ~bob:(fun ctx ->
         let word = global_word ctx 16 in
         Sync.Event.set ctx ~word 0b010;
         Kernel.yield ctx;
         Sync.Event.set ctx ~word 0b100))

let test_multiwait () =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let w0 = global_word ctx 20 and w1 = global_word ctx 24 in
         match Scheduler.multiwait ctx ~events:[ (w0, 0); (w1, 0) ] () with
         | `Fired 1 -> ()
         | `Fired i -> Alcotest.failf "wrong event %d" i
         | `Timed_out -> Alcotest.fail "multiwait timed out")
       ~bob:(fun ctx ->
         let w1 = global_word ctx 24 in
         (* Change the second word and wake. *)
         Machine.store (Kernel.machine ctx.Kernel.kernel) ~auth:ctx.Kernel.cgp
           ~addr:(Cap.base ctx.Kernel.cgp + 24) ~size:4 5;
         ignore (Scheduler.futex_wake ctx ~word:w1 ~count:4)))

let test_interrupt_futex_revoker () =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = Scheduler.interrupt_futex ctx ~irq:Machine.revoker_irq in
         Alcotest.(check bool) "got futex cap" true (Cap.tag word);
         let m = Kernel.machine ctx.Kernel.kernel in
         let v = Machine.load m ~auth:word ~addr:(Cap.base word) ~size:4 in
         Machine.revoker_kick m;
         match Scheduler.futex_wait ctx ~word ~expected:v () with
         | `Woken | `Value_changed -> ()
         | `Timed_out -> Alcotest.fail "revoker futex timed out")
       ~bob:(fun ctx ->
         (* Keep the clock moving so the sweep completes. *)
         for _ = 1 to 2000 do
           Machine.tick (Kernel.machine ctx.Kernel.kernel) 256
         done))

let test_condvar () =
  let log = ref [] in
  ignore
    (boot2
       ~alice:(fun ctx ->
         let cv = global_word ctx 36 and mx = global_word ctx 40 in
         Sync.Condvar.init ctx ~word:cv;
         Sync.Mutex.init ctx ~word:mx;
         ignore (Sync.Mutex.lock ctx ~word:mx ());
         log := "wait" :: !log;
         Alcotest.(check bool) "signalled" true
           (Sync.Condvar.wait ctx ~word:cv ~mutex:mx ());
         log := "woken-with-mutex" :: !log;
         Sync.Mutex.unlock ctx ~word:mx)
       ~bob:(fun ctx ->
         let cv = global_word ctx 36 and mx = global_word ctx 40 in
         ignore (Sync.Mutex.lock ctx ~word:mx ());
         log := "signal" :: !log;
         Sync.Condvar.signal ctx ~word:cv;
         Sync.Mutex.unlock ctx ~word:mx));
  Alcotest.(check (list string)) "order" [ "wait"; "signal"; "woken-with-mutex" ]
    (List.rev !log)

let test_condvar_timeout () =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let cv = global_word ctx 44 and mx = global_word ctx 48 in
         Sync.Condvar.init ctx ~word:cv;
         Sync.Mutex.init ctx ~word:mx;
         ignore (Sync.Mutex.lock ctx ~word:mx ());
         Alcotest.(check bool) "times out" false
           (Sync.Condvar.wait ctx ~word:cv ~mutex:mx ~timeout:5_000 ());
         (* Mutex is held again after the timeout. *)
         Alcotest.(check bool) "mutex reacquired" false
           (Sync.Mutex.try_lock ctx ~word:mx);
         Sync.Mutex.unlock ctx ~word:mx)
       ~bob:(fun _ -> ()))

let test_queue_lib_producer_consumer () =
  let received = ref [] in
  ignore
    (boot2
       ~alice:(fun ctx ->
         (* Consumer: queue lives in app globals at +32. *)
         let buf =
           Cap.exn
             (Cap.set_bounds
                (Cap.exn (Cap.with_address ctx.Kernel.cgp (Cap.base ctx.Kernel.cgp + 32)))
                ~length:(Sync.Queue_lib.bytes_needed ~elem_size:4 ~capacity:4))
         in
         Sync.Queue_lib.init ctx ~buf ~elem_size:4 ~capacity:4;
         (* Signal readiness via a word. *)
         let ready = global_word ctx 28 in
         Machine.store (Kernel.machine ctx.Kernel.kernel) ~auth:ctx.Kernel.cgp
           ~addr:(Cap.base ctx.Kernel.cgp + 28) ~size:4 1;
         ignore (Scheduler.futex_wake ctx ~word:ready ~count:1);
         let ctx, into = Kernel.stack_alloc ctx 8 in
         let scratch_base = Cap.base into in
         for _ = 1 to 8 do
           Alcotest.(check bool) "recv ok" true
             (Sync.Queue_lib.recv ctx ~buf ~into ());
           received :=
             Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:into
               ~addr:scratch_base ~size:4
             :: !received
         done)
       ~bob:(fun ctx ->
         let ready = global_word ctx 28 in
         (match Scheduler.futex_wait ctx ~word:ready ~expected:0 () with
         | _ -> ());
         let buf =
           Cap.exn
             (Cap.set_bounds
                (Cap.exn (Cap.with_address ctx.Kernel.cgp (Cap.base ctx.Kernel.cgp + 32)))
                ~length:(Sync.Queue_lib.bytes_needed ~elem_size:4 ~capacity:4))
         in
         let ctx, elem = Kernel.stack_alloc ctx 8 in
         let scratch_base = Cap.base elem in
         for i = 1 to 8 do
           Machine.store (Kernel.machine ctx.Kernel.kernel) ~auth:elem
             ~addr:scratch_base ~size:4 (i * 11);
           Alcotest.(check bool) "send ok" true (Sync.Queue_lib.send ctx ~buf elem ())
         done));
  Alcotest.(check (list int)) "fifo order"
    [ 11; 22; 33; 44; 55; 66; 77; 88 ]
    (List.rev !received)

(* Timed-out blocking calls.  Each runs alone (bob does nothing), checks
   the failure result and pins the cycle at which the call returns, so a
   change to the deadline arithmetic (the [max 1] clamp, the re-check
   after waking) shows up as a moved cycle. *)
let timed_call ~expect_cycle name f =
  ignore
    (boot2
       ~alice:(fun ctx ->
         let m = Kernel.machine ctx.Kernel.kernel in
         let ok = f ctx in
         let at = Machine.cycles m in
         Alcotest.(check bool) (name ^ ": result") false ok;
         Alcotest.(check int) (name ^ ": return cycle") expect_cycle at)
       ~bob:(fun _ -> ()))

let queue_buf ctx =
  Cap.exn
    (Cap.set_bounds
       (Cap.exn (Cap.with_address ctx.Kernel.cgp (Cap.base ctx.Kernel.cgp + 64)))
       ~length:(Sync.Queue_lib.bytes_needed ~elem_size:4 ~capacity:1))

let test_mutex_lock_timeout () =
  timed_call ~expect_cycle:103_270 "mutex" (fun ctx ->
      let word = global_word ctx 8 in
      Sync.Mutex.init ctx ~word;
      Alcotest.(check bool) "first lock" true (Sync.Mutex.try_lock ctx ~word);
      Sync.Mutex.lock ctx ~word ~timeout:5_000 ())

let test_semaphore_acquire_timeout () =
  timed_call ~expect_cycle:103_252 "semaphore" (fun ctx ->
      let word = global_word ctx 12 in
      Sync.Semaphore.init ctx ~word 0;
      Sync.Semaphore.acquire ctx ~word ~timeout:5_000 ())

let test_event_wait_timeout () =
  timed_call ~expect_cycle:103_250 "event" (fun ctx ->
      let word = global_word ctx 16 in
      Sync.Event.wait ctx ~word ~mask:0b1 ~timeout:5_000 () <> None)

let test_queue_send_full_timeout () =
  timed_call ~expect_cycle:103_674 "queue send" (fun ctx ->
      let buf = queue_buf ctx in
      Sync.Queue_lib.init ctx ~buf ~elem_size:4 ~capacity:1;
      let ctx, elem = Kernel.stack_alloc ctx 8 in
      Alcotest.(check bool) "fills the queue" true (Sync.Queue_lib.send ctx ~buf elem ());
      Sync.Queue_lib.send ctx ~buf elem ~timeout:5_000 ())

let test_queue_recv_empty_timeout () =
  timed_call ~expect_cycle:103_262 "queue recv" (fun ctx ->
      let buf = queue_buf ctx in
      Sync.Queue_lib.init ctx ~buf ~elem_size:4 ~capacity:1;
      let ctx, into = Kernel.stack_alloc ctx 8 in
      Sync.Queue_lib.recv ctx ~buf ~into ~timeout:5_000 ())

(* A wake before the deadline: alice's timed acquire succeeds when bob
   releases, and returns at the pinned cycle. *)
let test_semaphore_woken_before_deadline () =
  let returned = ref (-1) in
  ignore
    (boot2
       ~alice:(fun ctx ->
         let word = global_word ctx 12 in
         Sync.Semaphore.init ctx ~word 0;
         Alcotest.(check bool) "acquired before the deadline" true
           (Sync.Semaphore.acquire ctx ~word ~timeout:1_000_000 ());
         returned := Machine.cycles (Kernel.machine ctx.Kernel.kernel))
       ~bob:(fun ctx -> Sync.Semaphore.release ctx ~word:(global_word ctx 12)));
  Alcotest.(check int) "return cycle" 100_369 !returned

let suite =
  [
    Alcotest.test_case "futex wait/wake" `Quick test_futex_wait_wake;
    Alcotest.test_case "futex value changed" `Quick test_futex_value_changed;
    Alcotest.test_case "futex timeout" `Quick test_futex_timeout;
    Alcotest.test_case "futex needs load perm" `Quick test_futex_needs_load_perm;
    Alcotest.test_case "mutex mutual exclusion" `Quick test_mutex_mutual_exclusion;
    Alcotest.test_case "semaphore" `Quick test_semaphore;
    Alcotest.test_case "event flags" `Quick test_event_flags;
    Alcotest.test_case "multiwait" `Quick test_multiwait;
    Alcotest.test_case "interrupt futex (revoker)" `Quick test_interrupt_futex_revoker;
    Alcotest.test_case "condvar" `Quick test_condvar;
    Alcotest.test_case "condvar timeout" `Quick test_condvar_timeout;
    Alcotest.test_case "queue library FIFO" `Quick test_queue_lib_producer_consumer;
    Alcotest.test_case "mutex lock timeout" `Quick test_mutex_lock_timeout;
    Alcotest.test_case "semaphore acquire timeout" `Quick test_semaphore_acquire_timeout;
    Alcotest.test_case "event wait timeout" `Quick test_event_wait_timeout;
    Alcotest.test_case "queue send on full timeout" `Quick test_queue_send_full_timeout;
    Alcotest.test_case "queue recv on empty timeout" `Quick test_queue_recv_empty_timeout;
    Alcotest.test_case "timed acquire woken in time" `Quick
      test_semaphore_woken_before_deadline;
  ]

let () = Alcotest.run "cheriot_sync" [ ("sync", suite) ]
