(* Scheduling-policy tests: preemptive time slicing, priority
   dominance, context-switch accounting, and multiwait timeouts. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let _ = iv

let two_thread_fw ~p1 ~p2 =
  System.image ~name:"sched-policy"
    ~threads:
      [
        F.thread ~name:"a" ~comp:"w" ~entry:"ta" ~priority:p1 ~stack_size:2048 ();
        F.thread ~name:"b" ~comp:"w" ~entry:"tb" ~priority:p2 ~stack_size:2048 ();
      ]
    [
      F.compartment "w" ~globals_size:32
        ~entries:
          [ F.entry "ta" ~arity:0 ~min_stack:512; F.entry "tb" ~arity:0 ~min_stack:512 ]
        ~imports:System.standard_imports;
    ]

let boot fw ta tb =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let k = sys.System.kernel in
  Kernel.implement1 k ~comp:"w" ~entry:"ta" (fun ctx _ -> ta ctx; Cap.null);
  Kernel.implement1 k ~comp:"w" ~entry:"tb" (fun ctx _ -> tb ctx; Cap.null);
  System.run ~until_cycles:100_000_000 sys;
  (machine, k)

let test_equal_priority_time_slicing () =
  (* Two equal-priority busy loops must interleave via the timer. *)
  let log = ref [] in
  let busy tag ctx =
    for i = 1 to 40 do
      log := (tag, i) :: !log;
      Machine.tick (Kernel.machine ctx.Kernel.kernel) 500
    done
  in
  let _, k = boot (two_thread_fw ~p1:2 ~p2:2) (busy "a") (busy "b") in
  let seq = List.rev_map fst !log in
  let rec transitions = function
    | x :: (y :: _ as rest) -> (if x <> y then 1 else 0) + transitions rest
    | _ -> 0
  in
  let switches = transitions seq in
  Alcotest.(check bool)
    (Printf.sprintf "threads interleaved (%d transitions)" switches)
    true (switches >= 4);
  Alcotest.(check bool) "context switches recorded" true
    (Kernel.context_switches k >= 4)

let test_priority_dominance () =
  (* A higher-priority busy thread starves the lower one until it
     blocks; then the low one runs. *)
  let order = ref [] in
  let _ =
    boot (two_thread_fw ~p1:3 ~p2:1)
      (fun ctx ->
        order := "hi-start" :: !order;
        Machine.tick (Kernel.machine ctx.Kernel.kernel) 20_000;
        order := "hi-end" :: !order)
      (fun _ -> order := "lo" :: !order)
  in
  Alcotest.(check (list string)) "hi runs to completion first"
    [ "hi-start"; "hi-end"; "lo" ]
    (List.rev !order)

let test_sleep_ordering () =
  (* Sleeps of different lengths wake in deadline order. *)
  let order = ref [] in
  let _ =
    boot (two_thread_fw ~p1:2 ~p2:2)
      (fun ctx ->
        Kernel.sleep ctx 50_000;
        order := "long" :: !order)
      (fun ctx ->
        Kernel.sleep ctx 10_000;
        order := "short" :: !order)
  in
  Alcotest.(check (list string)) "deadline order" [ "short"; "long" ] (List.rev !order)

let test_multiwait_timeout_and_fire () =
  let fired = ref None in
  let _ =
    boot (two_thread_fw ~p1:2 ~p2:1)
      (fun ctx ->
        let cgp = ctx.Kernel.cgp in
        let w i =
          Cap.exn
            (Cap.set_bounds
               (Cap.exn (Cap.with_address cgp (Cap.base cgp + (4 * i))))
               ~length:4)
        in
        (* First: nothing changes -> timeout. *)
        (match Scheduler.multiwait ctx ~events:[ (w 0, 0); (w 1, 0) ] ~timeout:5_000 () with
        | `Timed_out -> ()
        | `Fired _ -> Alcotest.fail "spurious fire");
        (* Then wait again; partner pokes word 0. *)
        fired := Some (Scheduler.multiwait ctx ~events:[ (w 0, 0); (w 1, 0) ] ()))
      (fun ctx ->
        let cgp = ctx.Kernel.cgp in
        Kernel.sleep ctx 20_000;
        Machine.store (Kernel.machine ctx.Kernel.kernel) ~auth:cgp
          ~addr:(Cap.base cgp) ~size:4 9;
        let w0 =
          Cap.exn (Cap.set_bounds (Cap.exn (Cap.with_address cgp (Cap.base cgp))) ~length:4)
        in
        ignore (Scheduler.futex_wake ctx ~word:w0 ~count:8))
  in
  match !fired with
  | Some (`Fired 0) -> ()
  | Some `Timed_out -> Alcotest.fail "second multiwait timed out"
  | Some (`Fired i) -> Alcotest.failf "wrong event %d" i
  | None -> Alcotest.fail "multiwait never returned"

let test_idle_accounting_monotone () =
  let _, k =
    boot (two_thread_fw ~p1:2 ~p2:2)
      (fun ctx -> Kernel.sleep ctx 1_000_000)
      (fun ctx -> Kernel.sleep ctx 2_000_000)
  in
  Alcotest.(check bool) "idle time accumulated" true (Kernel.idle_cycles k > 1_000_000)

let suite =
  [
    Alcotest.test_case "equal-priority slicing" `Quick test_equal_priority_time_slicing;
    Alcotest.test_case "priority dominance" `Quick test_priority_dominance;
    Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
    Alcotest.test_case "multiwait timeout+fire" `Quick test_multiwait_timeout_and_fire;
    Alcotest.test_case "idle accounting" `Quick test_idle_accounting_monotone;
  ]

let () = Alcotest.run "cheriot_sched_policy" [ ("scheduling", suite) ]
