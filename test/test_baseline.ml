(* Tests for the MPU baseline — making Table 4's comparison rows
   executable: coarse regions over-privilege, no temporal safety, and
   expensive domain switches. *)

module M = Mpu_baseline

let test_region_isolation () =
  let t = M.create () in
  let task = M.create_task () in
  let _r = M.grant t task ~addr:1024 ~len:64 ~writable:true in
  M.store t task ~addr:1024 7;
  Alcotest.(check int) "readback" 7 (M.load t task ~addr:1024);
  match M.load t task ~addr:8192 with
  | _ -> Alcotest.fail "read outside regions allowed"
  | exception Failure _ -> ()

let test_region_over_privilege () =
  (* Sharing a 40-byte object exposes the whole rounded power-of-two
     region — unlike a CHERI capability, which is exact. *)
  let t = M.create () in
  let task = M.create_task () in
  let r = M.grant t task ~addr:1024 ~len:40 ~writable:false in
  Alcotest.(check bool) "region is bigger than the object" true (r.M.r_size > 40);
  Alcotest.(check int) "over-privilege bytes" (r.M.r_size - 40)
    (M.over_privilege_bytes ~len:40);
  (* The task can read the neighbour's data inside the rounded region. *)
  ignore (M.load t task ~addr:(1024 + 63))

let test_region_exhaustion () =
  (* Eight regions only: fine-grained sharing quickly runs out. *)
  let t = M.create () in
  let task = M.create_task () in
  for i = 0 to M.region_count - 1 do
    ignore (M.grant t task ~addr:(4096 * (i + 1)) ~len:32 ~writable:false)
  done;
  match M.grant t task ~addr:65_000 ~len:32 ~writable:false with
  | _ -> Alcotest.fail "ninth region granted"
  | exception Failure _ -> ()

let test_no_temporal_safety () =
  (* The baseline allocator reuses freed memory immediately and dangling
     pointers keep working: the UAF the CHERIoT design closes. *)
  let t = M.create () in
  let task = M.create_task () in
  ignore (M.grant t task ~addr:0 ~len:65536 ~writable:true);
  let p = M.malloc t 64 in
  M.store t task ~addr:p 0x41;
  M.free t p;
  (* Dangling access still succeeds... *)
  Alcotest.(check int) "dangling read works (unsafe!)" 0x41 (M.load t task ~addr:p);
  (* ...and the memory is immediately handed back out. *)
  let q = M.malloc t 64 in
  Alcotest.(check int) "immediate reuse" p q;
  (* The secret leaks to the new owner: no zeroing either. *)
  Alcotest.(check int) "data leaks through reuse" 0x41 (M.load t task ~addr:q)

let test_domain_switch_cost () =
  let t = M.create () in
  let a = M.create_task () and b = M.create_task () in
  let c0 = M.cycles t in
  M.domain_call t ~from:a ~into:b (fun () -> ());
  let dt = M.cycles t - c0 in
  Alcotest.(check int) "round trip cost" (2 * M.domain_switch_cycles) dt

let test_per_task_overhead () =
  Alcotest.(check bool) "Tock-style tasks cost more than CHERIoT compartments"
    true
    (M.per_task_overhead_bytes > 83)

let suite =
  [
    Alcotest.test_case "region isolation" `Quick test_region_isolation;
    Alcotest.test_case "region over-privilege" `Quick test_region_over_privilege;
    Alcotest.test_case "region exhaustion" `Quick test_region_exhaustion;
    Alcotest.test_case "no temporal safety" `Quick test_no_temporal_safety;
    Alcotest.test_case "domain switch cost" `Quick test_domain_switch_cost;
    Alcotest.test_case "per-task overhead" `Quick test_per_task_overhead;
  ]

let () = Alcotest.run "cheriot_baseline" [ ("mpu-baseline", suite) ]
