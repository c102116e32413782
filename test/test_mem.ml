(* Tests for tagged memory, the load filter and revocation (§2.1, §3.1.3). *)

module Cap = Capability

let base = 0x2000_0000
let size = 64 * 1024
let mk () = Memory.create ~base ~size

let rw_cap ?(perms = Perm.Set.read_write) () =
  Cap.make_root ~base ~top:(base + size) ~perms

let expect_fault what cause f =
  match f () with
  | _ -> Alcotest.failf "%s: expected fault" what
  | exception Memory.Fault { cause = c; _ } ->
      Alcotest.(check string) what
        (Cap.violation_to_string cause)
        (Cap.violation_to_string c)

let test_load_store_roundtrip () =
  let m = mk () in
  let auth = rw_cap () in
  Memory.store ~auth m ~addr:(base + 16) ~size:4 0xdeadbeef;
  Alcotest.(check int) "word" 0xdeadbeef (Memory.load ~auth m ~addr:(base + 16) ~size:4);
  Memory.store ~auth m ~addr:(base + 21) ~size:1 0xab;
  Alcotest.(check int) "byte" 0xab (Memory.load ~auth m ~addr:(base + 21) ~size:1);
  Memory.store ~auth m ~addr:(base + 32) ~size:2 0x1234;
  Alcotest.(check int) "u16" 0x1234 (Memory.load ~auth m ~addr:(base + 32) ~size:2)

let test_little_endian () =
  let m = mk () in
  let auth = rw_cap () in
  Memory.store ~auth m ~addr:(base + 8) ~size:4 0x11223344;
  Alcotest.(check int) "lsb first" 0x44 (Memory.load ~auth m ~addr:(base + 8) ~size:1);
  Alcotest.(check int) "msb last" 0x11 (Memory.load ~auth m ~addr:(base + 11) ~size:1)

let test_bounds_checked () =
  let m = mk () in
  let auth = Cap.exn (Cap.set_bounds (Cap.with_address_exn (rw_cap ()) (base + 64)) ~length:32) in
  Memory.store ~auth m ~addr:(base + 64) ~size:4 1;
  expect_fault "below base" Cap.Bounds_violation (fun () ->
      Memory.load ~auth m ~addr:(base + 60) ~size:4);
  expect_fault "above top" Cap.Bounds_violation (fun () ->
      Memory.load ~auth m ~addr:(base + 96) ~size:1);
  expect_fault "straddle top" Cap.Bounds_violation (fun () ->
      Memory.load ~auth m ~addr:(base + 92) ~size:8)

let test_perms_checked () =
  let m = mk () in
  let ro = Cap.exn (Cap.and_perms (rw_cap ()) Perm.Set.read_only) in
  expect_fault "store via ro" (Cap.Permit_violation Perm.Store) (fun () ->
      Memory.store ~auth:ro m ~addr:base ~size:4 1);
  let wo = Cap.exn (Cap.and_perms (rw_cap ()) (Perm.Set.of_list [ Perm.Store ])) in
  expect_fault "load via wo" (Cap.Permit_violation Perm.Load) (fun () ->
      Memory.load ~auth:wo m ~addr:base ~size:4)

let test_untagged_traps () =
  let m = mk () in
  let auth = Cap.clear_tag (rw_cap ()) in
  expect_fault "untagged" Cap.Tag_violation (fun () ->
      Memory.load ~auth m ~addr:base ~size:4)

let test_cap_roundtrip () =
  let m = mk () in
  let auth = rw_cap () in
  let c = Cap.exn (Cap.set_bounds (Cap.with_address_exn auth (base + 256)) ~length:64) in
  Memory.store_cap ~auth m ~addr:(base + 512) c;
  let c' = Memory.load_cap ~auth m ~addr:(base + 512) in
  Alcotest.(check bool) "tag preserved" true (Cap.tag c');
  Alcotest.(check bool) "equal" true (Cap.equal c c')

let test_data_write_clears_tag () =
  let m = mk () in
  let auth = rw_cap () in
  Memory.store_cap ~auth m ~addr:(base + 512) auth;
  Memory.store ~auth m ~addr:(base + 516) ~size:1 0xff;
  let c' = Memory.load_cap ~auth m ~addr:(base + 512) in
  Alcotest.(check bool) "tag cleared by overwrite" false (Cap.tag c')

let test_cap_read_as_data_sees_encoding () =
  let m = mk () in
  let auth = rw_cap () in
  let c = Cap.with_address_exn auth (base + 64) in
  Memory.store_cap ~auth m ~addr:(base + 512) c;
  let lo = Memory.load ~auth m ~addr:(base + 512) ~size:4 in
  Alcotest.(check int) "low word is cursor" ((base + 64) land 0xffffffff) lo

let test_unaligned_cap_access_traps () =
  let m = mk () in
  let auth = rw_cap () in
  expect_fault "unaligned cap load" Cap.Bounds_violation (fun () ->
      Memory.load_cap ~auth m ~addr:(base + 4))

let test_no_mem_cap_loads_untagged () =
  let m = mk () in
  let auth = rw_cap () in
  Memory.store_cap ~auth m ~addr:(base + 512) auth;
  let data_only = Cap.exn (Cap.and_perms auth (Perm.Set.of_list [ Perm.Load; Perm.Store ])) in
  let c' = Memory.load_cap ~auth:data_only m ~addr:(base + 512) in
  Alcotest.(check bool) "untagged without MC" false (Cap.tag c')

let test_store_local () =
  let m = mk () in
  let auth = rw_cap () in
  (* A non-global cap may only be stored through Store_local authority. *)
  let local = Cap.exn (Cap.and_perms auth (Perm.Set.remove Perm.Global Perm.Set.read_write)) in
  expect_fault "store local via global auth" (Cap.Permit_violation Perm.Store_local)
    (fun () -> Memory.store_cap ~auth m ~addr:(base + 512) local);
  let stack_auth =
    Cap.exn (Cap.and_perms (rw_cap ~perms:Perm.Set.universe ()) Perm.Set.stack)
  in
  Memory.store_cap ~auth:stack_auth m ~addr:(base + 512) local;
  let back = Memory.load_cap ~auth:stack_auth m ~addr:(base + 512) in
  Alcotest.(check bool) "stored via stack auth" true (Cap.tag back)

let test_deep_immutability_on_load () =
  let m = mk () in
  let auth = rw_cap () in
  Memory.store_cap ~auth m ~addr:(base + 512) auth;
  let ro_auth = Cap.exn (Cap.and_perms auth Perm.Set.read_only) in
  let c' = Memory.load_cap ~auth:ro_auth m ~addr:(base + 512) in
  Alcotest.(check bool) "tagged" true (Cap.tag c');
  Alcotest.(check bool) "store stripped" false (Cap.has_perm Perm.Store c')

let test_load_filter () =
  let m = mk () in
  let auth = rw_cap () in
  let obj = Cap.exn (Cap.set_bounds (Cap.with_address_exn auth (base + 1024)) ~length:64) in
  Memory.store_cap ~auth m ~addr:(base + 512) obj;
  (* Free the object: set revocation bits. *)
  Memory.set_revoked m ~addr:(base + 1024) ~len:64;
  let c' = Memory.load_cap ~auth m ~addr:(base + 512) in
  Alcotest.(check bool) "load filter cleared tag" false (Cap.tag c');
  (* With the filter disabled (ablation), the dangling cap loads tagged. *)
  Memory.set_load_filter m false;
  let c'' = Memory.load_cap ~auth m ~addr:(base + 512) in
  Alcotest.(check bool) "ablated filter keeps tag" true (Cap.tag c'')

let test_load_filter_checks_base_not_cursor () =
  (* The filter consults the revocation bit of the *base* granule: bounds
     monotonicity guarantees base is within the original allocation. *)
  let m = mk () in
  let auth = rw_cap () in
  let obj = Cap.exn (Cap.set_bounds (Cap.with_address_exn auth (base + 1024)) ~length:64) in
  let obj = Cap.with_address_exn obj (base + 1080) in
  (* cursor out of the object *)
  Memory.store_cap ~auth m ~addr:(base + 512) obj;
  Memory.set_revoked m ~addr:(base + 1024) ~len:64;
  let c' = Memory.load_cap ~auth m ~addr:(base + 512) in
  Alcotest.(check bool) "revoked despite cursor elsewhere" false (Cap.tag c')

let test_sweep_granule () =
  let m = mk () in
  let auth = rw_cap () in
  let obj = Cap.exn (Cap.set_bounds (Cap.with_address_exn auth (base + 1024)) ~length:64) in
  Memory.store_cap ~auth m ~addr:(base + 512) obj;
  Memory.store_cap ~auth m ~addr:(base + 520) auth;
  Memory.set_revoked m ~addr:(base + 1024) ~len:64;
  let invalidated = ref 0 in
  for g = 0 to Memory.granule_count m - 1 do
    if Memory.sweep_granule m g then incr invalidated
  done;
  Alcotest.(check int) "one cap invalidated" 1 !invalidated;
  Alcotest.(check bool) "other survives" true
    (Cap.tag (Memory.load_cap ~auth m ~addr:(base + 520)));
  (* After the sweep the revocation bits can be cleared and memory reused. *)
  Memory.clear_revoked m ~addr:(base + 1024) ~len:64;
  Alcotest.(check int) "no revoked granules" 0 (Memory.revoked_granule_count m)

let test_tag_census () =
  (* The O(1) tagged-granule count and the bitmap-driven next_tagged
     scan that back the revoker's fast sweep. *)
  let m = mk () in
  let auth = rw_cap () in
  Alcotest.(check int) "empty" 0 (Memory.tagged_granule_count m);
  Memory.store_cap ~auth m ~addr:(base + 512) auth;
  Memory.store_cap ~auth m ~addr:(base + 1024) auth;
  Alcotest.(check int) "two tagged" 2 (Memory.tagged_granule_count m);
  let next = Alcotest.(check int) in
  next "first from 0" 64 (Memory.next_tagged m ~from:0);
  next "first at itself" 64 (Memory.next_tagged m ~from:64);
  next "second" 128 (Memory.next_tagged m ~from:65);
  next "none past last" (-1) (Memory.next_tagged m ~from:129);
  Memory.store ~auth m ~addr:(base + 512) ~size:1 0;
  Alcotest.(check int) "overwrite drops count" 1 (Memory.tagged_granule_count m);
  next "skips cleared" 128 (Memory.next_tagged m ~from:0)

let test_zero () =
  let m = mk () in
  let auth = rw_cap () in
  Memory.store ~auth m ~addr:(base + 40) ~size:4 0xffff;
  Memory.store_cap ~auth m ~addr:(base + 48) auth;
  Memory.zero ~auth m ~addr:(base + 40) ~len:16;
  Alcotest.(check int) "zeroed" 0 (Memory.load ~auth m ~addr:(base + 40) ~size:4);
  Alcotest.(check bool) "tag gone" false (Cap.tag (Memory.load_cap ~auth m ~addr:(base + 48)))

let prop_raw_roundtrip =
  QCheck.Test.make ~name:"byte store/load roundtrip" ~count:300
    QCheck.(pair (int_bound 2000) (int_bound 255))
    (fun (off, v) ->
      let m = mk () in
      let auth = rw_cap () in
      Memory.store ~auth m ~addr:(base + off) ~size:1 v;
      Memory.load ~auth m ~addr:(base + off) ~size:1 = v)

let prop_revoked_never_loads_tagged =
  QCheck.Test.make ~name:"load filter: revoked base never loads tagged" ~count:300
    QCheck.(pair (int_bound 100) (int_bound 100))
    (fun (slot, obj_g) ->
      let m = mk () in
      let auth = rw_cap () in
      let addr = base + 2048 + (slot * 8) in
      (* Granule 0 holds the authority's base; keep the object clear of
         it so the access-time revocation check does not fire first. *)
      let obj_addr = base + ((obj_g + 1) * 8) in
      let obj = Cap.exn (Cap.set_bounds (Cap.with_address_exn auth obj_addr) ~length:8) in
      Memory.store_cap ~auth m ~addr obj;
      Memory.set_revoked m ~addr:obj_addr ~len:8;
      not (Cap.tag (Memory.load_cap ~auth m ~addr)))

let suite =
  [
    Alcotest.test_case "load/store roundtrip" `Quick test_load_store_roundtrip;
    Alcotest.test_case "little endian" `Quick test_little_endian;
    Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
    Alcotest.test_case "perms checked" `Quick test_perms_checked;
    Alcotest.test_case "untagged traps" `Quick test_untagged_traps;
    Alcotest.test_case "cap roundtrip" `Quick test_cap_roundtrip;
    Alcotest.test_case "data write clears tag" `Quick test_data_write_clears_tag;
    Alcotest.test_case "cap read as data" `Quick test_cap_read_as_data_sees_encoding;
    Alcotest.test_case "unaligned cap traps" `Quick test_unaligned_cap_access_traps;
    Alcotest.test_case "no MC loads untagged" `Quick test_no_mem_cap_loads_untagged;
    Alcotest.test_case "store-local rule" `Quick test_store_local;
    Alcotest.test_case "deep immutability on load" `Quick test_deep_immutability_on_load;
    Alcotest.test_case "load filter" `Quick test_load_filter;
    Alcotest.test_case "filter checks base" `Quick test_load_filter_checks_base_not_cursor;
    Alcotest.test_case "revoker sweep" `Quick test_sweep_granule;
    Alcotest.test_case "tag census" `Quick test_tag_census;
    Alcotest.test_case "zeroing" `Quick test_zero;
    Qcheck_seed.to_alcotest prop_raw_roundtrip;
    Qcheck_seed.to_alcotest prop_revoked_never_loads_tagged;
  ]

let () = Alcotest.run "cheriot_mem" [ ("memory", suite) ]
