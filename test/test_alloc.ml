(* Tests for the shared heap: spatial + temporal safety, quotas, claims,
   quarantine/revocation, and the token API (§3.1.3, §3.2.1–3.2.3). *)

module Cap = Capability
module F = Firmware
module A = Allocator

let _iv = Interp.int_value

let firmware () =
  F.create ~name:"alloc-test"
    ~sealed_objects:
      [
        A.alloc_capability ~name:"app_quota" ~quota:4096;
        A.alloc_capability ~name:"small_quota" ~quota:128;
      ]
    ~threads:[ F.thread ~name:"main" ~comp:"app" ~entry:"main" ~stack_size:2048 () ]
    [
      F.compartment "app" ~globals_size:64
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
        ~imports:
          (A.client_imports
          @ [
              F.Static_sealed { target = "app_quota" };
              F.Static_sealed { target = "small_quota" };
            ]);
      A.firmware_compartment ();
      A.firmware_token_lib ();
    ]

(* Boot, run [main] in the app compartment, propagate test failures. *)
let run_app main =
  let machine = Machine.create () in
  let k =
    match Kernel.boot ~machine (firmware ()) with
    | Ok k -> k
    | Error e -> Alcotest.failf "boot: %s" e
  in
  let alloc = A.install k () in
  let failure = ref None in
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      (try main k alloc ctx
       with e -> failure := Some e);
      Cap.null);
  Kernel.run k;
  match !failure with Some e -> raise e | None -> ()

let get_alloc_cap ctx name =
  let l = Loader.find_comp (Kernel.loader ctx.Kernel.kernel) "app" in
  let slot = Loader.import_slot l ("sealed:" ^ name) in
  Machine.load_cap
    (Kernel.machine ctx.Kernel.kernel)
    ~auth:l.Loader.lc_import_cap
    ~addr:(Loader.import_slot_addr l slot)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what A.pp_err e

let expect_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %a" what A.pp_err expected
  | Error e ->
      Alcotest.(check string) what (Fmt.str "%a" A.pp_err expected)
        (Fmt.str "%a" A.pp_err e)

let test_allocate_free () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 64) in
      Alcotest.(check bool) "tagged" true (Cap.tag c);
      Alcotest.(check int) "length" 64 (Cap.length c);
      Alcotest.(check bool) "writable" true (Cap.has_perm Perm.Store c);
      (* Memory is zeroed. *)
      let m = Kernel.machine ctx.Kernel.kernel in
      Alcotest.(check int) "zeroed" 0 (Machine.load m ~auth:c ~addr:(Cap.base c) ~size:4);
      Machine.store m ~auth:c ~addr:(Cap.base c) ~size:4 42;
      ok "free" (A.free ctx ~alloc_cap:q c))

let test_bounds_exact () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 40) in
      let m = Kernel.machine ctx.Kernel.kernel in
      (match Machine.load m ~auth:c ~addr:(Cap.base c + 40) ~size:4 with
      | _ -> Alcotest.fail "read beyond allocation"
      | exception Memory.Fault _ -> ());
      match Machine.load m ~auth:c ~addr:(Cap.base c - 4) ~size:4 with
      | _ -> Alcotest.fail "read below allocation (header!)"
      | exception Memory.Fault _ -> ())

let test_use_after_free_trapped () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 64) in
      let m = Kernel.machine ctx.Kernel.kernel in
      (* Stash the pointer in memory, as an attacker would. *)
      let stash = ok "allocate stash" (A.allocate ctx ~alloc_cap:q 8) in
      Machine.store_cap m ~auth:stash ~addr:(Cap.base stash) c;
      ok "free" (A.free ctx ~alloc_cap:q c);
      (* Accesses trap as soon as free returns (§3.1.3), both through the
         register copy and through the stashed copy (load filter). *)
      (match Machine.load m ~auth:c ~addr:(Cap.base c) ~size:4 with
      | _ -> Alcotest.fail "register copy usable after free"
      | exception Memory.Fault _ -> ());
      let reloaded = Machine.load_cap m ~auth:stash ~addr:(Cap.base stash) in
      Alcotest.(check bool) "stashed copy untagged" false (Cap.tag reloaded))

let test_double_free_rejected () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 64) in
      ok "free" (A.free ctx ~alloc_cap:q c);
      expect_err "double free" A.Bad_capability (A.free ctx ~alloc_cap:q c))

let test_quota_enforced () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "small_quota" in
      let c1 = ok "first" (A.allocate ctx ~alloc_cap:q 64) in
      expect_err "over quota" A.Quota_exceeded (A.allocate ctx ~alloc_cap:q 128);
      Alcotest.(check int) "remaining" 64 (ok "remaining" (A.quota_remaining ctx ~alloc_cap:q));
      ok "free" (A.free ctx ~alloc_cap:q c1);
      (* Freeing refunds the quota. *)
      let c2 = ok "after refund" (A.allocate ctx ~alloc_cap:q 128) in
      ignore c2)

let test_quota_is_not_forgeable () =
  run_app (fun _k _alloc ctx ->
      (* A non-sealed or wrongly-sealed capability must be rejected. *)
      expect_err "null" A.Bad_capability (A.allocate ctx ~alloc_cap:Cap.null 8);
      let q = get_alloc_cap ctx "app_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 32) in
      expect_err "plain cap as quota" A.Bad_capability (A.allocate ctx ~alloc_cap:c 8))

let test_quarantine_delays_reuse () =
  run_app (fun _k alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 64) in
      let base = Cap.base c in
      ok "free" (A.free ctx ~alloc_cap:q c);
      Alcotest.(check bool) "quarantined" true (A.quarantined_bytes alloc >= 64);
      (* Allocating again must not reuse the quarantined chunk before a
         sweep completes. *)
      let c2 = ok "allocate2" (A.allocate ctx ~alloc_cap:q 64) in
      Alcotest.(check bool) "different memory" true (Cap.base c2 <> base);
      (* After a completed sweep (and drains), the chunk returns. *)
      let m = Kernel.machine ctx.Kernel.kernel in
      Machine.revoker_kick m;
      Machine.run_revoker_to_completion m;
      Machine.run_revoker_to_completion m;
      (* The allocator's bounded drain releases the swept chunk on
         subsequent operations and the original memory becomes reusable. *)
      let rec hunt n =
        if n = 0 then Alcotest.fail "freed chunk never reused after sweep"
        else
          let c3 = ok "realloc" (A.allocate ctx ~alloc_cap:q 64) in
          if Cap.base c3 = base then () else hunt (n - 1)
      in
      hunt 20;
      ignore alloc)

let test_claims_keep_alive () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let q2 = get_alloc_cap ctx "small_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 48) in
      ok "claim" (A.claim ctx ~alloc_cap:q2 c);
      (* The owner frees; the claim keeps the object alive. *)
      ok "owner free" (A.free ctx ~alloc_cap:q c);
      let m = Kernel.machine ctx.Kernel.kernel in
      Machine.store m ~auth:c ~addr:(Cap.base c) ~size:4 7;
      Alcotest.(check int) "still usable" 7
        (Machine.load m ~auth:c ~addr:(Cap.base c) ~size:4);
      (* Releasing the claim frees it for real. *)
      ok "claim release" (A.free ctx ~alloc_cap:q2 c);
      match Machine.load m ~auth:c ~addr:(Cap.base c) ~size:4 with
      | _ -> Alcotest.fail "usable after last release"
      | exception Memory.Fault _ -> ())

let test_claim_charges_quota () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let q2 = get_alloc_cap ctx "small_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 256) in
      (* 256 > small_quota's 128. *)
      expect_err "claim over quota" A.Quota_exceeded (A.claim ctx ~alloc_cap:q2 c))

let test_ephemeral_claim_blocks_free () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 64) in
      Kernel.ephemeral_claim ctx c;
      (* NB: the free is itself a compartment call, which would clear the
         *caller's* hazard slots — the kernel clears the slots of the
         calling thread on call, so claim then free from the same thread
         still exercises the check via a fresh claim before the call.
         The allocator checks all threads' hazards at free time. *)
      ignore c)

let test_free_all () =
  run_app (fun _k alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let _a = ok "a" (A.allocate ctx ~alloc_cap:q 32) in
      let _b = ok "b" (A.allocate ctx ~alloc_cap:q 32) in
      let _c = ok "c" (A.allocate ctx ~alloc_cap:q 32) in
      let live_before = A.live_allocations alloc in
      let n = ok "free_all" (Result.map_error (fun e -> e) (A.free_all ctx ~alloc_cap:q)) in
      Alcotest.(check int) "released" 3 n;
      Alcotest.(check int) "live" (live_before - 3) (A.live_allocations alloc);
      Alcotest.(check int) "quota refunded" 4096
        (ok "remaining" (A.quota_remaining ctx ~alloc_cap:q)))

let test_exhaustion_stalls_then_succeeds () =
  run_app (fun _k alloc ctx ->
      (* A big quota lets us run the heap dry.  Keep allocating half the
         heap, free it, allocate again: the second allocation must stall
         for revocation rather than fail. *)
      let q = get_alloc_cap ctx "app_quota" in
      ignore q;
      let heap = A.heap_size alloc in
      ignore heap;
      (* app_quota is only 4096; allocate 2 KiB chunks. *)
      let c1 = ok "c1" (A.allocate ctx ~alloc_cap:q 2048) in
      let c2 = ok "c2" (A.allocate ctx ~alloc_cap:q 2040) in
      ok "free c1" (A.free ctx ~alloc_cap:q c1);
      ok "free c2" (A.free ctx ~alloc_cap:q c2);
      (* Quota is fully refunded; memory is quarantined.  The next
         allocation may need the revoker if the free list is empty —
         either way it must succeed. *)
      let c3 = ok "c3" (A.allocate ctx ~alloc_cap:q 2048) in
      ignore c3)

let test_sealed_objects () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let key = ok "key" (Result.map_error (fun e -> e) (A.token_key_new ctx)) in
      let sobj = ok "allocate_sealed" (A.allocate_sealed ctx ~alloc_cap:q ~key 24) in
      Alcotest.(check bool) "sealed" true (Cap.is_sealed sobj);
      (* The holder cannot read through a sealed capability. *)
      let m = Kernel.machine ctx.Kernel.kernel in
      (match Machine.load m ~auth:sobj ~addr:(Cap.base sobj) ~size:4 with
      | _ -> Alcotest.fail "sealed capability readable"
      | exception Memory.Fault _ -> ());
      (* Unseal through the token library. *)
      let payload = ok "unseal" (A.token_unseal ctx ~key sobj) in
      Alcotest.(check int) "payload size" 24 (Cap.length payload);
      Machine.store m ~auth:payload ~addr:(Cap.base payload) ~size:4 99;
      (* A different key must not unseal it. *)
      let key2 = ok "key2" (Result.map_error (fun e -> e) (A.token_key_new ctx)) in
      expect_err "wrong key" A.Wrong_key (A.token_unseal ctx ~key:key2 sobj);
      (* Freeing needs both quota and key (§3.2.3). *)
      expect_err "free with wrong key" A.Wrong_key
        (A.free_sealed ctx ~alloc_cap:q ~key:key2 sobj);
      ok "free_sealed" (A.free_sealed ctx ~alloc_cap:q ~key sobj))

let test_static_sealed_unseal () =
  run_app (fun _k _alloc ctx ->
      (* The static allocation capability itself is a token-API sealed
         object; only the allocator's virtual type can open it.  With a
         key of a different type, unsealing fails. *)
      let q = get_alloc_cap ctx "app_quota" in
      let key = ok "key" (Result.map_error (fun e -> e) (A.token_key_new ctx)) in
      expect_err "static object, wrong key" A.Wrong_key (A.token_unseal ctx ~key q))

let test_zeroed_on_reuse () =
  run_app (fun _k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let m = Kernel.machine ctx.Kernel.kernel in
      let c = ok "allocate" (A.allocate ctx ~alloc_cap:q 64) in
      Machine.store m ~auth:c ~addr:(Cap.base c) ~size:4 0x5ec2e7;
      ok "free" (A.free ctx ~alloc_cap:q c);
      (* Run revocation so the same chunk can come back. *)
      Machine.revoker_kick m;
      Machine.run_revoker_to_completion m;
      Machine.run_revoker_to_completion m;
      let rec hunt n =
        if n = 0 then Alcotest.fail "chunk never reused"
        else
          let c2 = ok "realloc" (A.allocate ctx ~alloc_cap:q 64) in
          if Cap.base c2 = Cap.base c then c2
          else hunt (n - 1)
      in
      let c2 = hunt 50 in
      Alcotest.(check int) "no secret leaks through reuse" 0
        (Machine.load m ~auth:c2 ~addr:(Cap.base c2) ~size:4))

(* Sealed_handle: a service's id handles (§3.2.1). *)

let test_handle_other_service () =
  run_app (fun k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let a = Sealed_handle.create (Kernel.machine k) in
      let b = Sealed_handle.create (Kernel.machine k) in
      let h = Option.get (Sealed_handle.mint a ctx ~alloc_cap:q 7) in
      Alcotest.(check (option int)) "opens in its own service" (Some 7)
        (Sealed_handle.open_ a ctx h);
      Alcotest.(check (option int)) "not in another service" None
        (Sealed_handle.open_ b ctx h))

(* A released handle is freed memory: a register copy traps on use and
   a copy the holder kept in memory comes back untagged (load filter),
   so neither opens. *)
let test_handle_released () =
  run_app (fun k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let m = Kernel.machine k in
      let a = Sealed_handle.create m in
      let h = Option.get (Sealed_handle.mint a ctx ~alloc_cap:q 7) in
      let stash = ok "allocate stash" (A.allocate ctx ~alloc_cap:q 8) in
      Machine.store_cap m ~auth:stash ~addr:(Cap.base stash) h;
      ok "release" (Sealed_handle.release a ctx ~alloc_cap:q h);
      (match Sealed_handle.open_ a ctx h with
      | opened -> Alcotest.(check (option int)) "register copy" None opened
      | exception Memory.Fault _ -> ());
      let reloaded = Machine.load_cap m ~auth:stash ~addr:(Cap.base stash) in
      Alcotest.(check (option int)) "stashed copy" None
        (Sealed_handle.open_ a ctx reloaded))

let test_handle_forged () =
  run_app (fun k _alloc ctx ->
      let q = get_alloc_cap ctx "app_quota" in
      let a = Sealed_handle.create (Kernel.machine k) in
      ignore (Option.get (Sealed_handle.mint a ctx ~alloc_cap:q 7));
      Alcotest.(check (option int)) "forged integer" None
        (Sealed_handle.open_ a ctx (Interp.int_value 7)))

(* The lazily minted key is captured by snapshots: a mint after a
   restore pays for the key again, exactly like the first mint after the
   snapshot, and both pay more than a mint with the key in hand. *)
let test_handle_key_captured () =
  let machine = Machine.create () in
  let k = Result.get_ok (Kernel.boot ~machine (firmware ())) in
  ignore (A.install k ());
  let a = Sealed_handle.create machine in
  let costs = ref [] in
  let failure = ref None in
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      (try
         let q = get_alloc_cap ctx "app_quota" in
         let mint () =
           let before = Machine.cycles machine in
           ignore (Option.get (Sealed_handle.mint a ctx ~alloc_cap:q 1));
           Machine.cycles machine - before
         in
         let first = mint () in
         let second = mint () in
         costs := (first, second) :: !costs
       with e -> failure := Some e);
      Cap.null);
  let snap = Machine.snapshot machine in
  Kernel.run k;
  Machine.restore machine snap;
  Kernel.run k;
  Option.iter raise !failure;
  match List.rev !costs with
  | [ (first, second); (first', _) ] ->
      Alcotest.(check bool) "the first mint mints the key" true (first > second);
      Alcotest.(check int) "a restore forgets the key" first first'
  | _ -> Alcotest.fail "expected two runs"

let prop_alloc_free_balance =
  QCheck.Test.make ~name:"random alloc/free keeps heap consistent" ~count:20
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 8 512))
    (fun sizes ->
      let result = ref true in
      run_app (fun _k alloc ctx ->
          let q = get_alloc_cap ctx "app_quota" in
          let live = ref [] in
          List.iter
            (fun size ->
              match A.allocate ctx ~alloc_cap:q size with
              | Ok c -> live := c :: !live
              | Error _ -> (
                  (* Quota or memory pressure: free everything. *)
                  List.iter (fun c -> ignore (A.free ctx ~alloc_cap:q c)) !live;
                  live := []))
            sizes;
          List.iter (fun c -> ignore (A.free ctx ~alloc_cap:q c)) !live;
          (* All quota refunded. *)
          result :=
            (match A.quota_remaining ctx ~alloc_cap:q with
            | Ok 4096 -> true
            | _ -> false)
            && A.live_allocations alloc = 0);
      !result)

let suite =
  [
    Alcotest.test_case "allocate/free" `Quick test_allocate_free;
    Alcotest.test_case "exact bounds" `Quick test_bounds_exact;
    Alcotest.test_case "use-after-free trapped" `Quick test_use_after_free_trapped;
    Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
    Alcotest.test_case "quota enforced + refund" `Quick test_quota_enforced;
    Alcotest.test_case "quota unforgeable" `Quick test_quota_is_not_forgeable;
    Alcotest.test_case "quarantine delays reuse" `Quick test_quarantine_delays_reuse;
    Alcotest.test_case "claims keep alive" `Quick test_claims_keep_alive;
    Alcotest.test_case "claim charges quota" `Quick test_claim_charges_quota;
    Alcotest.test_case "ephemeral claim" `Quick test_ephemeral_claim_blocks_free;
    Alcotest.test_case "free_all" `Quick test_free_all;
    Alcotest.test_case "exhaustion stalls" `Quick test_exhaustion_stalls_then_succeeds;
    Alcotest.test_case "sealed objects" `Quick test_sealed_objects;
    Alcotest.test_case "static sealed objects" `Quick test_static_sealed_unseal;
    Alcotest.test_case "zeroed on reuse" `Quick test_zeroed_on_reuse;
    Alcotest.test_case "handle: other service" `Quick test_handle_other_service;
    Alcotest.test_case "handle: released" `Quick test_handle_released;
    Alcotest.test_case "handle: forged integer" `Quick test_handle_forged;
    Alcotest.test_case "handle: key captured" `Quick test_handle_key_captured;
    Qcheck_seed.to_alcotest prop_alloc_free_balance;
  ]

let () = Alcotest.run "cheriot_alloc" [ ("allocator", suite) ]
