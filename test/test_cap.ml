(* Unit and property tests for the capability algebra (§2.1). *)

module Cap = Capability

let perms_rw = Perm.Set.read_write
let root () = Cap.make_root ~base:0x1000 ~top:0x2000 ~perms:Perm.Set.universe

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" what (Cap.violation_to_string e)

let check_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected failure" what
  | Error e ->
      Alcotest.(check string) what
        (Cap.violation_to_string expected)
        (Cap.violation_to_string e)

let test_null () =
  Alcotest.(check bool) "null untagged" false (Cap.tag Cap.null);
  Alcotest.(check int) "null length" 0 (Cap.length Cap.null)

let test_set_bounds_narrows () =
  let c = root () in
  let c = Cap.with_address_exn c 0x1100 in
  let d = check_ok "set_bounds" (Cap.set_bounds c ~length:0x100) in
  Alcotest.(check int) "base" 0x1100 (Cap.base d);
  Alcotest.(check int) "top" 0x1200 (Cap.top d);
  Alcotest.(check int) "cursor" 0x1100 (Cap.address d);
  Alcotest.(check bool) "tag kept" true (Cap.tag d)

let test_set_bounds_widen_fails () =
  let c = root () in
  check_err "widen" Cap.Bounds_violation (Cap.set_bounds c ~length:0x2000);
  let c = Cap.with_address_exn c 0x1f00 in
  check_err "overflow top" Cap.Bounds_violation (Cap.set_bounds c ~length:0x200)

let test_and_perms_removes_only () =
  let c = root () in
  let d = check_ok "and_perms" (Cap.and_perms c Perm.Set.read_only) in
  Alcotest.(check bool) "no store" false (Cap.has_perm Perm.Store d);
  Alcotest.(check bool) "load kept" true (Cap.has_perm Perm.Load d)

let test_untagged_derivation_fails () =
  let c = Cap.clear_tag (root ()) in
  check_err "set_bounds untagged" Cap.Tag_violation (Cap.set_bounds c ~length:8);
  check_err "and_perms untagged" Cap.Tag_violation (Cap.and_perms c perms_rw)

let sealing_key ot =
  let k = Cap.make_sealing_root ~first:Cap.Otype.data_first ~last:Cap.Otype.data_last in
  Cap.with_address_exn k ot

let test_seal_unseal_roundtrip () =
  let key = sealing_key 10 in
  let c = root () in
  let s = check_ok "seal" (Cap.seal ~key c) in
  Alcotest.(check bool) "sealed" true (Cap.is_sealed s);
  check_err "modify sealed" Cap.Seal_violation (Cap.set_bounds s ~length:8);
  check_err "move sealed" Cap.Seal_violation (Cap.with_address s 0);
  let u = check_ok "unseal" (Cap.unseal ~key s) in
  Alcotest.(check bool) "roundtrip" true (Cap.equal c u)

let test_unseal_wrong_type () =
  let k10 = sealing_key 10 and k11 = sealing_key 11 in
  let s = check_ok "seal" (Cap.seal ~key:k10 (root ())) in
  check_err "wrong key" Cap.Otype_violation (Cap.unseal ~key:k11 s)

let test_seal_requires_perm () =
  let key = Cap.exn (Cap.and_perms (sealing_key 10) (Perm.Set.of_list [ Perm.Unseal ])) in
  check_err "no SE" (Cap.Permit_violation Perm.Seal) (Cap.seal ~key (root ()))

let test_seal_otype_range () =
  let k =
    Cap.with_address_exn
      (Cap.make_root ~base:0 ~top:64 ~perms:Perm.Set.sealing)
      3
  in
  check_err "otype too small" Cap.Otype_violation (Cap.seal ~key:k (root ()))

let test_sentry () =
  let c = Cap.exn (Cap.and_perms (root ()) Perm.Set.executable) in
  let s = Cap.seal_entry_exn c Cap.Otype.Call_disable in
  Alcotest.(check bool) "sentry sealed" true (Cap.is_sealed s);
  let u = check_ok "unseal_sentry" (Cap.unseal_sentry s) in
  Alcotest.(check bool) "unsealed" false (Cap.is_sealed u);
  let data = check_ok "seal data" (Cap.seal ~key:(sealing_key 9) (root ())) in
  check_err "not a sentry" Cap.Seal_violation (Cap.unseal_sentry data)

let test_sentry_requires_exec () =
  let c = Cap.exn (Cap.and_perms (root ()) Perm.Set.read_only) in
  check_err "no EX" (Cap.Permit_violation Perm.Execute)
    (Cap.seal_entry c Cap.Otype.Call_inherit)

let test_check_access () =
  let c = Cap.exn (Cap.and_perms (root ()) perms_rw) in
  (match Cap.check_access ~perm:Perm.Load ~addr:0x1000 ~size:4 c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "in-bounds load");
  check_err "oob" Cap.Bounds_violation
    (match Cap.check_access ~perm:Perm.Load ~addr:0x1ffd ~size:4 c with
    | Ok () -> Ok c
    | Error e -> Error e);
  check_err "exec denied" (Cap.Permit_violation Perm.Execute)
    (match Cap.check_access ~perm:Perm.Execute ~addr:0x1000 ~size:4 c with
    | Ok () -> Ok c
    | Error e -> Error e)

let test_attenuate_no_lm () =
  (* Without Load_mutable on the authority, loaded caps lose write rights
     transitively (deep immutability, §2.1). *)
  let auth = Cap.exn (Cap.and_perms (root ()) Perm.Set.read_only) in
  let loaded = Cap.attenuate_loaded ~auth (root ()) in
  Alcotest.(check bool) "store stripped" false (Cap.has_perm Perm.Store loaded);
  Alcotest.(check bool) "lm stripped" false (Cap.has_perm Perm.Load_mutable loaded);
  Alcotest.(check bool) "load kept" true (Cap.has_perm Perm.Load loaded)

let test_attenuate_no_lg () =
  (* Without Load_global, loaded caps lose Global transitively (deep
     no-capture). *)
  let auth =
    Cap.exn (Cap.and_perms (root ()) (Perm.Set.remove Perm.Load_global Perm.Set.read_write))
  in
  let loaded = Cap.attenuate_loaded ~auth (root ()) in
  Alcotest.(check bool) "global stripped" false (Cap.has_perm Perm.Global loaded);
  Alcotest.(check bool) "lg stripped" false (Cap.has_perm Perm.Load_global loaded);
  Alcotest.(check bool) "store kept (lm present)" true (Cap.has_perm Perm.Store loaded)

let test_attenuate_sentry_exempt () =
  let auth = Cap.exn (Cap.and_perms (root ()) Perm.Set.read_only) in
  let sentry =
    Cap.seal_entry_exn (Cap.exn (Cap.and_perms (root ()) Perm.Set.executable))
      Cap.Otype.Call_inherit
  in
  let loaded = Cap.attenuate_loaded ~auth sentry in
  Alcotest.(check bool) "sentry keeps LM" true (Cap.has_perm Perm.Load_mutable loaded)

(* Property tests *)

let gen_perms = QCheck.Gen.(map Perm.Set.of_bits (int_bound 0xfff))

let gen_cap =
  QCheck.Gen.(
    let* base = map (fun b -> b * 8) (int_bound 1024) in
    let* len = map (fun l -> l * 8) (int_bound 512) in
    let* cursor = int_range base (base + len) in
    let* perms = gen_perms in
    return
      (Cap.with_address_exn (Cap.make_root ~base ~top:(base + len) ~perms) cursor))

let arb_cap = QCheck.make ~print:Cap.to_string gen_cap

let prop_derivation_monotone =
  QCheck.Test.make ~name:"derivation is monotone (bounds and perms only shrink)"
    ~count:500
    (QCheck.pair arb_cap (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (c, (len, bits)) ->
      let ops =
        [
          Cap.set_bounds c ~length:(min len (Cap.top c - Cap.address c));
          Cap.and_perms c (Perm.Set.of_bits bits);
          Cap.incr_address c len;
        ]
      in
      List.for_all
        (function
          | Error _ -> true
          | Ok d ->
              Cap.base d >= Cap.base c
              && Cap.top d <= Cap.top c
              && Perm.Set.subset (Cap.perms d) (Cap.perms c))
        ops)

let prop_attenuate_monotone =
  QCheck.Test.make ~name:"attenuate_loaded never adds permissions" ~count:500
    (QCheck.pair arb_cap arb_cap) (fun (auth, c) ->
      let d = Cap.attenuate_loaded ~auth c in
      Perm.Set.subset (Cap.perms d) (Cap.perms c))

let prop_seal_preserves_bounds =
  QCheck.Test.make ~name:"seal/unseal preserve bounds, cursor, perms" ~count:500
    arb_cap (fun c ->
      let key = sealing_key 12 in
      match Cap.seal ~key c with
      | Error _ -> true
      | Ok s -> (
          match Cap.unseal ~key s with
          | Error _ -> false
          | Ok u -> Cap.equal c u))

let suite =
  [
    Alcotest.test_case "null" `Quick test_null;
    Alcotest.test_case "set_bounds narrows" `Quick test_set_bounds_narrows;
    Alcotest.test_case "set_bounds cannot widen" `Quick test_set_bounds_widen_fails;
    Alcotest.test_case "and_perms removes only" `Quick test_and_perms_removes_only;
    Alcotest.test_case "untagged cannot derive" `Quick test_untagged_derivation_fails;
    Alcotest.test_case "seal/unseal roundtrip" `Quick test_seal_unseal_roundtrip;
    Alcotest.test_case "unseal wrong type" `Quick test_unseal_wrong_type;
    Alcotest.test_case "seal needs permission" `Quick test_seal_requires_perm;
    Alcotest.test_case "seal otype range" `Quick test_seal_otype_range;
    Alcotest.test_case "sentries" `Quick test_sentry;
    Alcotest.test_case "sentry needs exec" `Quick test_sentry_requires_exec;
    Alcotest.test_case "check_access" `Quick test_check_access;
    Alcotest.test_case "deep immutability" `Quick test_attenuate_no_lm;
    Alcotest.test_case "deep no-capture" `Quick test_attenuate_no_lg;
    Alcotest.test_case "sentries exempt from LM strip" `Quick test_attenuate_sentry_exempt;
    Qcheck_seed.to_alcotest prop_derivation_monotone;
    Qcheck_seed.to_alcotest prop_attenuate_monotone;
    Qcheck_seed.to_alcotest prop_seal_preserves_bounds;
  ]

let () = Alcotest.run "cheriot_cap" [ ("capability", suite) ]
