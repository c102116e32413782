(* Property-based tests of the capability algebra (§2.1): every
   derivation chain is monotone — bounds only narrow, permissions only
   shrink, and no sequence of operations (including a seal/unseal
   round-trip or a load-time attenuation) ever regains authority. *)

module Cap = Capability

let root =
  Cap.make_root ~base:0x2000_0000 ~top:0x2000_4000 ~perms:Perm.Set.universe

(* A derivation step, driven by generator-supplied integers that are
   folded into (mostly) legal parameters; illegal ones exercise the
   refusal paths and leave the chain where it was. *)
type op =
  | Narrow of int * int  (** move cursor, then set_bounds *)
  | Mask of int  (** and_perms with this bitmask *)
  | Move of int  (** reposition the cursor *)

let pp_op = function
  | Narrow (a, b) -> Printf.sprintf "N(%d,%d)" a b
  | Mask m -> Printf.sprintf "M(0x%x)" m
  | Move a -> Printf.sprintf "V(%d)" a

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (frequency
         [
           (3, map2 (fun a b -> Narrow (a, b)) nat nat);
           (2, map (fun m -> Mask m) (int_bound 0xfff));
           (2, map (fun a -> Move a) nat);
         ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map pp_op ops))
    gen_ops

let apply c = function
  | Narrow (a, b) -> (
      let len = Cap.length c in
      let off = if len = 0 then 0 else a mod (len + 1) in
      match Cap.with_address c (Cap.base c + off) with
      | Error _ -> c
      | Ok c' -> (
          let room = Cap.top c' - Cap.address c' in
          let l = if room <= 0 then 0 else b mod (room + 1) in
          match Cap.set_bounds c' ~length:l with Error _ -> c' | Ok r -> r))
  | Mask m -> (
      match Cap.and_perms c (Perm.Set.of_bits m) with
      | Error _ -> c
      | Ok r -> r)
  | Move a -> (
      let len = Cap.length c in
      let off = if len = 0 then 0 else a mod len in
      match Cap.with_address c (Cap.base c + off) with Error _ -> c | Ok r -> r)

let narrower ~than:c c' =
  Cap.base c' >= Cap.base c
  && Cap.top c' <= Cap.top c
  && Perm.Set.subset (Cap.perms c') (Cap.perms c)

let prop_chain_monotone =
  QCheck.Test.make ~name:"derivation chains never widen bounds or perms"
    ~count:500 arb_ops (fun ops ->
      let rec go c = function
        | [] -> true
        | op :: rest ->
            let c' = apply c op in
            narrower ~than:c c' && narrower ~than:root c' && go c' rest
      in
      go root ops)

let prop_set_bounds_exact =
  QCheck.Test.make ~name:"set_bounds is exact and contained or refuses"
    ~count:500
    QCheck.(pair (int_bound 0x7fff) (int_bound 0x7fff))
    (fun (a, b) ->
      match Cap.with_address root (0x2000_0000 + a) with
      | Error _ -> a >= 0x4000 (* only an out-of-bounds cursor may refuse *)
      | Ok c -> (
          match Cap.set_bounds c ~length:b with
          | Error _ -> Cap.address c + b > Cap.top c
          | Ok r ->
              Cap.base r = Cap.address c
              && Cap.top r = Cap.address c + b
              && Cap.top r <= Cap.top root))

let prop_and_perms_is_intersection =
  QCheck.Test.make ~name:"and_perms computes exact intersections" ~count:500
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (m1, m2) ->
      let s1 = Perm.Set.of_bits m1 and s2 = Perm.Set.of_bits m2 in
      match Cap.and_perms root s1 with
      | Error _ -> false
      | Ok c1 -> (
          match Cap.and_perms c1 s2 with
          | Error _ -> false
          | Ok c2 -> Perm.Set.equal (Cap.perms c2) (Perm.Set.inter s1 s2)))

let prop_attenuate_loaded_monotone =
  QCheck.Test.make
    ~name:"load-time attenuation only removes permissions" ~count:500
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (am, lm) ->
      let auth = Cap.exn (Cap.and_perms root (Perm.Set.of_bits am)) in
      let loaded = Cap.exn (Cap.and_perms root (Perm.Set.of_bits lm)) in
      let att = Cap.attenuate_loaded ~auth loaded in
      Perm.Set.subset (Cap.perms att) (Cap.perms loaded)
      && (Perm.Set.mem Perm.Load_mutable (Cap.perms auth)
         || not (Perm.Set.mem Perm.Store (Cap.perms att)))
      && (Perm.Set.mem Perm.Load_global (Cap.perms auth)
         || not (Perm.Set.mem Perm.Global (Cap.perms att))))

let prop_seal_roundtrip_preserves =
  QCheck.Test.make
    ~name:"seal/unseal round-trips without gaining authority" ~count:500
    QCheck.(pair (int_bound 100) (int_bound 0xffff))
    (fun (ot_seed, m) ->
      let key_root =
        Cap.make_sealing_root ~first:Cap.Otype.data_first
          ~last:Cap.Otype.data_last
      in
      let ot =
        Cap.Otype.data_first
        + (ot_seed mod (Cap.Otype.data_last - Cap.Otype.data_first + 1))
      in
      let key = Cap.exn (Cap.with_address key_root ot) in
      let c = Cap.exn (Cap.and_perms root (Perm.Set.of_bits m)) in
      match Cap.seal ~key c with
      | Error _ -> false
      | Ok s -> (
          Cap.is_sealed s
          &&
          match Cap.unseal ~key s with
          | Error _ -> false
          | Ok u ->
              Cap.base u = Cap.base c
              && Cap.top u = Cap.top c
              && Perm.Set.equal (Cap.perms u) (Cap.perms c)
              && not (Cap.is_sealed u)))

(* ---- packed representation ({!Packed_cap}) ------------------------ *)

(* The interpreter's hot loop works on the flat packed encoding; these
   properties pin the two contracts DESIGN.md states: pack/unpack is an
   exact bijection, and every in-place derivation helper and unchecked
   accessor agrees with the boxed [Capability] operation it mirrors —
   same success results, same violations, including when dst aliases
   src and when dst is register 0 — plus the whole-file save, restore
   and clear. *)

module Pk = Superblock.Packed_cap

let sentries =
  [
    Cap.Otype.Call_inherit;
    Cap.Otype.Call_disable;
    Cap.Otype.Call_enable;
    Cap.Otype.Return_disable;
    Cap.Otype.Return_enable;
  ]

(* Build a capability from five generator seeds, covering the
   representation's corners: tagged and untagged, unsealed / sentry /
   data-sealed, zero-length, empty and full permission sets, cursor
   out of bounds (legal for unsealed capabilities). *)
let build_cap (base_s, len_s, perm_s, cur_s, shape) =
  let base = 0x2000_0000 + (base_s land 0xfff) * 4 in
  let len = if shape mod 5 = 0 then 0 else len_s land 0xfff in
  let perms =
    match perm_s mod 7 with
    | 0 -> Perm.Set.universe
    | 1 -> Perm.Set.of_bits 0
    | _ -> Perm.Set.of_bits (perm_s land 0xfff)
  in
  let root = Cap.make_root ~base ~top:(base + len) ~perms in
  let c = Cap.with_address_unsealed root (base + (cur_s mod (len + 17)) - 8) in
  match shape mod 4 with
  | 0 -> c
  | 1 -> Cap.clear_tag c
  | 2 -> (
      (* sentry: needs Execute and an in-bounds cursor; keep [c] when
         sealing refuses so refusal corners stay in the distribution *)
      match Cap.seal_entry c (List.nth sentries (len_s mod 5)) with
      | Ok s -> s
      | Error _ -> c)
  | _ -> (
      let ot =
        Cap.Otype.data_first
        + (cur_s mod (Cap.Otype.data_last - Cap.Otype.data_first + 1))
      in
      let key =
        Cap.with_address_unsealed
          (Cap.make_sealing_root ~first:Cap.Otype.data_first
             ~last:Cap.Otype.data_last)
          ot
      in
      match Cap.seal ~key c with Ok s -> s | Error _ -> c)

let arb_cap =
  QCheck.make
    ~print:(fun seeds -> Cap.to_string (build_cap seeds))
    QCheck.Gen.(
      map
        (fun (a, b, (c, d, e)) -> (a, b, c, d, e))
        (triple nat nat (triple nat nat nat)))

let prop_pack_unpack_bijection =
  QCheck.Test.make ~name:"packed: unpack (pack c) = c; register 0 is inert"
    ~count:1000 arb_cap (fun seeds ->
      let c = build_cap seeds in
      let pk = Pk.make 2 in
      Pk.pack pk 1 c;
      Cap.equal (Pk.unpack pk 1) c
      (* register 0 discards writes and always reads NULL *)
      && (Pk.pack pk 0 c;
          Cap.equal (Pk.unpack pk 0) Cap.null)
      (* the meta word round-trips through the architectural encoding *)
      && Cap.equal
           (Cap.of_meta ~meta:(Cap.meta c) ~base:(Cap.base c)
              ~top:(Cap.top c) ~cursor:(Cap.address c))
           c)

let prop_attenuate_meta_equiv =
  QCheck.Test.make ~name:"packed: load-time attenuation on meta == on the record"
    ~count:1000
    (QCheck.pair arb_cap (QCheck.int_bound 0xfff))
    (fun (seeds, am) ->
      let c = build_cap seeds and ps = Perm.Set.of_bits am in
      Cap.attenuate_loaded_meta ps (Cap.meta c)
      = Cap.meta (Cap.attenuate_loaded_perms ps c))

(* One packed-file operation, driven by generator seeds: the in-place
   derivation helpers, plus the plain writes the compiled blocks make
   through the unchecked accessors. *)
type pkop =
  | PIncr of int
  | PSetAddr of int  (** base-relative target *)
  | PSetBounds of int
  | PAndPerms of int
  | PClearTag
  | PSeal of int  (** key-cursor offset around the data-otype range *)
  | PUnseal of int
  | PSealEntry of int
  | PCopy
  | PSetInt of int
  | PPackAt of int  (** base-relative cursor *)
  | PSetCursor of int  (** base-relative cursor, on a copy of the source *)

let pp_pkop = function
  | PIncr d -> Printf.sprintf "incr %d" d
  | PSetAddr d -> Printf.sprintf "setaddr %+d" d
  | PSetBounds l -> Printf.sprintf "setbounds %d" l
  | PAndPerms m -> Printf.sprintf "andperms 0x%x" m
  | PClearTag -> "cleartag"
  | PSeal k -> Printf.sprintf "seal key+%d" k
  | PUnseal k -> Printf.sprintf "unseal key+%d" k
  | PSealEntry k -> Printf.sprintf "sealentry %d" k
  | PCopy -> "copy"
  | PSetInt v -> Printf.sprintf "setint %d" v
  | PPackAt d -> Printf.sprintf "packat %+d" d
  | PSetCursor d -> Printf.sprintf "copy; setcursor %+d" d

let build_pkop (k, arg) =
  match k mod 12 with
  | 0 -> PIncr ((arg land 0x7ff) - 0x400)
  | 1 -> PSetAddr ((arg land 0x1fff) - 0x100)
  | 2 -> PSetBounds ((arg land 0x1fff) - 8)
  | 3 -> PAndPerms (arg land 0xffff)
  | 4 -> PClearTag
  | 5 -> PSeal (arg mod 11)
  | 6 -> PUnseal (arg mod 11)
  | 7 -> PSealEntry (arg mod 5)
  | 8 -> PCopy
  | 9 -> PSetInt (arg - 0x8000)
  | 10 -> PPackAt ((arg land 0x1fff) - 0x100)
  | _ -> PSetCursor ((arg land 0x1fff) - 0x100)

(* A key whose cursor lands in (and just outside) the data-otype range,
   so both the success path and the otype/bounds refusals are hit. *)
let seal_key off =
  Cap.with_address_unsealed
    (Cap.make_sealing_root ~first:Cap.Otype.data_first
       ~last:Cap.Otype.data_last)
    (Cap.Otype.data_first + off - 1)

(* Apply [op] to a 4-register file holding [c] in [src] (keys go in
   register 3): (packed result code, what the boxed algebra says). *)
let apply_pkop pk op c ~dst ~src =
  match op with
  | PIncr d -> (Pk.incr_addr pk ~dst ~src d, Cap.incr_address c d)
  | PSetAddr d ->
      (Pk.set_addr pk ~dst ~src (Cap.base c + d), Cap.with_address c (Cap.base c + d))
  | PSetBounds l -> (Pk.set_bounds pk ~dst ~src l, Cap.set_bounds c ~length:l)
  | PAndPerms m ->
      let s = Perm.Set.of_bits m in
      (Pk.and_perms pk ~dst ~src s, Cap.and_perms c s)
  | PClearTag ->
      Pk.clear_tag pk ~dst ~src;
      (Pk.ok, Ok (Cap.clear_tag c))
  | PSeal off ->
      let key = seal_key off in
      Pk.pack pk 3 key;
      (Pk.seal pk ~dst ~src ~key:3, Cap.seal ~key c)
  | PUnseal off ->
      let key = seal_key off in
      Pk.pack pk 3 key;
      (Pk.unseal pk ~dst ~src ~key:3, Cap.unseal ~key c)
  | PSealEntry k ->
      let kind = List.nth sentries k in
      (Pk.seal_entry pk ~dst ~src (Cap.sentry_code kind), Cap.seal_entry c kind)
  | PCopy ->
      Pk.ucopy pk ~dst ~src;
      (Pk.ok, Ok c)
  | PSetInt v ->
      Pk.uset_int pk dst v;
      (Pk.ok, Ok (Cap.with_address_unsealed Cap.null v))
  | PPackAt d ->
      let a = Cap.base c + d in
      Pk.pack_at pk dst c a;
      (Pk.ok, Ok (Cap.with_address_unsealed c a))
  | PSetCursor d ->
      let a = Cap.base c + d in
      Pk.ucopy pk ~dst ~src;
      Pk.uset_cursor pk dst a;
      (Pk.ok, Ok (Cap.with_address_unsealed c a))

(* Every read path — checked, unchecked and boxed — sees [c] in [r]. *)
let reads_as pk r c =
  Cap.equal (Pk.unpack pk r) c
  && Pk.meta pk r = Cap.meta c
  && Pk.umeta pk r = Cap.meta c
  && Pk.base pk r = Cap.base c
  && Pk.ubase pk r = Cap.base c
  && Pk.top pk r = Cap.top c
  && Pk.utop pk r = Cap.top c
  && Pk.cursor pk r = Cap.address c
  && Pk.ucursor pk r = Cap.address c

let arb_pk_case =
  QCheck.make
    ~print:(fun (seeds, opseed, alias) ->
      Printf.sprintf "%s; %s; dst%s=src" (Cap.to_string (build_cap seeds))
        (pp_pkop (build_pkop opseed))
        (if alias then "" else "<>"))
    QCheck.Gen.(
      triple
        (map
           (fun (a, b, (c, d, e)) -> (a, b, c, d, e))
           (triple nat nat (triple nat nat nat)))
        (pair nat nat) bool)

let prop_packed_derivation_equiv =
  QCheck.Test.make
    ~name:"packed: every in-place helper agrees with the boxed operation"
    ~count:3000 arb_pk_case (fun (seeds, opseed, alias) ->
      let c = build_cap seeds in
      let pk = Pk.make 4 in
      Pk.pack pk 1 c;
      let src = 1 in
      let dst = if alias then 1 else 2 in
      match apply_pkop pk (build_pkop opseed) c ~dst ~src with
      | code, Ok r ->
          code = Pk.ok
          (* read-after-write of every slot, on every read path *)
          && reads_as pk dst r
          (* a non-aliased source is left untouched *)
          && (alias || reads_as pk src c)
      | code, Error v ->
          code <> Pk.ok
          && Pk.violation code = v
          (* on refusal the register file is unchanged (the interpreter
             traps before any write) *)
          && reads_as pk src c)

let prop_packed_reg0_discards =
  QCheck.Test.make
    ~name:"packed: every write to register 0 is discarded"
    ~count:1000 arb_pk_case (fun (seeds, opseed, _) ->
      let c = build_cap seeds in
      let pk = Pk.make 4 in
      Pk.pack pk 1 c;
      let code, boxed = apply_pkop pk (build_pkop opseed) c ~dst:0 ~src:1 in
      (* same verdict as a real destination, no effect *)
      (match boxed with
      | Ok _ -> code = Pk.ok
      | Error v -> code <> Pk.ok && Pk.violation code = v)
      && reads_as pk 0 Cap.null
      && reads_as pk 1 c
      && (Pk.pack pk 0 c;
          reads_as pk 0 Cap.null))

(* The whole-file copy, restore and reset that interpreter snapshots and
   compartment calls use. *)
let prop_packed_file_roundtrip =
  let seeds =
    QCheck.Gen.(
      map
        (fun (a, b, (c, d, e)) -> (a, b, c, d, e))
        (triple nat nat (triple nat nat nat)))
  in
  QCheck.Test.make
    ~name:"packed: save/restore round-trips the file; clear resets it"
    ~count:300
    (QCheck.make QCheck.Gen.(pair (list_repeat 15 seeds) (list_repeat 15 seeds)))
    (fun (s1, s2) ->
      let cs = Array.of_list (Cap.null :: List.map build_cap s1) in
      let ds = Array.of_list (Cap.null :: List.map build_cap s2) in
      let all pk f = List.for_all (fun r -> f pk r) (List.init 16 Fun.id) in
      let pk = Pk.make 16 in
      Array.iteri (fun r c -> Pk.pack pk r c) cs;
      let saved = Pk.save pk in
      (* the copy shares nothing: overwriting and clearing the live
         file leaves it intact *)
      Array.iteri (fun r d -> Pk.pack pk r d) ds;
      all pk (fun pk r -> reads_as pk r ds.(r))
      && all saved (fun s r -> reads_as s r cs.(r))
      && (Pk.restore pk ~from:saved;
          all pk (fun pk r -> reads_as pk r cs.(r)))
      && (Pk.clear pk;
          all pk (fun pk r -> reads_as pk r Cap.null)
          && all saved (fun s r -> reads_as s r cs.(r)))
      && (Pk.restore pk ~from:saved;
          all pk (fun pk r -> reads_as pk r cs.(r))))

(* [to_string] renders without a formatter; it must print [pp]'s bytes
   for every otype, every permission set, either tag and address words
   anywhere in the int range (negative ones print as [%x] does). *)
let otype_codes = [ 0; 1; 2; 3; 4; 5; 9; 10; 11; 12; 13; 14; 15 ]

(* The formatter-based printer [Cap.to_string] replaced: the goldens
   were written with it, so the new renderer must print its bytes. *)
let formatted c =
  Fmt.str "%s[0x%x..0x%x)@@0x%x %a %a"
    (if Cap.tag c then "cap" else "CAP!untagged")
    c.Cap.base c.Cap.top c.Cap.cursor
    Fmt.(list ~sep:nop Perm.pp)
    (Perm.Set.to_list (Cap.perms c))
    Cap.Otype.pp (Cap.otype c)

let prop_to_string_is_pp =
  QCheck.Test.make ~name:"to_string prints the formatter's bytes" ~count:500
    (QCheck.make
       ~print:(fun (perms, (base, top, cursor)) ->
         Printf.sprintf "perms=0x%x base=%d top=%d cursor=%d" perms base top cursor)
       QCheck.Gen.(
         pair (int_bound 0xfff)
           (let word = oneof [ int; nat; small_signed_int ] in
            triple word word word)))
    (fun (perms, (base, top, cursor)) ->
      List.for_all
        (fun tag ->
          List.for_all
            (fun ot ->
              let meta = Bool.to_int tag lor (perms lsl 1) lor (ot lsl 13) in
              let c = Cap.of_meta ~meta ~base ~top ~cursor in
              Cap.to_string c = formatted c && Fmt.str "%a" Cap.pp c = formatted c)
            otype_codes)
        [ true; false ])

let suite =
  List.map Qcheck_seed.to_alcotest
    [
      prop_chain_monotone;
      prop_set_bounds_exact;
      prop_and_perms_is_intersection;
      prop_attenuate_loaded_monotone;
      prop_seal_roundtrip_preserves;
      prop_pack_unpack_bijection;
      prop_attenuate_meta_equiv;
      prop_packed_derivation_equiv;
      prop_packed_reg0_discards;
      prop_packed_file_roundtrip;
      prop_to_string_is_pp;
    ]
  @ [
      Alcotest.test_case "to_string on every permission set"
        `Quick (fun () ->
          for perms = 0 to 0xfff do
            let c =
              Cap.of_meta ~meta:(1 lor (perms lsl 1)) ~base:0x2000_0000
                ~top:0x2000_0100 ~cursor:0x2000_0010
            in
            Alcotest.(check string) (Printf.sprintf "perms 0x%x" perms)
              (formatted c) (Cap.to_string c)
          done);
    ]

let () = Alcotest.run "cheriot_cap_props" [ ("capability-algebra", suite) ]
