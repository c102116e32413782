(* Equivalence properties for the host-performance fast paths in
   {!Memory} (word-wide data access, tag-bitmap-indexed revoker sweeps,
   incremental granule counts).  The optimisations must be
   observationally invisible: each property drives an optimised path and
   a byte-at-a-time / sweep-everything reference over the same random
   inputs and requires identical observable state.  Seeded via
   {!Qcheck_seed} so failures replay with [QCHECK_SEED=<seed>]. *)

module Cap = Capability

let base = 0x2000_0000
let size = 16 * 1024 (* 2048 granules *)
let granules = size / Memory.granule_size
let mk () = Memory.create ~base ~size
let auth () = Cap.make_root ~base ~top:(base + size) ~perms:Perm.Set.universe

(* A capability whose base lands in granule [g] (kept off granule 0,
   where the test authority's own base lives). *)
let obj_cap g =
  let g = 1 + (g mod (granules - 1)) in
  let addr = base + (g * Memory.granule_size) in
  Cap.exn (Cap.set_bounds (Cap.with_address_exn (auth ()) addr) ~length:Memory.granule_size)

(* Random op streams are encoded as plain ints so the generator stays a
   [QCheck.list int]; [decode] turns one int into one memory operation,
   returned as [apply_fast, apply_ref] closures over the two memories. *)
type op = {
  describe : string;
  fast : Memory.t -> unit; (* word-wide / optimised path *)
  reference : Memory.t -> unit; (* byte-at-a-time equivalent *)
}

let same f = { describe = "shared"; fast = f; reference = f }

let decode n =
  let n = abs n in
  let kind = n mod 8 and r = n / 8 in
  match kind with
  | 0 | 1 | 2 ->
      (* Data store: the fast side stores [sz] bytes in one access, the
         reference side issues [sz] single-byte stores (the pre-word-wide
         code path).  Naturally aligned, so both touch the same granule
         set and must clear the same tags. *)
      let sz = [| 1; 2; 4 |].(kind) in
      let addr = base + (r mod (size - 4) land lnot (sz - 1)) in
      let v = r * 2654435761 in
      {
        describe = Printf.sprintf "store %d@%x" sz addr;
        fast = (fun m -> Memory.store_priv m ~addr ~size:sz v);
        reference =
          (fun m ->
            for i = 0 to sz - 1 do
              Memory.store_priv m ~addr:(addr + i) ~size:1 ((v lsr (8 * i)) land 0xff)
            done);
      }
  | 3 ->
      let g = r mod granules in
      let addr = base + (g * Memory.granule_size) in
      same (fun m -> Memory.store_cap_priv m ~addr (obj_cap (r / granules)))
  | 4 ->
      (* zero_priv takes the bitmap-skipping cap_clear_range path. *)
      let addr = base + (r mod (size - 256)) in
      let len = 1 + (r mod 200) in
      {
        describe = Printf.sprintf "zero %d@%x" len addr;
        fast = (fun m -> Memory.zero_priv m ~addr ~len);
        reference =
          (fun m ->
            for i = 0 to len - 1 do
              Memory.store_priv m ~addr:(addr + i) ~size:1 0
            done);
      }
  | 5 -> same (fun m -> Memory.flip_bit m ~addr:(base + (r mod size)) ~bit:r)
  | 6 -> same (fun m -> ignore (Memory.clear_tag_at m (base + (r mod size))))
  | _ ->
      let addr = base + (r mod (size - 64)) in
      let len = 1 + (r mod 64) in
      same (fun m ->
          if r land 1 = 0 then Memory.set_revoked m ~addr ~len
          else Memory.clear_revoked m ~addr ~len)

let caps_of m =
  let acc = ref [] in
  Memory.iter_caps m (fun ~addr c -> acc := (addr, Cap.address c) :: !acc);
  List.rev !acc

(* Full observable state: every byte (read through the reference-size
   path), every tag, every revocation bit. *)
let states_agree a b =
  let ok = ref true in
  for off = 0 to size - 1 do
    if
      Memory.load_priv a ~addr:(base + off) ~size:1
      <> Memory.load_priv b ~addr:(base + off) ~size:1
    then ok := false
  done;
  !ok && caps_of a = caps_of b
  && List.init granules (fun g -> Memory.is_revoked a (base + (g * 8)))
     = List.init granules (fun g -> Memory.is_revoked b (base + (g * 8)))

let ops_arb = QCheck.(list_of_size Gen.(0 -- 60) (int_bound 100_000_000))

let prop_word_byte_equiv =
  QCheck.Test.make ~name:"word-wide ops == byte-loop reference" ~count:150 ops_arb
    (fun ns ->
      let a = mk () and b = mk () in
      List.iter
        (fun n ->
          let op = decode n in
          op.fast a;
          op.reference b)
        ns;
      (* Word-size reads over the final state must also agree with byte
         composition, including over raw capability encodings. *)
      let words_agree = ref true in
      for w = 0 to (size / 4) - 1 do
        let addr = base + (w * 4) in
        let byte i = Memory.load_priv b ~addr:(addr + i) ~size:1 in
        let expect = byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24) in
        if Memory.load_priv a ~addr ~size:4 <> expect then words_agree := false
      done;
      states_agree a b && !words_agree)

let prop_checked_load_equiv =
  QCheck.Test.make ~name:"checked word load == byte composition; misaligned faults"
    ~count:300
    QCheck.(triple (int_bound (size - 8)) (int_bound 2) (int_bound 0xffffff))
    (fun (off, szi, v) ->
      let m = mk () in
      let auth = auth () in
      let sz = [| 1; 2; 4 |].(szi) in
      Memory.store_priv m ~addr:(base + (off land lnot 3)) ~size:4 v;
      let addr = base + off in
      if addr mod sz <> 0 then
        match Memory.load ~auth m ~addr ~size:sz with
        | _ -> false
        | exception Memory.Fault { cause = Cap.Bounds_violation; _ } -> true
      else
        let byte i = Memory.load ~auth m ~addr:(addr + i) ~size:1 in
        let expect = List.init sz byte |> List.mapi (fun i b -> b lsl (8 * i)) |> List.fold_left ( lor ) 0 in
        Memory.load ~auth m ~addr ~size:sz = expect)

(* Sweep equivalence: visiting only bitmap-indexed tagged granules must
   invalidate exactly what visiting every granule does. *)
let prop_sweep_bitmap_equiv =
  QCheck.Test.make ~name:"sweep via next_tagged == sweep all granules" ~count:150
    QCheck.(pair (list_of_size Gen.(0 -- 30) (int_bound 100_000)) (list_of_size Gen.(0 -- 10) (int_bound (granules - 1))))
    (fun (cap_slots, revoked_gs) ->
      let a = mk () and b = mk () in
      List.iter
        (fun n ->
          let slot = base + (n mod granules * 8) in
          List.iter (fun m -> Memory.store_cap_priv m ~addr:slot (obj_cap (n / granules))) [ a; b ])
        cap_slots;
      List.iter
        (fun g -> List.iter (fun m -> Memory.set_revoked m ~addr:(base + (g * 8)) ~len:8) [ a; b ])
        revoked_gs;
      let swept_a = ref 0 and swept_b = ref 0 in
      let rec sweep_tagged from =
        match Memory.next_tagged a ~from with
        | None -> ()
        | Some g ->
            if Memory.sweep_granule a g then incr swept_a;
            sweep_tagged (g + 1)
      in
      sweep_tagged 0;
      for g = 0 to granules - 1 do
        if Memory.sweep_granule b g then incr swept_b
      done;
      !swept_a = !swept_b && caps_of a = caps_of b)

(* [next_tagged] from every granule agrees with a scan of [iter_caps]. *)
let next_tagged_matches_scan m =
  let tagged = List.map (fun (addr, _) -> (addr - base) / 8) (caps_of m) in
  List.for_all
    (fun from ->
      Memory.next_tagged m ~from = List.find_opt (fun g -> g >= from) tagged)
    (List.init (granules + 1) Fun.id)

let prop_counts_coherent =
  QCheck.Test.make ~name:"incremental counts == recount; next_tagged == scan" ~count:150
    (QCheck.pair ops_arb (QCheck.int_bound (granules - 1)))
    (fun (ns, from) ->
      let m = mk () in
      List.iter (fun n -> (decode n).fast m) ns;
      let tagged = List.length (caps_of m) in
      let revoked = ref 0 in
      for g = 0 to granules - 1 do
        if Memory.is_revoked m (base + (g * 8)) then incr revoked
      done;
      let scan_next =
        List.find_opt (fun (addr, _) -> (addr - base) / 8 >= from) (caps_of m)
        |> Option.map (fun (addr, _) -> (addr - base) / 8)
      in
      Memory.tagged_granule_count m = tagged
      && Memory.revoked_granule_count m = !revoked
      && Memory.next_tagged m ~from = scan_next
      && next_tagged_matches_scan m
      &&
      (* and after a restore over a different tag pattern, which must
         give back exactly the snapshot's bytes, tags and revocation
         bits *)
      let restore = Memory.snapshot m in
      List.iter (fun n -> (decode ((n * 7) + 3)).fast m) ns;
      restore ();
      let replayed = mk () in
      List.iter (fun n -> (decode n).fast replayed) ns;
      next_tagged_matches_scan m && states_agree m replayed
      && List.for_all
           (fun g ->
             let addr = base + (g * Memory.granule_size) in
             Cap.equal (Memory.load_cap_priv m ~addr)
               (Memory.load_cap_priv replayed ~addr))
           (List.init granules Fun.id))

let suite =
  List.map Qcheck_seed.to_alcotest
    [
      prop_word_byte_equiv;
      prop_checked_load_equiv;
      prop_sweep_bitmap_equiv;
      prop_counts_coherent;
    ]

let () = Alcotest.run "cheriot_mem_props" [ ("mem-equivalence", suite) ]
