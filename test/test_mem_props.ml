(* Equivalence properties for the host-performance fast paths in
   {!Memory} (word-wide data access, tag-bitmap-indexed revoker sweeps,
   incremental granule counts).  The optimisations must be
   observationally invisible: each property drives an optimised path and
   a byte-at-a-time / sweep-everything reference over the same random
   inputs and requires identical observable state.  Seeded via
   {!Qcheck_seed} so failures replay with [QCHECK_SEED=<seed>]. *)

module Cap = Capability

let base = 0x2000_0000
(* Every property runs on two sizes: 16 KiB (2048 granules, 32 full
   64-granule pages) and one whose granule count is not a multiple of 64,
   so the capability store's last page and the tag summary's last word
   are partial. *)
module Props (S : sig
  val size : int
end) =
struct
  let size = S.size
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
    fast : Memory.t -> unit; (* word-wide / optimised path *)
    reference : Memory.t -> unit; (* byte-at-a-time equivalent *)
  }

  let same f = { fast = f; reference = f }

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
          let g = Memory.next_tagged a ~from in
          if g >= 0 then begin
            if Memory.sweep_granule a g then incr swept_a;
            sweep_tagged (g + 1)
          end
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
        Memory.next_tagged m ~from
        = Option.value ~default:(-1) (List.find_opt (fun g -> g >= from) tagged))
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
          |> Option.fold ~none:(-1) ~some:(fun (addr, _) -> (addr - base) / 8)
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

  (* Restore after tags land in pages that held none at snapshot time: the
     store gives such a page its own slots on the first tag, and restore
     must clear them through the live bitmap, not only in the pages that
     existed when the snapshot was taken.  The pre-snapshot image always
     tags the last granule, so the last (possibly partial) page is in it. *)
  let prop_restore_new_pages =
    QCheck.Test.make ~name:"restore clears pages created after the snapshot" ~count:150
      QCheck.(pair ops_arb (list_of_size Gen.(1 -- 24) (int_bound 100_000_000)))
      (fun (ns, later) ->
        let last = base + ((granules - 1) * Memory.granule_size) in
        let before m =
          List.iter (fun n -> (decode n).fast m) ns;
          Memory.store_cap_priv m ~addr:last (obj_cap 0)
        in
        let store_later m =
          List.iter
            (fun n ->
              let addr = base + (n mod granules * Memory.granule_size) in
              Memory.store_cap_priv m ~addr (obj_cap (n / granules)))
            later
        in
        let agree m r =
          Memory.tagged_granule_count m = Memory.tagged_granule_count r
          && caps_of m = caps_of r && next_tagged_matches_scan m && states_agree m r
          && List.for_all
               (fun g ->
                 let addr = base + (g * Memory.granule_size) in
                 Memory.next_tagged m ~from:g = Memory.next_tagged r ~from:g
                 && Cap.equal (Memory.load_cap_priv m ~addr) (Memory.load_cap_priv r ~addr))
               (List.init granules Fun.id)
        in
        let m = mk () and replayed = mk () in
        before m;
        before replayed;
        let restore = Memory.snapshot m in
        store_later m;
        restore ();
        let restored_ok = agree m replayed in
        (* the restored store keeps working: the same stores again land
           exactly as on the replayed reference *)
        store_later m;
        store_later replayed;
        restored_ok && agree m replayed)

  (* [next_tagged] answers from a memo of its last search, which every
     tag change and every restore must keep exact.  So queries here are
     interleaved with the mutations, most of them from where the
     previous query started or landed (inside the memo's span), and each
     answer is compared with the tag of every granule, read one by one
     through [load_cap_priv] rather than through the search. *)
  let prop_next_tagged_interleaved =
    QCheck.Test.make ~name:"next_tagged between mutations == granule-by-granule scan"
      ~count:100 ops_arb
      (fun ns ->
        let m = mk () in
        let snaps = ref [] in
        let last = ref 0 in
        let answer_ok from =
          let rec scan g =
            if g >= granules then -1
            else if Cap.tag (Memory.load_cap_priv m ~addr:(base + (g * Memory.granule_size)))
            then g
            else scan (g + 1)
          in
          let got = Memory.next_tagged m ~from in
          last := if got >= 0 then got else from;
          got = scan from
        in
        List.for_all
          (fun n ->
            let r = abs n / 16 in
            (match abs n mod 16 with
            | 8 | 9 -> ignore (Memory.sweep_granule m (r mod granules))
            | 10 -> snaps := Memory.snapshot m :: !snaps
            | 11 -> (
                match !snaps with
                | [] -> ()
                | l -> (List.nth l (r mod List.length l)) ())
            | 12 | 13 ->
                (* a tag just ahead of the last query *)
                let g = Int.min (granules - 1) (!last + (r mod 8)) in
                Memory.store_cap_priv m ~addr:(base + (g * Memory.granule_size))
                  (obj_cap (r / 8))
            | 14 -> ignore (Memory.clear_tag_at m (base + (!last * Memory.granule_size)))
            | 15 -> ()
            | _ -> (decode n).fast m);
            let near = Int.max 0 (!last - (r mod 5)) in
            answer_ok !last && answer_ok near && answer_ok (r mod (granules + 1)))
          ns
        && caps_of m
           = List.filter_map
               (fun g ->
                 let addr = base + (g * Memory.granule_size) in
                 let c = Memory.load_cap_priv m ~addr in
                 if Cap.tag c then Some (addr, Cap.address c) else None)
               (List.init granules Fun.id))

  (* Revocation painting and the load filter against a per-granule
     reference: a bool per granule, set or cleared one at a time for
     every granule the bytes [addr, addr + len) touch.  Ranges are
     random and unaligned, up to 4 KiB, so they cover partial first and
     last bitmap bytes, single-byte ranges and runs of whole bytes.
     After every edit each granule's bit, the count and [base_filtered]
     at a few addresses (with the filter on and off) must match; a
     snapshot taken part way is restored at the end and must give back
     its bits, its count and its filter answers. *)
  let prop_revocation_painting =
    QCheck.Test.make ~name:"revocation painting and base_filtered == per-granule reference"
      ~count:200
      QCheck.(list_of_size Gen.(0 -- 40) (int_bound 100_000_000))
      (fun ns ->
        let m = mk () in
        let reference = Array.make granules false in
        let count r = Array.fold_left (fun n b -> if b then n + 1 else n) 0 r in
        let filtered_ok m r ~filter probe =
          Memory.set_load_filter m filter;
          let expect addr =
            filter && addr >= base && addr < base + size && r.((addr - base) / 8)
          in
          List.for_all
            (fun addr -> Memory.base_filtered m addr = expect addr)
            [ base - 8; base; base + (probe mod size); base + size - 1; base + size; probe ]
          && (Memory.set_load_filter m true; true)
        in
        let agrees m r probe =
          List.for_all (fun g -> Memory.is_revoked m (base + (g * 8)) = r.(g))
            (List.init granules Fun.id)
          && Memory.revoked_granule_count m = count r
          && filtered_ok m r ~filter:true probe
          && filtered_ok m r ~filter:false probe
        in
        let snap = ref None in
        let zero_seen = ref (agrees m reference 0) in
        let edits_ok =
          List.for_all
            (fun n ->
              let addr = base + (n mod size) in
              let len = 1 + (n / size mod Int.min 4096 (base + size - addr)) in
              let v = n / 7 mod 3 <> 0 in
              (if v then Memory.set_revoked m ~addr ~len else Memory.clear_revoked m ~addr ~len);
              for g = (addr - base) / 8 to (addr + len - 1 - base) / 8 do
                reference.(g) <- v
              done;
              if n mod 5 = 0 && !snap = None then
                snap := Some (Memory.snapshot m, Array.copy reference);
              agrees m reference (n / 3))
            ns
        in
        (* Clear everything: the count returns to zero and the filter
           answers false everywhere again. *)
        Memory.clear_revoked m ~addr:base ~len:size;
        Array.fill reference 0 granules false;
        zero_seen := !zero_seen && agrees m reference 17;
        let restored_ok =
          match !snap with
          | None -> true
          | Some (restore, r) ->
              restore ();
              agrees m r 29
              &&
              (* and the restored bitmap keeps painting exactly *)
              (Memory.clear_revoked m ~addr:base ~len:size;
               Memory.revoked_granule_count m = 0
               && agrees m (Array.make granules false) 31)
        in
        edits_ok && !zero_seen && restored_ok)

  (* The alignment part of [check_aligned_filtered] at every access size
     the ISA and the allocator use and two it does not (3 and 6): an
     access faults with a bounds violation exactly when [addr mod sz] is
     non-zero, whether or not [sz] is a power of two. *)
  let prop_alignment_check =
    QCheck.Test.make ~name:"check_aligned_filtered alignment == addr mod size" ~count:500
      QCheck.(pair (int_bound (size - 16)) (int_bound 5))
      (fun (off, szi) ->
        let m = mk () in
        let auth = auth () in
        let sz = [| 1; 2; 3; 4; 6; 8 |].(szi) in
        let addr = base + off in
        let faults =
          match Memory.check_aligned_filtered m ~auth ~addr ~size:sz Memory.Read with
          | () -> false
          | exception Memory.Fault { cause = Cap.Bounds_violation; addr = a; _ } -> a = addr
        in
        faults = (sz > 1 && addr mod sz <> 0))

  let suite =
    List.map Qcheck_seed.to_alcotest
      [
        prop_revocation_painting;
        prop_alignment_check;
        prop_word_byte_equiv;
        prop_checked_load_equiv;
        prop_sweep_bitmap_equiv;
        prop_counts_coherent;
        prop_restore_new_pages;
        prop_next_tagged_interleaved;
      ]
end

module Full = Props (struct
  let size = 16 * 1024
end)

module Partial = Props (struct
  let size = (16 * 1024) + (40 * 8) (* 2088 granules: 32 pages + 40 *)
end)

let () =
  Alcotest.run "cheriot_mem_props"
    [ ("mem-equivalence", Full.suite); ("mem-partial", Partial.suite) ]
