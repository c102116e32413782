(* Property-based stress of the shared heap: randomized operation
   sequences (allocate / free / claim / release) must preserve the
   allocator's core invariants.  Randomness comes from the explicit
   seed in [Qcheck_seed], printed on failure for exact replay. *)

module Cap = Capability
module F = Firmware
module A = Allocator

let firmware () =
  System.image ~name:"alloc-props"
    ~sealed_objects:
      [
        A.alloc_capability ~name:"qa" ~quota:16384;
        A.alloc_capability ~name:"qb" ~quota:16384;
      ]
    ~threads:[ F.thread ~name:"main" ~comp:"app" ~entry:"main" ~stack_size:2048 () ]
    [
      F.compartment "app" ~globals_size:32
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
        ~imports:
          (A.client_imports
          @ Scheduler.client_imports @ Queue_comp.client_imports
          @ [ F.Static_sealed { target = "qa" }; F.Static_sealed { target = "qb" } ]);
    ]

let run_ops main =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let out = ref None in
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      out := Some (main sys ctx);
      Cap.null);
  System.run ~until_cycles:4_000_000_000 sys;
  Option.get !out

let quota ctx name =
  let l = Loader.find_comp (Kernel.loader ctx.Kernel.kernel) "app" in
  Machine.load_cap (Kernel.machine ctx.Kernel.kernel) ~auth:l.Loader.lc_import_cap
    ~addr:(Loader.import_slot_addr l (Loader.import_slot l ("sealed:" ^ name)))

type op = Alloc of int | Free of int | Claim of int | Release of int | Sweep

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 5 60)
      (frequency
         [
           (4, map (fun s -> Alloc (8 + (s mod 700))) nat);
           (3, map (fun i -> Free i) (int_bound 20));
           (1, map (fun i -> Claim i) (int_bound 20));
           (1, map (fun i -> Release i) (int_bound 20));
           (1, return Sweep);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Alloc n -> Printf.sprintf "A%d" n
         | Free i -> Printf.sprintf "F%d" i
         | Claim i -> Printf.sprintf "C%d" i
         | Release i -> Printf.sprintf "R%d" i
         | Sweep -> "S")
       ops)

(* Execute an op sequence; track live allocations and claims; then check
   invariants. *)
let run_sequence ops =
  run_ops (fun sys ctx ->
      let machine = sys.System.machine in
      let qa = quota ctx "qa" and qb = quota ctx "qb" in
      let live = ref [] in
      (* (cap, claimed) list *)
      let nth i = List.nth_opt !live (if !live = [] then 0 else i mod List.length !live) in
      List.iter
        (fun op ->
          match op with
          | Alloc size -> (
              match A.allocate ctx ~alloc_cap:qa size with
              | Ok c -> live := (c, false) :: !live
              | Error _ -> ())
          | Free i -> (
              match nth i with
              | Some (c, false) ->
                  (match A.free ctx ~alloc_cap:qa c with
                  | Ok () -> live := List.filter (fun (c', _) -> c' != c) !live
                  | Error _ -> ())
              | _ -> ())
          | Claim i -> (
              match nth i with
              | Some (c, false) ->
                  (match A.claim ctx ~alloc_cap:qb c with
                  | Ok () ->
                      live :=
                        List.map (fun (c', cl) -> if c' == c then (c', true) else (c', cl)) !live
                  | Error _ -> ())
              | _ -> ())
          | Release i -> (
              match nth i with
              | Some (c, true) ->
                  ignore (A.free ctx ~alloc_cap:qb c);
                  live :=
                    List.map (fun (c', cl) -> if c' == c then (c', false) else (c', cl)) !live
              | _ -> ())
          | Sweep ->
              Machine.revoker_kick machine;
              Machine.run_revoker_to_completion machine)
        ops;
      (* Invariant 1: all live allocations are usable and disjoint. *)
      let disjoint =
        let rec check = function
          | [] -> true
          | (c, _) :: rest ->
              List.for_all
                (fun (c', _) ->
                  Cap.top c <= Cap.base c' || Cap.top c' <= Cap.base c)
                rest
              && check rest
        in
        check !live
      in
      let usable =
        List.for_all
          (fun (c, _) ->
            match Machine.store machine ~auth:c ~addr:(Cap.base c) ~size:4 1 with
            | () -> true
            | exception Memory.Fault _ -> false)
          !live
      in
      (* Invariant 2: freeing everything refunds both quotas fully. *)
      List.iter
        (fun (c, claimed) ->
          if claimed then ignore (A.free ctx ~alloc_cap:qb c);
          ignore (A.free ctx ~alloc_cap:qa c))
        !live;
      let qa_back = A.quota_remaining ctx ~alloc_cap:qa = Ok 16384 in
      let qb_back = A.quota_remaining ctx ~alloc_cap:qb = Ok 16384 in
      disjoint && usable && qa_back && qb_back)

let prop_alloc_invariants =
  QCheck.Test.make ~name:"randomized heap ops preserve invariants" ~count:25
    (QCheck.make ~print:print_ops gen_ops)
    run_sequence

let prop_no_live_overlap_with_reuse =
  QCheck.Test.make ~name:"reused memory never overlaps live allocations" ~count:15
    (QCheck.make QCheck.Gen.(list_size (int_range 10 40) (int_range 8 256)))
    (fun sizes ->
      run_ops (fun sys ctx ->
          let machine = sys.System.machine in
          let qa = quota ctx "qa" in
          (* Alternate: allocate two, free the first, sweep, allocate
             again — the fresh one must not alias the survivor. *)
          let ok = ref true in
          List.iter
            (fun size ->
              match
                (A.allocate ctx ~alloc_cap:qa size, A.allocate ctx ~alloc_cap:qa size)
              with
              | Ok a, Ok b ->
                  ignore (A.free ctx ~alloc_cap:qa a);
                  Machine.revoker_kick machine;
                  Machine.run_revoker_to_completion machine;
                  (match A.allocate ctx ~alloc_cap:qa size with
                  | Ok c ->
                      if Cap.base c < Cap.top b && Cap.base b < Cap.top c then
                        ok := false;
                      ignore (A.free ctx ~alloc_cap:qa c)
                  | Error _ -> ());
                  ignore (A.free ctx ~alloc_cap:qa b)
              | Ok a, Error _ -> ignore (A.free ctx ~alloc_cap:qa a)
              | Error _, _ -> ())
            sizes;
          !ok))

(* The allocator's own tables against the heap it manages, step by step:
   allocate, free, claim, free_all and sealed objects under two quotas,
   revoker ticks, and machine snapshots and restores in between.  The
   operations run outside any thread, through the context the app's
   entry handed out (with no thread current, the kernel defers its
   preemption), so that the world is quiescent at every step and
   [Machine.snapshot] can be taken anywhere.  After every step the
   table must pass the allocator's integrity and quota audits and list
   exactly the heap walk's live chunks. *)
type top_op =
  | T_alloc of int * int  (** quota, size *)
  | T_free of int * int  (** quota, victim *)
  | T_claim of int * int
  | T_free_all of int
  | T_sealed of int  (** size *)
  | T_free_sealed of int
  | T_free_stale of int  (** a reference already freed *)
  | T_tick of int  (** cycles *)
  | T_sweep  (** a whole revocation pass *)
  | T_snapshot
  | T_restore of int

let gen_top_ops =
  QCheck.Gen.(
    list_size (int_range 10 80)
      (frequency
         [
           (5, map2 (fun q s -> T_alloc (q, 8 + (s mod 900))) (int_bound 1) nat);
           (3, map2 (fun q i -> T_free (q, i)) (int_bound 1) (int_bound 30));
           (2, map2 (fun q i -> T_claim (q, i)) (int_bound 1) (int_bound 30));
           (1, map (fun q -> T_free_all q) (int_bound 1));
           (1, map (fun s -> T_sealed (1 + (s mod 200))) nat);
           (1, map (fun i -> T_free_sealed i) (int_bound 30));
           (1, map (fun i -> T_free_stale i) (int_bound 30));
           (2, map (fun n -> T_tick (1 + (n mod 100_000))) nat);
           (1, return T_sweep);
           (1, return T_snapshot);
           (1, map (fun i -> T_restore i) (int_bound 30));
         ]))

let print_top_ops ops =
  String.concat ";"
    (List.map
       (function
         | T_alloc (q, n) -> Printf.sprintf "A%d:%d" q n
         | T_free (q, i) -> Printf.sprintf "F%d:%d" q i
         | T_claim (q, i) -> Printf.sprintf "C%d:%d" q i
         | T_free_all q -> Printf.sprintf "X%d" q
         | T_sealed n -> Printf.sprintf "S%d" n
         | T_free_sealed i -> Printf.sprintf "U%d" i
         | T_free_stale i -> Printf.sprintf "D%d" i
         | T_tick n -> Printf.sprintf "T%d" n
         | T_sweep -> "W"
         | T_snapshot -> "P"
         | T_restore i -> Printf.sprintf "R%d" i)
       ops)

(* The audits: [Error] names the first one that fails. *)
let audit sys ~quotas =
  let alloc = sys.System.alloc in
  let live_chunks =
    List.filter_map
      (fun (c, size, st) -> if st = `Live then Some (c, size) else None)
      (A.heap_chunks alloc)
  in
  let regions = A.live_payload_regions alloc in
  match (A.check_integrity alloc, A.check_quota_conservation alloc ~quotas) with
  | Error e, _ -> Error ("integrity: " ^ e)
  | _, Error e -> Error ("quota conservation: " ^ e)
  | Ok (), Ok () ->
      (* Each live chunk is one table entry: its payload follows the
         chunk's 16-byte header, and the chunk holds the payload plus
         at most an unsplittable tail. *)
      if
        List.length regions = List.length live_chunks
        && List.for_all2
             (fun (base, size) (c, csize) ->
               base = c + 16 && size <= csize && csize < size + 24)
             regions live_chunks
      then Ok ()
      else Error "live_payload_regions disagrees with the heap walk"

let run_top_ops ops =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let k = sys.System.kernel in
  let saved = ref None in
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      saved := Some (ctx, Result.get_ok (A.token_key_new ctx));
      Cap.null);
  System.run ~until_cycles:4_000_000_000 sys;
  let ctx, key = Option.get !saved in
  let qcap = [| Kernel.import_cap k ~comp:"app" "sealed:qa"; Kernel.import_cap k ~comp:"app" "sealed:qb" |] in
  let quotas = [ ("qa", Cap.base qcap.(0) + 8); ("qb", Cap.base qcap.(1) + 8) ] in
  (* What the test holds: (capability, quota) per reference, sealed
     objects and freed references; rolled back with the machine. *)
  let refs = ref [] and sealed = ref [] and freed = ref [] in
  let snaps = ref [] in
  let pick l i = match l with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  let step op =
    match op with
    | T_alloc (q, n) -> (
        match A.allocate ctx ~alloc_cap:qcap.(q) n with
        | Ok c -> refs := (c, q) :: !refs
        | Error _ -> ())
    | T_free (q, i) -> (
        match pick !refs i with
        | Some (c, q') -> (
            (* Sometimes under the other quota, which only succeeds when
               that quota holds a reference too (a claim); the reference
               released is the one of the quota used. *)
            let q = if q = 0 then q' else 1 - q' in
            match A.free ctx ~alloc_cap:qcap.(q) c with
            | Ok () ->
                let rec drop = function
                  | [] -> []
                  | ((c', q'') as r) :: rest ->
                      if Cap.base c' = Cap.base c && q'' = q then rest else r :: drop rest
                in
                refs := drop !refs;
                freed := (c, q) :: !freed
            | Error _ -> ())
        | None -> ())
    | T_free_stale i -> (
        (* Refused unless a live reference or sealed object shares its
           base (free finds an allocation by its base alone). *)
        match pick !freed i with
        | Some (c, q) ->
            let reused =
              List.exists (fun c' -> Cap.base c' = Cap.base c) (List.map fst !refs @ !sealed)
            in
            if (not reused) && A.free ctx ~alloc_cap:qcap.(q) c = Ok () then
              QCheck.Test.fail_reportf "a freed reference at 0x%x was freed again"
                (Cap.base c)
        | None -> ())
    | T_claim (q, i) -> (
        match pick !refs i with
        | Some (c, _) -> (
            match A.claim ctx ~alloc_cap:qcap.(q) c with
            | Ok () -> refs := (c, q) :: !refs
            | Error _ -> ())
        | None -> ())
    | T_free_all q -> (
        match A.free_all ctx ~alloc_cap:qcap.(q) with
        | Ok _ -> refs := List.filter (fun (_, q') -> q' <> q) !refs
        | Error _ -> ())
    | T_sealed n -> (
        match A.allocate_sealed ctx ~alloc_cap:qcap.(0) ~key n with
        | Ok s -> sealed := s :: !sealed
        | Error _ -> ())
    | T_free_sealed i -> (
        match pick !sealed i with
        | Some s -> (
            match A.free_sealed ctx ~alloc_cap:qcap.(0) ~key s with
            | Ok () -> sealed := List.filter (fun s' -> s' != s) !sealed
            | Error _ -> ())
        | None -> ())
    | T_tick n -> Machine.tick machine n
    | T_sweep ->
        Machine.revoker_kick machine;
        Machine.run_revoker_to_completion machine
    | T_snapshot -> snaps := (Machine.snapshot machine, !refs, !sealed, !freed) :: !snaps
    | T_restore i -> (
        match pick !snaps i with
        | Some (snap, r, s, f) ->
            Machine.restore machine snap;
            refs := r;
            sealed := s;
            freed := f
        | None -> ())
  in
  let rec go = function
    | [] -> true
    | op :: rest -> (
        step op;
        match audit sys ~quotas with
        | Ok () -> go rest
        | Error e ->
            QCheck.Test.fail_reportf "after %s: %s" (print_top_ops [ op ]) e)
  in
  go ops

let prop_tables_audit_every_step =
  QCheck.Test.make ~name:"allocator tables match the heap after every step" ~count:60
    (QCheck.make ~print:print_top_ops gen_top_ops)
    run_top_ops

let suite =
  [
    Qcheck_seed.to_alcotest prop_alloc_invariants;
    Qcheck_seed.to_alcotest prop_no_live_overlap_with_reuse;
    Qcheck_seed.to_alcotest prop_tables_audit_every_step;
  ]

let () = Alcotest.run "cheriot_alloc_props" [ ("heap-properties", suite) ]
