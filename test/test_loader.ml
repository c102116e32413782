(* Loader invariants (§3.1.1): layout soundness and the guarantee that
   underpins auditing (§4) — after boot, the only capabilities granting
   access outside a compartment's own memory live in import tables. *)

module Cap = Capability
module F = Firmware

let sample_firmware () =
  F.create ~name:"loader-test"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"q" ~quota:512 ]
    ~threads:
      [
        F.thread ~name:"t1" ~comp:"a" ~entry:"go" ~stack_size:1024 ();
        F.thread ~name:"t2" ~comp:"b" ~entry:"serve" ~stack_size:2048 ();
      ]
    [
      F.compartment "a" ~globals_size:40
        ~entries:[ F.entry "go" ~arity:0 ]
        ~imports:
          [ F.Call { comp = "b"; entry = "serve" }; F.Static_sealed { target = "q" } ];
      F.compartment "b" ~globals_size:24
        ~entries:[ F.entry "serve" ~arity:2; F.entry "aux" ~arity:0 ]
        ~imports:[ F.Lib_call { lib = "l"; entry = "fn" } ];
      F.compartment "l" ~kind:F.Library ~entries:[ F.entry "fn" ~arity:1 ];
    ]

let load fw =
  let machine = Machine.create () in
  let interp = Interp.create machine in
  match Loader.load fw machine interp with
  | Ok ld -> (machine, ld)
  | Error e -> Alcotest.failf "load: %s" e

let test_tagged_caps_only_in_tables () =
  (* Sweep every SRAM granule: each valid capability must live inside an
     import table or an export table — nowhere else.  (Stacks, globals
     and the heap hold no capabilities at boot; trusted stacks are empty.)
     This is the property that makes the firmware report complete. *)
  let machine, ld = load (sample_firmware ()) in
  let mem = Machine.mem machine in
  let in_tables addr =
    List.exists
      (fun (l : Loader.comp_layout) ->
        (addr >= l.Loader.lc_import_base
        && addr < l.Loader.lc_import_base + l.Loader.lc_import_size)
        || (l.Loader.lc_export_size > 0
           && addr >= l.Loader.lc_export_base
           && addr < l.Loader.lc_export_base + l.Loader.lc_export_size))
      ld.Loader.comps
  in
  let violations = ref [] in
  for g = 0 to Memory.granule_count mem - 1 do
    let addr = Memory.base mem + (g * Memory.granule_size) in
    let c = Memory.load_cap_priv mem ~addr in
    if Cap.tag c && not (in_tables addr) then violations := addr :: !violations
  done;
  Alcotest.(check (list int)) "no stray capabilities" [] !violations

let test_import_table_read_only () =
  let machine, ld = load (sample_firmware ()) in
  let a = Loader.find_comp ld "a" in
  (* Reading is fine... *)
  ignore
    (Machine.load_cap machine ~auth:a.Loader.lc_import_cap
       ~addr:(Loader.import_slot_addr a 0));
  (* ...but the compartment cannot rewrite its own authority. *)
  match
    Machine.store machine ~auth:a.Loader.lc_import_cap
      ~addr:(Loader.import_slot_addr a 0) ~size:4 0
  with
  | _ -> Alcotest.fail "import table writable"
  | exception Memory.Fault _ -> ()

let test_region_disjointness () =
  (* No two allocated regions overlap, and the heap sits above them. *)
  let _machine, ld = load (sample_firmware ()) in
  let regions = ref [] in
  let add name base size = if size > 0 then regions := (name, base, size) :: !regions in
  List.iter
    (fun (l : Loader.comp_layout) ->
      add (l.Loader.lc_name ^ ".globals") l.Loader.lc_globals_base l.Loader.lc_globals_size;
      add (l.Loader.lc_name ^ ".export") l.Loader.lc_export_base l.Loader.lc_export_size;
      add (l.Loader.lc_name ^ ".import") l.Loader.lc_import_base l.Loader.lc_import_size)
    ld.Loader.comps;
  List.iter
    (fun (t : Loader.thread_layout) ->
      add (t.Loader.lt_name ^ ".stack") t.Loader.lt_stack_base t.Loader.lt_stack_size;
      add (t.Loader.lt_name ^ ".tstack") t.Loader.lt_tstack_base t.Loader.lt_tstack_size)
    ld.Loader.threads;
  List.iter (fun (s : Loader.sealed_layout) -> add s.Loader.ls_name s.Loader.ls_addr s.Loader.ls_size) ld.Loader.sealed;
  let rs = !regions in
  List.iteri
    (fun i (n1, b1, s1) ->
      List.iteri
        (fun j (n2, b2, s2) ->
          if i < j && b1 < b2 + s2 && b2 < b1 + s1 then
            Alcotest.failf "%s and %s overlap" n1 n2)
        rs)
    rs;
  List.iter
    (fun (n, b, s) ->
      if b + s > ld.Loader.heap_base then
        Alcotest.failf "%s extends into the heap region" n)
    rs

let test_thread_resources () =
  let _machine, ld = load (sample_firmware ()) in
  let t1 = Loader.find_thread ld "t1" in
  Alcotest.(check int) "stack size honoured" 1024 t1.Loader.lt_stack_size;
  Alcotest.(check bool) "stack non-global" false
    (Cap.has_perm Perm.Global t1.Loader.lt_stack);
  Alcotest.(check bool) "stack has store-local" true
    (Cap.has_perm Perm.Store_local t1.Loader.lt_stack);
  Alcotest.(check int) "cursor at top"
    (t1.Loader.lt_stack_base + t1.Loader.lt_stack_size)
    (Cap.address t1.Loader.lt_stack);
  Alcotest.(check bool) "trusted stack has store-local" true
    (Cap.has_perm Perm.Store_local t1.Loader.lt_tstack)

let test_pcc_has_no_system_registers () =
  (* Only the switcher's PCC may access special registers (§3.1.2). *)
  let _machine, ld = load (sample_firmware ()) in
  List.iter
    (fun (l : Loader.comp_layout) ->
      Alcotest.(check bool)
        (l.Loader.lc_name ^ " pcc lacks SR")
        false
        (Cap.has_perm Perm.System_registers l.Loader.lc_pcc))
    ld.Loader.comps;
  Alcotest.(check bool) "switcher pcc has SR" true
    (Cap.has_perm Perm.System_registers Switcher.pcc)

let test_erase_loader_wipes_region () =
  let machine, ld = load (sample_firmware ()) in
  let mem = Machine.mem machine in
  Memory.store_priv mem ~addr:ld.Loader.loader_base ~size:4 0xfeed;
  Loader.erase_loader ld;
  Alcotest.(check int) "wiped" 0 (Memory.load_priv mem ~addr:ld.Loader.loader_base ~size:4)

let test_validation_errors () =
  let expect_invalid what fw =
    match Firmware.validate fw with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" what
  in
  expect_invalid "duplicate compartments"
    (F.create ~name:"dup" [ F.compartment "x"; F.compartment "x" ]);
  expect_invalid "unknown import target"
    (F.create ~name:"bad"
       [ F.compartment "x" ~imports:[ F.Call { comp = "ghost"; entry = "e" } ] ]);
  expect_invalid "call import targets library"
    (F.create ~name:"bad"
       [
         F.compartment "x" ~imports:[ F.Call { comp = "l"; entry = "fn" } ];
         F.compartment "l" ~kind:F.Library ~entries:[ F.entry "fn" ];
       ]);
  expect_invalid "thread starting in a library"
    (F.create ~name:"bad"
       ~threads:[ F.thread ~name:"t" ~comp:"l" ~entry:"fn" () ]
       [ F.compartment "l" ~kind:F.Library ~entries:[ F.entry "fn" ] ]);
  expect_invalid "unknown sealed object"
    (F.create ~name:"bad"
       [ F.compartment "x" ~imports:[ F.Static_sealed { target = "nope" } ] ]);
  match F.compartment "lib" ~kind:F.Library ~globals_size:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "library with mutable globals accepted"

let test_image_too_big_rejected () =
  let fw =
    F.create ~name:"huge"
      ~threads:[ F.thread ~name:"t" ~comp:"x" ~entry:"e" ~stack_size:(512 * 1024) () ]
      [ F.compartment "x" ~entries:[ F.entry "e" ] ]
  in
  let machine = Machine.create () in
  let interp = Interp.create machine in
  match Loader.load fw machine interp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized image accepted"

(* A thread starts through the same sealed export capability that a
   caller of its entry finds in its import table: the loader seals both
   with one derivation. *)
let test_thread_entry_caps () =
  let base = sample_firmware () in
  let caller =
    F.compartment "caller" ~entries:[ F.entry "x" ]
      ~imports:
        (List.map
           (fun (th : F.thread) -> F.Call { comp = th.F.entry_comp; entry = th.F.entry_point })
           base.F.threads)
  in
  let fw = { base with F.compartments = base.F.compartments @ [ caller ] } in
  let k =
    match Kernel.boot ~machine:(Machine.create ()) fw with
    | Ok k -> k
    | Error e -> Alcotest.failf "boot: %s" e
  in
  List.iter
    (fun (tl : Loader.thread_layout) ->
      let slot =
        Kernel.import_cap k ~comp:"caller" (tl.Loader.lt_comp ^ "." ^ tl.Loader.lt_entry)
      in
      Alcotest.(check bool) (tl.Loader.lt_name ^ " entry cap sealed") true
        (Cap.tag tl.Loader.lt_entry_cap && Cap.is_sealed tl.Loader.lt_entry_cap);
      Alcotest.(check bool) (tl.Loader.lt_name ^ " entry cap = import slot") true
        (Cap.equal tl.Loader.lt_entry_cap slot))
    (Kernel.loader k).Loader.threads

(* Property: random images lay out without overlaps and pass the
   stray-capability sweep. *)
let gen_firmware =
  QCheck.Gen.(
    let* n_comps = int_range 1 5 in
    let* globals = list_repeat n_comps (int_bound 128) in
    let* entries = list_repeat n_comps (int_range 1 4) in
    let* n_threads = int_range 1 3 in
    let comps =
      List.mapi
        (fun i (g, e) ->
          F.compartment (Printf.sprintf "c%d" i) ~globals_size:g
            ~entries:(List.init e (fun j -> F.entry (Printf.sprintf "e%d" j)))
            ~imports:
              (if i > 0 then [ F.Call { comp = "c0"; entry = "e0" } ] else []))
        (List.combine globals entries)
    in
    let threads =
      List.init n_threads (fun i ->
          F.thread
            ~name:(Printf.sprintf "t%d" i)
            ~comp:"c0" ~entry:"e0"
            ~stack_size:(256 * (i + 1))
            ())
    in
    return (F.create ~name:"random" ~threads comps))

let prop_random_layout =
  QCheck.Test.make ~name:"random images load with sound layouts" ~count:60
    (QCheck.make gen_firmware) (fun fw ->
      let machine = Machine.create () in
      let interp = Interp.create machine in
      match Loader.load fw machine interp with
      | Error _ -> false
      | Ok ld ->
          (* heap region is granule-aligned and non-empty *)
          ld.Loader.heap_base mod 8 = 0
          && ld.Loader.heap_limit > ld.Loader.heap_base
          (* every import slot holds a tagged capability *)
          && List.for_all
               (fun (l : Loader.comp_layout) ->
                 Array.for_all
                   (fun i -> i >= 0)
                   (Array.mapi
                      (fun i _ ->
                        if
                          Cap.tag
                            (Memory.load_cap_priv (Machine.mem machine)
                               ~addr:(Loader.import_slot_addr l i))
                        then i
                        else -1)
                      l.Loader.lc_imports))
               ld.Loader.comps)

let suite =
  [
    Alcotest.test_case "tagged caps only in tables" `Quick test_tagged_caps_only_in_tables;
    Alcotest.test_case "import table read-only" `Quick test_import_table_read_only;
    Alcotest.test_case "regions disjoint" `Quick test_region_disjointness;
    Alcotest.test_case "thread resources" `Quick test_thread_resources;
    Alcotest.test_case "thread entry caps = import slots" `Quick test_thread_entry_caps;
    Alcotest.test_case "no SR outside switcher" `Quick test_pcc_has_no_system_registers;
    Alcotest.test_case "loader erasure" `Quick test_erase_loader_wipes_region;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "oversized image rejected" `Quick test_image_too_big_rejected;
    Qcheck_seed.to_alcotest prop_random_layout;
  ]

let () = Alcotest.run "cheriot_loader" [ ("loader", suite) ]
