(* Property-based lockdown of the tracing layer: the ring buffer's
   drop-oldest discipline, per-source stamp monotonicity, exact
   attribution totals, and — the load-bearing invariant — that
   attaching a trace sink leaves simulated cycle counts bit-identical
   on randomized programs.  Randomness comes from the explicit seed in
   [Qcheck_seed], printed on failure for exact replay. *)

module F = Firmware
module A = Allocator

(* -------------------------------------------------------------------- *)
(* Ring buffer: newer events are never dropped for older ones.          *)

let gen_ring = QCheck.Gen.(pair (int_range 1 32) (int_range 0 100))

let prop_ring_keeps_newest =
  QCheck.Test.make ~name:"ring buffer retains exactly the newest events"
    ~count:200
    (QCheck.make
       ~print:(fun (cap, n) -> Printf.sprintf "cap=%d n=%d" cap n)
       gen_ring)
    (fun (cap, n) ->
      let t = Obs.create ~capacity:cap () in
      for i = 0 to n - 1 do
        Obs.emit t ~cycle:i (Obs.Instr_sample { instret = i })
      done;
      let kept = min n cap in
      let evs = Obs.events t in
      Obs.total t = n
      && Obs.length t = kept
      && Obs.dropped t = n - kept
      && List.length evs = kept
      (* the retained window is exactly the emission suffix, in order *)
      && List.for_all2
           (fun e i -> e.Obs.cycle = i)
           evs
           (List.init kept (fun j -> n - kept + j)))

(* -------------------------------------------------------------------- *)
(* Randomized programs on a real system, with or without a sink.        *)

let firmware () =
  System.image ~name:"obs-props"
    ~sealed_objects:[ A.alloc_capability ~name:"q" ~quota:16384 ]
    ~threads:
      [ F.thread ~name:"main" ~comp:"app" ~entry:"main" ~stack_size:2048 () ]
    [
      F.compartment "app" ~globals_size:32
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
        ~imports:
          (A.client_imports @ Scheduler.client_imports
          @ [ F.Static_sealed { target = "q" } ]);
    ]

let quota ctx =
  let l = Loader.find_comp (Kernel.loader ctx.Kernel.kernel) "app" in
  Machine.load_cap (Kernel.machine ctx.Kernel.kernel)
    ~auth:l.Loader.lc_import_cap
    ~addr:(Loader.import_slot_addr l (Loader.import_slot l "sealed:q"))

type op = Alloc of int | Free of int | Sleep of int | Yield | Sweep

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 5 40)
      (frequency
         [
           (4, map (fun s -> Alloc (8 + (s mod 500))) nat);
           (3, map (fun i -> Free i) (int_bound 15));
           (2, map (fun n -> Sleep (1_000 + (n mod 50_000))) nat);
           (2, return Yield);
           (1, return Sweep);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Alloc n -> Printf.sprintf "A%d" n
         | Free i -> Printf.sprintf "F%d" i
         | Sleep n -> Printf.sprintf "S%d" n
         | Yield -> "Y"
         | Sweep -> "W")
       ops)

(* Run [ops] on a fresh system; returns the final simulated cycle count
   and the trace (empty when no sink was attached).  [forensics]
   additionally attaches a flight recorder, [profiled] a profiler (each
   independent of the trace ring). *)
let run_program ?(forensics = false) ?profiled ~traced ops =
  let machine = Machine.create () in
  let obs = if traced then Some (Obs.create ()) else None in
  Machine.set_trace machine obs;
  if forensics then Machine.set_forensics machine (Some (Forensics.create ()));
  (match profiled with
  | Some mode -> Machine.set_profiler machine (Some (Profiler.create ~mode ()))
  | None -> ());
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      let q = quota ctx in
      let live = ref [] in
      let nth i =
        List.nth_opt !live (if !live = [] then 0 else i mod List.length !live)
      in
      List.iter
        (fun op ->
          match op with
          | Alloc size -> (
              match A.allocate ctx ~alloc_cap:q size with
              | Ok c -> live := c :: !live
              | Error _ -> ())
          | Free i -> (
              match nth i with
              | Some c -> (
                  match A.free ctx ~alloc_cap:q c with
                  | Ok () -> live := List.filter (fun c' -> c' != c) !live
                  | Error _ -> ())
              | None -> ())
          | Sleep n -> Kernel.sleep ctx n
          | Yield -> Kernel.yield ctx
          | Sweep ->
              Machine.revoker_kick machine;
              Machine.run_revoker_to_completion machine)
        ops;
      Capability.null);
  System.run ~until_cycles:4_000_000_000 sys;
  ( Machine.cycles machine,
    (match obs with None -> [] | Some o -> Obs.events o),
    machine )

let prop_stamps_monotone_per_source =
  QCheck.Test.make ~name:"cycle stamps are monotone per source" ~count:15
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let _, evs, _ = run_program ~traced:true ops in
      let by_source = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let src = Obs.source_of e.Obs.kind in
          let prev = Option.value ~default:0 (Hashtbl.find_opt by_source src) in
          if e.Obs.cycle < prev then failwith ("stamp regression in " ^ src);
          Hashtbl.replace by_source src e.Obs.cycle)
        evs;
      evs <> [])

let prop_attribution_totals_exact =
  QCheck.Test.make
    ~name:"attribution fold totals exactly equal machine cycles" ~count:15
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let cycles, evs, _ = run_program ~traced:true ops in
      let attributed = Obs.attribute ~total_cycles:cycles evs in
      let sum = List.fold_left (fun a (_, n) -> a + n) 0 attributed in
      sum = cycles && List.for_all (fun (_, n) -> n > 0) attributed)

let prop_tracing_invisible =
  QCheck.Test.make
    ~name:"simulated cycles bit-identical with tracing on vs off" ~count:15
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let on, _, _ = run_program ~traced:true ops in
      let off, _, _ = run_program ~traced:false ops in
      on = off)

let prop_forensics_invisible =
  QCheck.Test.make
    ~name:"simulated cycles bit-identical with the flight recorder attached"
    ~count:15
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let on, _, _ = run_program ~traced:true ~forensics:true ops in
      let off, _, _ = run_program ~traced:false ops in
      on = off)

(* The profiler mirrors the invisibility contract — attached alone
   (no trace ring), it must not move a single simulated cycle. *)
let prop_profiler_invisible =
  QCheck.Test.make
    ~name:"simulated cycles bit-identical with the profiler attached"
    ~count:15
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let on, _, _ = run_program ~traced:false ~profiled:Profiler.Exact ops in
      let off, _, _ = run_program ~traced:false ops in
      on = off)

(* Exact-attribution reconciliation: the folded stacks partition machine
   cycles exactly, and the per-leaf sums equal Obs.attribute's totals
   label for label (the profiler is the attribution fold with stack
   context), which also equal the flight recorder's attribution. *)
let prop_profile_reconciles =
  QCheck.Test.make
    ~name:"exact profile reconciles with cycles and the attribution fold"
    ~count:15
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let cycles, evs, machine =
        run_program ~traced:true ~forensics:true ~profiled:Profiler.Exact ops
      in
      let prof = Option.get (Machine.profiler machine) in
      let frn = Option.get (Machine.forensics machine) in
      let fold = Profiler.folded prof ~total_cycles:cycles in
      let weight = List.fold_left (fun a (_, w) -> a + w) 0 fold in
      let leaf key =
        match List.rev (String.split_on_char ';' key) with
        | l :: _ -> l
        | [] -> key
      in
      let by_leaf = Hashtbl.create 8 in
      List.iter
        (fun (k, w) ->
          let l = leaf k in
          Hashtbl.replace by_leaf l
            (w + Option.value (Hashtbl.find_opt by_leaf l) ~default:0))
        fold;
      let attrib = Obs.attribute ~total_cycles:cycles evs in
      weight = cycles
      && Forensics.attribution frn ~total_cycles:cycles = attrib
      && List.for_all
           (fun (label, n) ->
             Option.value (Hashtbl.find_opt by_leaf label) ~default:0 = n)
           attrib
      && Hashtbl.length by_leaf = List.length attrib)

(* Sampled mode: the total weight is exactly cycles/interval — the
   sample clock is the simulated clock, so sampling is deterministic. *)
let prop_sampled_weight =
  QCheck.Test.make
    ~name:"sampled profile weight is exactly cycles/interval" ~count:10
    (QCheck.make
       ~print:(fun (n, ops) -> Printf.sprintf "interval=%d %s" n (print_ops ops))
       QCheck.Gen.(pair (int_range 2 10_000) gen_ops))
    (fun (n, ops) ->
      let cycles, _, machine =
        run_program ~traced:false ~profiled:(Profiler.Sampled n) ops
      in
      let prof = Option.get (Machine.profiler machine) in
      Profiler.total_weight prof ~total_cycles:cycles = cycles / n)

(* -------------------------------------------------------------------- *)
(* The tracker on a hand-fed stream: nested calls, an abort in a
   switcher leg, a second thread, and a faulted leave.  After each
   event: the leaf attribution charges, the profiler's folded key and
   thread 1's call chain (innermost first).                             *)

let call =
  Alcotest.testable
    (fun ppf (c : Obs.Tracker.call) ->
      Format.fprintf ppf "%s->%s.%s@%d" c.caller c.callee c.entry c.cycle)
    ( = )

let test_tracker_hand_fed () =
  let module T = Obs.Tracker in
  let t = T.create () in
  let svc = { T.caller = "app"; callee = "svc"; entry = "e"; cycle = 30 } in
  let alloc = { T.caller = "svc"; callee = "alloc"; entry = "e"; cycle = 50 } in
  let enter caller callee = Obs.Call_enter { caller; callee; entry = "e"; tid = 1 } in
  let leave callee faulted = Obs.Call_leave { callee; tid = 1; faulted } in
  let steps =
    [
      (10, Obs.Thread_dispatch { tid = 1; name = "main" }, "kernel", "main;kernel", []);
      (20, Obs.Switcher_call { tid = 1 }, "switcher", "main;switcher", []);
      (30, enter "app" "svc", "svc", "main;svc", [ svc ]);
      (40, Obs.Switcher_call { tid = 1 }, "switcher", "main;svc;switcher", [ svc ]);
      (50, enter "svc" "alloc", "alloc", "main;svc;alloc", [ alloc; svc ]);
      (60, Obs.Switcher_return { tid = 1 }, "switcher", "main;svc;alloc;switcher",
       [ alloc; svc ]);
      (70, leave "alloc" false, "svc", "main;svc", [ svc ]);
      (80, Obs.Switcher_call { tid = 1 }, "switcher", "main;svc;switcher", [ svc ]);
      (90, Obs.Switcher_abort { tid = 1 }, "svc", "main;svc", [ svc ]);
      (100, Obs.Sched_idle, "idle", "idle", [ svc ]);
      (110, Obs.Thread_dispatch { tid = 2; name = "other" }, "kernel", "other;kernel",
       [ svc ]);
      (* the first name seen for a tid sticks *)
      (120, Obs.Thread_dispatch { tid = 1; name = "renamed" }, "svc", "main;svc",
       [ svc ]);
      (130, Obs.Switcher_return { tid = 1 }, "switcher", "main;svc;switcher", [ svc ]);
      (140, leave "svc" true, "kernel", "main;kernel", []);
    ]
  in
  Alcotest.(check string) "boot leaf" "boot" (T.leaf t);
  Alcotest.(check string) "boot key" "boot" (T.key t);
  List.iter
    (fun (cycle, kind, leaf, key, chain) ->
      T.step t ~cycle kind;
      let after = " after " ^ Format.asprintf "%a" Obs.pp_event { Obs.cycle; kind } in
      Alcotest.(check string) ("leaf" ^ after) leaf (T.leaf t);
      Alcotest.(check string) ("key" ^ after) key (T.key t);
      Alcotest.(check (list call)) ("chain" ^ after) chain (T.chain t 1))
    steps;
  let totals =
    [ ("alloc", 10); ("boot", 10); ("idle", 10); ("kernel", 80); ("svc", 40);
      ("switcher", 50) ]
  in
  Alcotest.(check (list (pair string int))) "leaf totals" totals
    (T.totals t ~total_cycles:200);
  Alcotest.(check (list (pair string int))) "Obs.attribute is the projection"
    totals
    (Obs.attribute ~total_cycles:200
       (List.map (fun (cycle, kind, _, _, _) -> { Obs.cycle; kind }) steps))

(* -------------------------------------------------------------------- *)
(* The line renderer prints the bytes of the formatter-based printer it
   replaced (the goldens were written with it) for every kind,
   including strings far past Format's 78-column margin.               *)

let gen_kind =
  let open QCheck.Gen in
  let str =
    oneof [ string_size ~gen:printable (int_range 0 8);
            string_size ~gen:printable (int_range 70 200) ]
  in
  let num = oneof [ nat; int; small_signed_int ] in
  oneof
    [
      map (fun instret -> Obs.Instr_sample { instret }) num;
      map (fun irq -> Obs.Irq_enter { irq }) num;
      map (fun irq -> Obs.Irq_exit { irq }) num;
      map2 (fun granules next -> Obs.Revoker_quantum { granules; next }) num num;
      map (fun epoch -> Obs.Revoker_done { epoch }) num;
      map (fun note -> Obs.Fault_note { note }) str;
      map (fun tid -> Obs.Switcher_call { tid }) num;
      map (fun tid -> Obs.Switcher_return { tid }) num;
      map (fun tid -> Obs.Switcher_abort { tid }) num;
      map
        (fun ((caller, callee), (entry, tid)) ->
          Obs.Call_enter { caller; callee; entry; tid })
        (pair (pair str str) (pair str num));
      map3 (fun callee tid faulted -> Obs.Call_leave { callee; tid; faulted })
        str num bool;
      map2 (fun tid name -> Obs.Thread_dispatch { tid; name }) num str;
      map (fun tid -> Obs.Thread_block { tid }) num;
      map2 (fun tid reason -> Obs.Thread_wake { tid; reason }) num str;
      return Obs.Sched_idle;
      map2 (fun addr tid -> Obs.Futex_wait { addr; tid }) num num;
      map2 (fun addr woken -> Obs.Futex_wake { addr; woken }) num num;
      map2 (fun base size -> Obs.Alloc { base; size }) num num;
      map2 (fun base size -> Obs.Free { base; size }) num num;
      map2 (fun base size -> Obs.Quarantine { base; size }) num num;
      map2 (fun base size -> Obs.Release { base; size }) num num;
    ]

let formatted ~cycle kind =
  Format.asprintf "[%10d] %-7s %s" cycle (Obs.source_of kind) (Obs.detail_of kind)

let prop_event_line_is_pp_event =
  QCheck.Test.make ~name:"event_line prints the formatter's bytes" ~count:1000
    (QCheck.make
       ~print:(fun (cycle, kind) -> String.escaped (formatted ~cycle kind))
       QCheck.Gen.(pair (oneof [ nat; int ]) gen_kind))
    (fun (cycle, kind) ->
      let want = formatted ~cycle kind in
      Obs.event_line ~cycle kind = want
      && Format.asprintf "%a" Obs.pp_event { Obs.cycle; kind } = want)

(* -------------------------------------------------------------------- *)
(* Tracker snapshot inside a nested call: the detour after the snapshot
   charges cycles to cells the snapshot's frames point at and creates
   new labels; after the restore the suffix must give the same leaf,
   key, chain and totals as a tracker that never took the detour.      *)

let test_tracker_snapshot_restore () =
  let module T = Obs.Tracker in
  let enter tid caller callee = Obs.Call_enter { caller; callee; entry = "e"; tid } in
  let leave tid callee = Obs.Call_leave { callee; tid; faulted = false } in
  let prefix =
    [
      (10, Obs.Thread_dispatch { tid = 1; name = "main" });
      (20, Obs.Switcher_call { tid = 1 });
      (30, enter 1 "app" "svc");
      (40, Obs.Switcher_call { tid = 1 });
      (50, enter 1 "svc" "alloc");
    ]
  in
  let detour =
    [
      (60, Obs.Switcher_call { tid = 1 });
      (70, enter 1 "alloc" "ghost");
      (90, leave 1 "ghost");
      (100, Obs.Thread_dispatch { tid = 7; name = "phantom" });
      (110, Obs.Switcher_call { tid = 7 });
      (120, enter 7 "phantom" "spectre");
      (150, Obs.Thread_dispatch { tid = 1; name = "main" });
      (170, leave 1 "alloc");
    ]
  in
  let suffix =
    [
      (80, Obs.Switcher_return { tid = 1 });
      (95, leave 1 "alloc");
      (105, Obs.Switcher_call { tid = 1 });
      (115, enter 1 "svc" "net");
      (125, Obs.Sched_idle);
      (135, Obs.Thread_dispatch { tid = 1; name = "main" });
      (145, leave 1 "net");
      (155, Obs.Switcher_return { tid = 1 });
      (165, leave 1 "svc");
    ]
  in
  let feed t = List.iter (fun (cycle, kind) -> T.step t ~cycle kind) in
  let restored = T.create () and straight = T.create () in
  feed restored prefix;
  feed straight prefix;
  let restore = T.snapshot restored in
  feed restored detour;
  restore ();
  let same what =
    Alcotest.(check string) ("leaf " ^ what) (T.leaf straight) (T.leaf restored);
    Alcotest.(check string) ("key " ^ what) (T.key straight) (T.key restored);
    Alcotest.(check (list call)) ("chain " ^ what) (T.chain straight 1)
      (T.chain restored 1);
    Alcotest.(check (list (pair string int))) ("totals " ^ what)
      (T.totals straight ~total_cycles:200) (T.totals restored ~total_cycles:200)
  in
  same "after restore";
  List.iter
    (fun (cycle, kind) ->
      T.step restored ~cycle kind;
      T.step straight ~cycle kind;
      same ("after " ^ Format.asprintf "%a" Obs.pp_event { Obs.cycle; kind }))
    suffix;
  Alcotest.(check (option string)) "the detour's thread is forgotten" None
    (T.thread_name restored 7)

let suite =
  [
    Qcheck_seed.to_alcotest prop_ring_keeps_newest;
    Qcheck_seed.to_alcotest prop_stamps_monotone_per_source;
    Qcheck_seed.to_alcotest prop_attribution_totals_exact;
    Qcheck_seed.to_alcotest prop_tracing_invisible;
    Qcheck_seed.to_alcotest prop_forensics_invisible;
    Qcheck_seed.to_alcotest prop_profiler_invisible;
    Qcheck_seed.to_alcotest prop_profile_reconciles;
    Qcheck_seed.to_alcotest prop_sampled_weight;
    Alcotest.test_case "tracker: hand-fed nested calls" `Quick
      test_tracker_hand_fed;
    Qcheck_seed.to_alcotest prop_event_line_is_pp_event;
    Alcotest.test_case "tracker: restore inside a nested call" `Quick
      test_tracker_snapshot_restore;
  ]

let () = Alcotest.run "cheriot_obs_props" [ ("trace-properties", suite) ]
