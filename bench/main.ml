(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) against the simulated CHERIoT platform.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig6a   -- one experiment

   Experiments: table2 table3 fig6a fig6b fig7 (fig7-fast) table4 tcb
   Ablations:   ablate-quarantine ablate-loadfilter ablate-revoker

   Subcommands (trace, campaign, replay, perf, alloc-gate, ...) are
   listed in the usage text.

   Measured numbers are simulated cycles/bytes; EXPERIMENTS.md records
   them against the paper's.  Host wall-clock cost is measured by
   perfbench/ (python3 perfbench/run.py); here only `perf` (tight-loop
   ns/instr) and `alloc-gate` (warm minor words) read the host. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let section name = Fmt.pr "@.=== %s ===@." name

(* A reusable microbenchmark system: a "bench" compartment whose main
   entry runs a closure, plus a "callee" compartment with entries of
   varying stack requirements and fault behaviours. *)

type bench_sys = {
  sys : System.t;
  machine : Machine.t;
  mutable body : Kernel.ctx -> unit;
}

let bench_firmware () =
  System.image ~name:"bench"
    ~sealed_objects:
      [
        Allocator.alloc_capability ~name:"bench_quota" ~quota:8192;
        Allocator.alloc_capability ~name:"claim_quota" ~quota:8192;
      ]
    ~threads:
      [ F.thread ~name:"main" ~comp:"bench" ~entry:"main" ~stack_size:4096 () ]
    [
      F.compartment "bench" ~globals_size:64
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:2048 ]
        ~imports:
          (System.standard_imports
          @ [
              F.Call { comp = "callee"; entry = "e0" };
              F.Call { comp = "callee"; entry = "e256" };
              F.Call { comp = "callee"; entry = "e1024" };
              F.Call { comp = "callee"; entry = "fault_bare" };
              F.Call { comp = "handled"; entry = "fault_handled" };
              F.Lib_call { lib = "lib"; entry = "id" };
              F.Static_sealed { target = "bench_quota" };
              F.Static_sealed { target = "claim_quota" };
            ]);
      F.compartment "callee" ~globals_size:32
        ~entries:
          [
            F.entry "e0" ~arity:1 ~min_stack:0;
            F.entry "e256" ~arity:1 ~min_stack:256;
            F.entry "e1024" ~arity:1 ~min_stack:1024;
            F.entry "fault_bare" ~arity:0 ~min_stack:64;
          ];
      F.compartment "handled" ~globals_size:32 ~error_handler:true
        ~entries:[ F.entry "fault_handled" ~arity:0 ~min_stack:64 ];
      F.compartment "lib" ~kind:F.Library ~entries:[ F.entry "id" ~arity:1 ];
    ]

let boot_bench () =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine (bench_firmware ())) in
  let b = { sys; machine; body = (fun _ -> ()) } in
  let k = sys.System.kernel in
  Kernel.implement1 k ~comp:"callee" ~entry:"e0" (fun _ args -> args.(0));
  Kernel.implement1 k ~comp:"callee" ~entry:"e256" (fun _ args -> args.(0));
  Kernel.implement1 k ~comp:"callee" ~entry:"e1024" (fun _ args -> args.(0));
  Kernel.implement1 k ~comp:"callee" ~entry:"fault_bare" (fun ctx _ ->
      ignore
        (Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:Cap.null ~addr:0 ~size:4);
      iv 0);
  Kernel.implement1 k ~comp:"handled" ~entry:"fault_handled" (fun ctx _ ->
      ignore
        (Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:Cap.null ~addr:0 ~size:4);
      iv 0);
  Kernel.set_error_handler k ~comp:"handled" (fun _ _ -> `Unwind);
  Kernel.implement1 k ~comp:"lib" ~entry:"id" (fun _ args -> args.(0));
  Kernel.implement1 k ~comp:"bench" ~entry:"main" (fun ctx _ ->
      b.body ctx;
      Cap.null);
  b

let run_bench b body =
  b.body <- body;
  System.run b.sys

let quota_of ctx name =
  Kernel.import_cap ctx.Kernel.kernel ~comp:"bench" ("sealed:" ^ name)

(* Average simulated cycles of [f], with one warm-up (as in §5.3.2). *)
let cycles_avg ?(n = 20) machine f =
  f ();
  let c0 = Machine.cycles machine in
  for _ = 1 to n do
    f ()
  done;
  (Machine.cycles machine - c0) / n

(* ------------------------------------------------------------------ *)
(* Table 2: code and data size of CHERIoT RTOS components.            *)
(* ------------------------------------------------------------------ *)

let base_image () =
  System.image ~name:"base-system"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"app_quota" ~quota:1024 ]
    ~threads:[ F.thread ~name:"app" ~comp:"app" ~entry:"main" () ]
    [
      F.compartment "app" ~code_loc:60 ~globals_size:32
        ~entries:[ F.entry "main" ~arity:0 ]
        ~imports:
          (Allocator.client_imports @ Scheduler.client_imports
          @ [ F.Static_sealed { target = "app_quota" } ]);
    ]

let load_image fw =
  let machine = Machine.create () in
  ignore (Netsim.attach machine);
  Machine.add_device machine ~base:0x1000_0000 ~size:16
    (Machine.Device.ram ~name:"led" ~size:16);
  let interp = Interp.create machine in
  match Loader.load fw machine interp with
  | Ok ld -> ld
  | Error e -> failwith e

let table2 () =
  section "Table 2: code and data size of CHERIoT RTOS components";
  let print_image title fw =
    let ld = load_image fw in
    let stats = Loader.stats ld in
    Fmt.pr "%s@." title;
    Fmt.pr "  %-12s %10s %10s@." "component" "code" "data";
    List.iter
      (fun (l : Loader.comp_layout) ->
        Fmt.pr "  %-12s %8d B %8d B%s@." l.Loader.lc_name l.Loader.lc_code_size
          (l.Loader.lc_globals_size + l.Loader.lc_export_size + l.Loader.lc_import_size)
          (if l.Loader.lc_kind = F.Library then "  (library)" else ""))
      ld.Loader.comps;
    Fmt.pr "  %-12s %8d B %8s    (real assembled bytes; %d instructions)@."
      "switcher"
      (Isa.code_bytes Switcher.program)
      "-" Switcher.instruction_count;
    Fmt.pr "  %-12s %8d B %8s    (erased after boot -> heap)@." "loader"
      ld.Loader.loader_size "-";
    Fmt.pr
      "  totals: code %d B; globals %d B; tables+sealed %d B; stacks %d B; trusted stacks %d B@."
      (stats.Loader.code_total + Isa.code_bytes Switcher.program)
      stats.Loader.globals_total stats.Loader.tables_total stats.Loader.stacks_total
      stats.Loader.trusted_stacks_total;
    Fmt.pr "  overall SRAM footprint (no XIP): %.1f KB@."
      (float_of_int
         (stats.Loader.code_total + Isa.code_bytes Switcher.program
        + stats.Loader.globals_total + stats.Loader.tables_total
        + stats.Loader.stacks_total + stats.Loader.trusted_stacks_total)
      /. 1024.)
  in
  print_image "Base system (paper: 25.9 KB code, 3.7 KB data):" (base_image ());
  Fmt.pr "@.";
  print_image
    "Base + network stack (paper: 151.8 KB code incl. TLS+MQTT, 20.4 KB data):"
    (Iot_scenario.firmware ());
  (* Per-compartment overhead: add one empty compartment and diff. *)
  let tables_of fw =
    let s = Loader.stats (load_image fw) in
    s.Loader.tables_total + s.Loader.globals_total
  in
  let plus_one =
    System.image ~name:"base+1"
      ~sealed_objects:[ Allocator.alloc_capability ~name:"app_quota" ~quota:1024 ]
      ~threads:[ F.thread ~name:"app" ~comp:"app" ~entry:"main" () ]
      [
        F.compartment "app" ~code_loc:60 ~globals_size:32
          ~entries:[ F.entry "main" ~arity:0 ]
          ~imports:
            (Allocator.client_imports @ Scheduler.client_imports
            @ [ F.Static_sealed { target = "app_quota" } ]);
        F.compartment "empty" ~code_loc:1 ~entries:[ F.entry "noop" ~arity:0 ];
      ]
  in
  Fmt.pr
    "@.per-compartment metadata overhead: %d B (paper: 83 B; Tock process: 164 B)@."
    (tables_of plus_one - tables_of (base_image ()))

(* ------------------------------------------------------------------ *)
(* Table 3: average latencies of core APIs (cycles).                  *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: core API latencies (simulated cycles, avg of 20)";
  let b = boot_bench () in
  run_bench b (fun ctx ->
      let m = b.machine in
      let q = quota_of ctx "bench_quota" in
      let q2 = quota_of ctx "claim_quota" in
      let row name paper v = Fmt.pr "  %-28s %8d   (paper: %s)@." name v paper in
      (* Opaque objects *)
      let key = Result.get_ok (Allocator.token_key_new ctx) in
      let sobj = Result.get_ok (Allocator.allocate_sealed ctx ~alloc_cap:q ~key 24) in
      row "unseal an object" "44.8"
        (cycles_avg m (fun () -> ignore (Allocator.token_unseal ctx ~key sobj)));
      let sealed_objs = ref [] in
      row "allocate a sealed object" "2432.2"
        (cycles_avg ~n:8 m (fun () ->
             match Allocator.allocate_sealed ctx ~alloc_cap:q ~key 24 with
             | Ok s -> sealed_objs := s :: !sealed_objs
             | Error _ -> ()));
      List.iter
        (fun s -> ignore (Allocator.free_sealed ctx ~alloc_cap:q ~key s))
        !sealed_objs;
      row "allocate a new key" "688"
        (cycles_avg m (fun () -> ignore (Allocator.token_key_new ctx)));
      (* Interface hardening *)
      let buf = Result.get_ok (Allocator.allocate ctx ~alloc_cap:q 64) in
      row "de-privilege a pointer" "<10"
        (cycles_avg m (fun () -> ignore (Hardening.read_only ctx buf)));
      row "check a pointer" "4.4"
        (cycles_avg m (fun () ->
             ignore (Hardening.check_pointer ctx ~min_length:64 buf)));
      row "ephemeral claim" "182"
        (cycles_avg m (fun () -> Kernel.ephemeral_claim ctx buf));
      row "heap claim + unclaim" "3714"
        (cycles_avg ~n:8 m (fun () ->
             ignore (Allocator.claim ctx ~alloc_cap:q2 buf);
             ignore (Allocator.free ctx ~alloc_cap:q2 buf)));
      (* Error handling *)
      let empty_call =
        cycles_avg m (fun () -> ignore (Kernel.call1 ctx ~import:"callee.e0" [ iv 0 ]))
      in
      let fault_call_bare =
        cycles_avg m (fun () -> ignore (Kernel.call1 ctx ~import:"callee.fault_bare" []))
      in
      let fault_call_handled =
        cycles_avg m (fun () ->
            ignore (Kernel.call1 ctx ~import:"handled.fault_handled" []))
      in
      row "no handler: non-error path" "0" 0;
      row "default: fault and unwind" "109" (fault_call_bare - empty_call);
      row "global handler: non-error" "0" 0;
      row "global: fault and unwind" "413" (fault_call_handled - empty_call);
      row "scoped handler: non-error" "87"
        (cycles_avg m (fun () ->
             ignore (Scoped.during ctx (fun () -> 1) ~handler:(fun () -> 0))));
      row "scoped: fault and unwind" "222"
        (cycles_avg m (fun () ->
             ignore
               (Scoped.during ctx
                  (fun () ->
                    ignore (Machine.load m ~auth:Cap.null ~addr:0 ~size:4);
                    1)
                  ~handler:(fun () -> 0)))))

(* ------------------------------------------------------------------ *)
(* Fig. 6a: call and interrupt latencies.                             *)
(* ------------------------------------------------------------------ *)

let fig6a () =
  section "Fig. 6a: call and interrupt latencies (simulated cycles)";
  let b = boot_bench () in
  run_bench b (fun ctx ->
      let m = b.machine in
      let row name paper v = Fmt.pr "  %-34s %8d   (paper: %s)@." name v paper in
      row "function call" "-" Cost.native_call;
      row "library call" "-"
        (cycles_avg m (fun () -> ignore (Kernel.lib_call ctx ~import:"lib.id" [ iv 1 ])));
      row "compartment call (0 B stack)" "209"
        (cycles_avg m (fun () -> ignore (Kernel.call1 ctx ~import:"callee.e0" [ iv 1 ])));
      row "compartment call (256 B stack)" "452"
        (cycles_avg m (fun () -> ignore (Kernel.call1 ctx ~import:"callee.e256" [ iv 1 ])));
      row "compartment call (2x1 KiB zeroed)" "1284"
        (cycles_avg m (fun () -> ignore (Kernel.call1 ctx ~import:"callee.e1024" [ iv 1 ])));
      row "context switch (modelled)" "-"
        (Cost.trap_entry + (2 * Cost.register_spill) + Cost.sched_decision);
      row "Donky domain switch (baseline)" "2136" (2 * Mpu_baseline.domain_switch_cycles));
  (* Interrupt latency via the revoker IRQ, as in the paper: a
     high-priority thread waits on the revoker's interrupt futex while a
     low-priority thread keeps stamping the current time. *)
  let machine = Machine.create () in
  let fw =
    System.image ~name:"irqbench"
      ~threads:
        [
          F.thread ~name:"hi" ~comp:"w" ~entry:"hi" ~priority:3 ~stack_size:2048 ();
          F.thread ~name:"lo" ~comp:"w" ~entry:"lo" ~priority:1 ~stack_size:2048 ();
        ]
      [
        F.compartment "w" ~globals_size:32
          ~entries:
            [ F.entry "hi" ~arity:0 ~min_stack:512; F.entry "lo" ~arity:0 ~min_stack:512 ]
          ~imports:System.standard_imports;
      ]
  in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let k = sys.System.kernel in
  let t1 = ref 0 and t2 = ref 0 and done_ = ref false in
  Kernel.implement1 k ~comp:"w" ~entry:"hi" (fun ctx _ ->
      let word = Scheduler.interrupt_futex ctx ~irq:Machine.revoker_irq in
      let v = Machine.load machine ~auth:word ~addr:(Cap.address word) ~size:4 in
      Machine.revoker_kick machine;
      ignore (Scheduler.futex_wait ctx ~word ~expected:v ());
      t2 := Machine.cycles machine;
      done_ := true;
      Cap.null);
  Kernel.implement1 k ~comp:"w" ~entry:"lo" (fun _ctx _ ->
      while not !done_ do
        t1 := Machine.cycles machine;
        Machine.tick machine 8
      done;
      Cap.null);
  System.run ~until_cycles:200_000_000 sys;
  Fmt.pr "  %-34s %8d   (paper: 1028, i.e. ~31 us at 33 MHz)@."
    "interrupt latency (revoker IRQ)" (!t2 - !t1)

(* ------------------------------------------------------------------ *)
(* Fig. 6b: sustained allocator throughput vs allocation size.        *)
(* ------------------------------------------------------------------ *)

let fig6b ?(revoker_rate = Cost.revoker_cycles_per_granule) () =
  let drain = 2 in
  section
    (Printf.sprintf
       "Fig. 6b: sustained allocation rate (drain/op=%d, revoker=%d cy/granule)"
       drain revoker_rate);
  Fmt.pr "  %10s %14s %12s %s@." "size (B)" "cycles/pair" "MiB/s" "regime";
  let sizes =
    [ 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536; 98304; 131072 ]
  in
  (* One self-contained simulation per size; farmed across domains, with
     the results printed after the merge, in size order — the golden
     output is byte-identical for every job count. *)
  let measure size =
    let machine = Machine.create () in
    Machine.set_revoker_rate machine ~cycles_per_granule:revoker_rate;
    let fw =
      System.image ~name:"allocbench"
        ~sealed_objects:
          [ Allocator.alloc_capability ~name:"big_quota" ~quota:(200 * 1024) ]
        ~threads:
          [ F.thread ~name:"main" ~comp:"bench" ~entry:"main" ~stack_size:2048 () ]
        [
          F.compartment "bench" ~globals_size:32
            ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
            ~imports:
              (System.standard_imports @ [ F.Static_sealed { target = "big_quota" } ]);
        ]
    in
    let sys = Result.get_ok (System.boot ~machine ~drain_per_op:drain fw) in
    let k = sys.System.kernel in
    let heap = Allocator.heap_size sys.System.alloc in
    (* total traffic: 8x the heap, as in the paper (capped for sim time) *)
    let pairs = max 4 (min 4000 (8 * heap / size)) in
    let result = ref 0 in
    Kernel.implement1 k ~comp:"bench" ~entry:"main" (fun ctx _ ->
        let q = quota_of ctx "big_quota" in
        let c0 = Machine.cycles machine in
        let ok = ref 0 in
        for _ = 1 to pairs do
          match Allocator.allocate ctx ~alloc_cap:q size with
          | Ok c ->
              incr ok;
              ignore (Allocator.free ctx ~alloc_cap:q c)
          | Error _ -> ()
        done;
        result := (Machine.cycles machine - c0) / max 1 !ok;
        Cap.null);
    System.run ~until_cycles:8_000_000_000 sys;
    !result
  in
  List.iter2
    (fun size cyc ->
      let bytes_per_cycle = float_of_int size /. float_of_int (max 1 cyc) in
      let mib_s =
        bytes_per_cycle *. float_of_int (Machine.clock_mhz * 1_000_000) /. (1024. *. 1024.)
      in
      let regime =
        if size <= 16384 then "call-latency bound"
        else if size <= 65536 then "revoker bound"
        else "pathological (revoker synchronous)"
      in
      Fmt.pr "  %10d %14d %12.2f %s@." size cyc mib_s regime)
    sizes
    (Farm.map_list measure sizes);
  Fmt.pr
    "  (paper: throughput rises with size, ~5 MiB/s above 1 KiB, drops past 32 KiB,@.\
    \   pathological past 80 KiB when free..malloc synchronises with the revoker)@."

(* ------------------------------------------------------------------ *)
(* Fig. 7: full-system CPU load for the IoT deployment.               *)
(* ------------------------------------------------------------------ *)

let fig7 ?(fast = false) () =
  section "Fig. 7: full-system CPU load (IoT case study, §5.3.3)";
  let r = Iot_scenario.run ~fast () in
  Fmt.pr "%a" Iot_scenario.pp_result r;
  Fmt.pr
    "  (paper: 52 s run, phases Setup/NTP/App Setup/Steady, ping-of-death at t=34 s,@.\
    \   0.27 s micro-reboot, ~12 s re-setup, 46.5%% average load, 13 compartments, 243 KB)@."

(* ------------------------------------------------------------------ *)
(* Table 4: design-aspect comparison, as executable probes.           *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: design aspects (executable probes vs the MPU baseline)";
  (* CHERIoT side: UAF is trapped, bounds are exact. *)
  let b = boot_bench () in
  let uaf_trapped = ref false in
  let exact_bounds = ref false in
  run_bench b (fun ctx ->
      let q = quota_of ctx "bench_quota" in
      let c = Result.get_ok (Allocator.allocate ctx ~alloc_cap:q 40) in
      exact_bounds := Cap.length c = 40;
      ignore (Allocator.free ctx ~alloc_cap:q c);
      match Machine.load b.machine ~auth:c ~addr:(Cap.base c) ~size:4 with
      | _ -> ()
      | exception Memory.Fault _ -> uaf_trapped := true);
  (* Baseline side: UAF silently works, sharing over-privileges. *)
  let t = Mpu_baseline.create () in
  let task = Mpu_baseline.create_task () in
  ignore (Mpu_baseline.grant t task ~addr:0 ~len:65536 ~writable:true);
  let p = Mpu_baseline.malloc t 64 in
  Mpu_baseline.store t task ~addr:p 1;
  Mpu_baseline.free t p;
  let mpu_uaf_works = Mpu_baseline.load t task ~addr:p = 1 in
  let row aspect cheriot mpu = Fmt.pr "  %-38s %-28s %s@." aspect cheriot mpu in
  row "aspect" "CHERIoT (this work)" "MPU/PMP baseline";
  row "MMU-less" "yes" "yes";
  row "spatial safety (probe: exact bounds)"
    (if !exact_bounds then "yes (40 B exact)" else "FAILED")
    (Printf.sprintf "region-granular (+%d B exposed)"
       (Mpu_baseline.over_privilege_bytes ~len:40));
  row "heap temporal safety (probe: UAF)"
    (if !uaf_trapped then "yes (trapped)" else "FAILED")
    (if mpu_uaf_works then "no (dangling access works)" else "?");
  row "fine-grain compartments" "yes (per-object caps)"
    (Printf.sprintf "no (%d regions/task)" Mpu_baseline.region_count);
  row "fault-tolerant compartments" "yes (handlers + micro-reboot)" "no";
  row "de-privileged TCB"
    (Printf.sprintf "yes (switcher: %d instrs)" Switcher.instruction_count)
    "no (trusted kernel)";
  row "interface-hardening APIs" "yes (check/deprivilege/claims)" "no";
  row "auditing support" "yes (JSON report + Rego)" "no";
  row "per-compartment memory" "~80 B (see table2)"
    (Printf.sprintf "%d B (Tock)" Mpu_baseline.per_task_overhead_bytes);
  row "domain switch (cycles)" "209 (empty call)"
    (Printf.sprintf "%d (Donky)" (2 * Mpu_baseline.domain_switch_cycles))

(* ------------------------------------------------------------------ *)
(* §5.1.1: TCB size and attack surface.                               *)
(* ------------------------------------------------------------------ *)

let count_loc dir =
  try
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.fold_left
         (fun acc f ->
           let ic = open_in (Filename.concat dir f) in
           let n = ref 0 in
           (try
              while true do
                ignore (input_line ic);
                incr n
              done
            with End_of_file -> close_in ic);
           acc + !n)
         0
  with Sys_error _ -> 0

let tcb () =
  section "TCB size and attack surface (paper §5.1.1)";
  Fmt.pr
    "  switcher: %d assembly instructions (%d bytes); paper: ~355 (ours omits the asm trap path)@."
    Switcher.instruction_count
    (Isa.code_bytes Switcher.program);
  let loc name dir paper_loc entries =
    let n = count_loc dir in
    Fmt.pr "  %-10s %5s LoC, %2d entry points   (paper: %s LoC)@." name
      (if n > 0 then string_of_int n else "?")
      entries paper_loc
  in
  loc "loader" "lib/loader" "1.9K" 0;
  loc "allocator" "lib/alloc" "3.1K" 9;
  loc "scheduler" "lib/sched" "1.6K" 6;
  Fmt.pr "  (LoC measured from this repository's sources when run from the repo root)@."

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md).                                             *)
(* ------------------------------------------------------------------ *)

let ablate_quarantine () =
  section "Ablation: quarantine drain factor (paper: >1 needed to drain)";
  List.iter
    (fun kdrain ->
      let machine = Machine.create () in
      let fw = bench_firmware () in
      let sys = Result.get_ok (System.boot ~machine ~drain_per_op:kdrain fw) in
      let kk = sys.System.kernel in
      let leftover = ref 0 in
      Kernel.implement1 kk ~comp:"bench" ~entry:"main" (fun ctx _ ->
          let q = quota_of ctx "bench_quota" in
          for _ = 1 to 200 do
            match Allocator.allocate ctx ~alloc_cap:q 64 with
            | Ok c ->
                ignore (Allocator.free ctx ~alloc_cap:q c);
                Machine.revoker_kick machine
            | Error _ -> ()
          done;
          Machine.run_revoker_to_completion machine;
          Machine.run_revoker_to_completion machine;
          (* Give the allocator a few ops to drain what it can. *)
          for _ = 1 to 8 do
            match Allocator.allocate ctx ~alloc_cap:q 8 with
            | Ok c -> ignore (Allocator.free ctx ~alloc_cap:q c)
            | Error _ -> ()
          done;
          leftover := Allocator.quarantined_bytes sys.System.alloc;
          Cap.null);
      System.run ~until_cycles:2_000_000_000 sys;
      Fmt.pr "  drain/op=%d -> quarantine after 200 free + sweeps + 8 ops: %5d B %s@."
        kdrain !leftover
        (if kdrain >= 2 then "(drains)" else "(accumulates: frees outpace draining)"))
    [ 1; 2; 8 ]

let ablate_loadfilter () =
  section "Ablation: load filter off (temporal safety collapses)";
  let b = boot_bench () in
  run_bench b (fun ctx ->
      let q = quota_of ctx "bench_quota" in
      let m = b.machine in
      let c = Result.get_ok (Allocator.allocate ctx ~alloc_cap:q 64) in
      let stash = Result.get_ok (Allocator.allocate ctx ~alloc_cap:q 8) in
      Machine.store_cap m ~auth:stash ~addr:(Cap.base stash) c;
      ignore (Allocator.free ctx ~alloc_cap:q c);
      let with_filter = Cap.tag (Machine.load_cap m ~auth:stash ~addr:(Cap.base stash)) in
      Memory.set_load_filter (Machine.mem m) false;
      let without = Cap.tag (Machine.load_cap m ~auth:stash ~addr:(Cap.base stash)) in
      Memory.set_load_filter (Machine.mem m) true;
      Fmt.pr "  dangling capability loads tagged: with filter=%b, without=%b@."
        with_filter without;
      Fmt.pr "  (without the filter a freed pointer stays usable until a revocation pass)@.")

let ablate_revoker () =
  section "Ablation: revoker sweep rate";
  List.iter (fun rate -> fig6b ~revoker_rate:rate ()) [ 1; 3; 12 ]

(* Long-mode fault-injection campaign (the quick 8-scenario version
   runs under `dune runtest`): 200 seeded scenarios by default,
   FAULT_CAMPAIGN_ITERS overrides, any failing seed replays exactly. *)
(* Asking for more domains than the host has cores is a valid
   experiment (scheduling-overhead measurement) but a misleading
   speedup number; say so on stderr, where the wall clock also goes. *)
let warn_oversubscribed ~what jobs =
  let cores = Farm.default_jobs () in
  if jobs > cores then
    Fmt.epr
      "%s: --jobs %d exceeds the %d host cores; the wall clock measures \
       domain scheduling overhead, not parallel speedup@."
      what jobs cores

let campaign ?(jobs = 1) ?(fleet_metrics = false) () =
  let n = Fault_campaign.iters ~default:200 in
  section
    (Fmt.str "Fault-injection campaign (%d scenarios, seeds 1..%d)" n n);
  let t0 = Unix.gettimeofday () in
  let failures, outcomes =
    Fault_campaign.run ~jobs ~base_seed:1 ~n ()
  in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  Fmt.pr "  scenarios              %10d@." (List.length outcomes);
  Fmt.pr "  faults injected        %10d@."
    (sum (fun o -> o.Fault_campaign.oc_faults));
  Fmt.pr "  micro-reboots          %10d@."
    (sum (fun o -> o.Fault_campaign.oc_reboots));
  Fmt.pr "  svc calls ok / failed  %10d / %d@."
    (sum (fun o -> o.Fault_campaign.oc_svc_ok))
    (sum (fun o -> o.Fault_campaign.oc_svc_err));
  Fmt.pr "  simulated cycles       %10d@."
    (sum (fun o -> o.Fault_campaign.oc_cycles));
  Fmt.pr "  invariant violations   %10d@." failures;
  (* The fleet rollup merges per-scenario Agg snapshots in submission
     order — outcomes arrive from Fault_campaign.run already in that
     order for every --jobs, so this block is byte-identical too (the
     campaign-par smoke target diffs it with the flag on). *)
  if fleet_metrics then
    print_string
      (Agg.table
         (Agg.merge_all
            (List.map (fun o -> o.Fault_campaign.oc_metrics) outcomes)));
  (* Wall clock goes to stderr: stdout must be byte-identical for every
     --jobs value (the campaign-par smoke target diffs it). *)
  Fmt.epr "campaign: %d jobs, wall clock %.1f s@." jobs
    (Unix.gettimeofday () -. t0);
  if failures > 0 then exit 1

(* The subcommands' option parser.  Each option is a flag, an integer
   with a minimum, or a string; the arguments left over (positionals,
   unknown options, an option missing its value) come back in order.
   An integer option with a bad value prints "<cmd>: ..." and exits 1. *)
type opt = Flag of bool ref | Int of int * (int -> unit) | Str of string option ref

let parse_opts ~cmd opts args =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest -> (
        match (List.assoc_opt a opts, rest) with
        | Some (Flag r), _ ->
            r := true;
            go acc rest
        | Some (Str r), v :: rest ->
            r := Some v;
            go acc rest
        | Some (Int (min, set)), v :: rest -> (
            match int_of_string_opt v with
            | Some n when n >= min ->
                set n;
                go acc rest
            | _ ->
                Fmt.epr "%s: %s expects %s, got %s@." cmd a
                  (if min = 1 then "a positive integer"
                   else Printf.sprintf "an integer >= %d" min)
                  v;
                exit 1)
        | (None | Some (Str _ | Int _)), _ -> go (a :: acc) rest)
  in
  go [] args

(* For subcommands that take options only. *)
let no_positionals ~cmd = function
  | [] -> ()
  | a :: _ ->
      Fmt.epr "%s: unknown argument %s@." cmd a;
      exit 1

let campaign_cmd args =
  let jobs = ref (Farm.default_jobs ()) in
  let fleet_metrics = ref false in
  no_positionals ~cmd:"campaign"
    (parse_opts ~cmd:"campaign"
       [ ("--jobs", Int (1, ( := ) jobs)); ("--fleet-metrics", Flag fleet_metrics) ]
       args);
  warn_oversubscribed ~what:"campaign" !jobs;
  campaign ~jobs:!jobs ~fleet_metrics:!fleet_metrics ()

(* ------------------------------------------------------------------ *)
(* Cycle-attributed tracing (lib/obs): run a workload under a trace   *)
(* sink, then print the event log + per-compartment attribution       *)
(* (`-- trace`, optionally --out chrome.json) or the flat metrics     *)
(* table (`-- metrics`).  Output is a pure function of the workload,  *)
(* pinned by test/golden_trace.expected.                              *)
(* ------------------------------------------------------------------ *)

(* The producer/consumer example (examples/producer_consumer.ml), run
   silently: a sensor thread feeds six readings through the hardened
   queue compartment to a lower-priority display thread, exercising
   compartment calls, futex sleeps, the allocator and the revoker. *)
let pc_firmware () =
  System.image ~name:"producer-consumer"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"sensor_quota" ~quota:2048 ]
    ~threads:
      [
        F.thread ~name:"sensor" ~comp:"sensor" ~entry:"run" ~priority:2
          ~stack_size:2048 ();
        F.thread ~name:"display" ~comp:"display" ~entry:"run" ~priority:1
          ~stack_size:2048 ();
      ]
    [
      F.compartment "sensor" ~globals_size:32
        ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
        ~imports:
          (System.standard_imports @ [ F.Static_sealed { target = "sensor_quota" } ]);
      F.compartment "display" ~globals_size:32
        ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
        ~imports:System.standard_imports;
    ]

(* A machine with a trace ring and a flight recorder attached: reuse
   the sinks CHERIOT_OBS attached when present, so the env selector and
   the subcommands agree on a single event stream.  [?profile] forces a
   profiler with the given mode (the `profile` subcommand's
   --interval). *)
let observed_machine ?profile () =
  let machine = Machine.create () in
  let obs =
    match Machine.trace machine with
    | Some o -> o
    | None ->
        let o = Obs.create () in
        Machine.set_trace machine (Some o);
        o
  in
  let frn =
    match Machine.forensics machine with
    | Some f -> f
    | None ->
        let f = Forensics.create () in
        Machine.set_forensics machine (Some f);
        f
  in
  (match profile with
  | Some mode -> Machine.set_profiler machine (Some (Profiler.create ~mode ()))
  | None -> ());
  (machine, obs, frn)

(* Allocation churn through a quota'd compartment with enough free ->
   revoker -> release round trips to populate the quarantine-residency
   histogram (producer_consumer holds its one allocation for the whole
   run, so its residency figures are legitimately zero). *)
let churn_firmware () =
  System.image ~name:"alloc-churn"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"churn_quota" ~quota:4096 ]
    ~threads:
      [
        F.thread ~name:"churn" ~comp:"churn" ~entry:"run" ~priority:1
          ~stack_size:2048 ();
      ]
    [
      F.compartment "churn" ~globals_size:16
        ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
        ~imports:
          (System.standard_imports @ [ F.Static_sealed { target = "churn_quota" } ]);
    ]

let run_workload ?profile = function
  | "producer_consumer" ->
      let machine, obs, frn = observed_machine ?profile () in
      let sys = Result.get_ok (System.boot ~machine (pc_firmware ())) in
      let k = sys.System.kernel in
      let readings = 6 in
      let handle_box = ref Cap.null in
      Kernel.implement1 k ~comp:"sensor" ~entry:"run" (fun ctx _ ->
          let quota = Kernel.import_cap k ~comp:"sensor" "sealed:sensor_quota" in
          (match Queue_comp.create ctx ~alloc_cap:quota ~elem_size:4 ~capacity:4 with
          | Error _ -> ()
          | Ok handle ->
              handle_box := handle;
              let ctx, elem = Kernel.stack_alloc ctx 8 in
              for i = 1 to readings do
                Machine.store machine ~auth:elem ~addr:(Cap.base elem) ~size:4
                  (20 + (i * 3 mod 7));
                ignore (Queue_comp.send ctx ~handle elem ());
                Kernel.sleep ctx 20_000
              done);
          Cap.null);
      Kernel.implement1 k ~comp:"display" ~entry:"run" (fun ctx _ ->
          while not (Cap.tag !handle_box) do
            Kernel.yield ctx
          done;
          let handle = !handle_box in
          let ctx, into = Kernel.stack_alloc ctx 8 in
          for _ = 1 to readings do
            ignore (Queue_comp.recv ctx ~handle ~into ())
          done;
          Cap.null);
      System.run sys;
      (machine, obs, frn)
  | "alloc_churn" ->
      let machine, obs, frn = observed_machine ?profile () in
      let sys = Result.get_ok (System.boot ~machine (churn_firmware ())) in
      let k = sys.System.kernel in
      Kernel.implement1 k ~comp:"churn" ~entry:"run" (fun ctx _ ->
          let quota = Kernel.import_cap k ~comp:"churn" "sealed:churn_quota" in
          let held = ref [] in
          for i = 1 to 12 do
            (match Allocator.allocate ctx ~alloc_cap:quota (32 + (8 * (i mod 5))) with
            | Ok c -> held := !held @ [ c ]
            | Error _ -> ());
            (if List.length !held > 2 then
               match !held with
               | oldest :: rest ->
                   held := rest;
                   ignore (Allocator.free ctx ~alloc_cap:quota oldest)
               | [] -> ());
            Kernel.sleep ctx 30_000
          done;
          List.iter (fun c -> ignore (Allocator.free ctx ~alloc_cap:quota c)) !held;
          (* Let the revoker finish, then drive a few more allocator
             operations so the drained quarantine is actually released
             (releases happen inside alloc/free). *)
          for _ = 1 to 3 do
            Kernel.sleep ctx 50_000;
            match Allocator.allocate ctx ~alloc_cap:quota 16 with
            | Ok c -> ignore (Allocator.free ctx ~alloc_cap:quota c)
            | Error _ -> ()
          done;
          Cap.null);
      System.run sys;
      Machine.run_revoker_to_completion machine;
      (machine, obs, frn)
  | "iot" | "fig7" ->
      (* The Fig. 7 IoT case study (fast phase scaling: same phases,
         same ping-of-death and micro-reboot, ~50x shrunk sleeps) on an
         observed machine — the workload behind the worked flamegraph
         in EXPERIMENTS.md. *)
      let machine, obs, frn = observed_machine ?profile () in
      ignore (Iot_scenario.run ~fast:true ~machine ());
      (machine, obs, frn)
  | other -> invalid_arg ("run_workload: " ^ other)

(* Argument errors in the workload subcommands (an unknown workload, a
   flag missing its value, extra positional arguments) print the
   command's usage line on stderr and exit 1 before running anything. *)
let workloads = [ "producer_consumer"; "alloc_churn"; "iot"; "fig7" ]

let usage_exit line =
  Fmt.epr "usage: %s@." line;
  exit 1

(* Every file a subcommand writes goes through here: an unwritable path
   prints "<cmd>: <message>" and exits 1 instead of escaping as an
   uncaught Sys_error (exit 2). *)
let or_exit ~cmd write =
  try write ()
  with Sys_error m ->
    Fmt.epr "%s: %s@." cmd m;
    exit 1

let write_out ~cmd path text =
  or_exit ~cmd (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text))

(* A lone positional argument that is not what the command expects. *)
let bad_positional ~usage ~expected w =
  if String.starts_with ~prefix:"-" w then
    Fmt.epr "unknown option or option missing its value: %s@." w
  else Fmt.epr "unknown %s %s@." expected w;
  usage_exit usage

let workload_arg ~usage = function
  | [] -> "producer_consumer"
  | [ w ] when List.mem w workloads -> w
  | [ w ] ->
      bad_positional ~usage
        ~expected:
          (Printf.sprintf "workload (expected one of: %s):" (String.concat " " workloads))
        w
  | _ -> usage_exit usage

(* Attribution comes from the recorder's tracker, which never drops an
   event, not from the bounded ring. *)
let print_attribution machine frn =
  let total = Machine.cycles machine in
  Fmt.pr "attribution (total %d cycles):@." total;
  List.iter
    (fun (label, c) ->
      Fmt.pr "  %-12s %10d  %5.1f%%@." label c
        (100. *. float_of_int c /. float_of_int (max 1 total)))
    (Forensics.attribution frn ~total_cycles:total)

let trace_cmd args =
  let out = ref None in
  let rest =
    parse_opts ~cmd:"trace" [ ("--out", Str out) ] args
  in
  let workload = workload_arg ~usage:"trace <workload> [--out trace.json]" rest in
  let machine, obs, frn = run_workload workload in
  section (Printf.sprintf "trace %s" workload);
  List.iter (fun e -> Fmt.pr "%a@." Obs.pp_event e) (Obs.events obs);
  Fmt.pr "events total=%d retained=%d dropped=%d@." (Obs.total obs)
    (Obs.length obs) (Obs.dropped obs);
  print_attribution machine frn;
  match !out with
  | None -> ()
  | Some f ->
      write_out ~cmd:"trace" f
        (Json.to_string ~pretty:true (Obs.to_chrome (Obs.events obs)) ^ "\n");
      Fmt.pr "wrote Chrome trace_event JSON to %s@." f

(* Metrics: the flat per-source/per-kind counter table (pinned by
   test/golden_trace.expected), or — with --openmetrics — the Agg fleet
   snapshot of this one machine as Prometheus text exposition.  --out
   redirects either rendering to a file, matching `-- trace`. *)
let metrics_cmd args =
  let openmetrics = ref false in
  let out = ref None in
  let rest =
    parse_opts ~cmd:"metrics"
      [ ("--openmetrics", Flag openmetrics); ("--out", Str out) ]
      args
  in
  let workload =
    workload_arg ~usage:"metrics <workload> [--openmetrics] [--out f]" rest
  in
  let machine, obs, frn = run_workload workload in
  let text =
    if !openmetrics then
      Agg.to_openmetrics
        (Agg.of_forensics frn ~cycles:(Machine.cycles machine))
    else
      let total_cycles = Machine.cycles machine in
      Json.to_string ~pretty:true
        (Obs.metrics ~total_cycles
           ~attribution:(Forensics.attribution frn ~total_cycles)
           obs)
      ^ "\n"
  in
  match !out with
  | None -> print_string text
  | Some f ->
      write_out ~cmd:"metrics" f text;
      Fmt.pr "wrote %s metrics to %s@."
        (if !openmetrics then "OpenMetrics" else "JSON")
        f

(* Deterministic profiling: run a workload with the sampling profiler
   attached and print the folded stacks (flamegraph.pl / speedscope
   input) on stdout — pinned by test/golden_profile.expected via `make
   profile-smoke`.  In exact mode (the default) the total weight must
   reconcile with Machine.cycles to the cycle; `profile` enforces that
   itself and fails loudly on a mismatch.  --interval N switches to
   sampled mode (one sample per N simulated cycles); --out writes the
   self-contained JSON profile. *)
let profile_cmd args =
  let interval = ref None in
  let out = ref None in
  let rest =
    parse_opts ~cmd:"profile"
      [
        ("--interval", Int (2, fun n -> interval := Some n));
        ("--out", Str out);
      ]
      args
  in
  let workload =
    workload_arg ~usage:"profile <workload> [--interval N] [--out f]" rest
  in
  let mode =
    match !interval with
    | Some n -> Profiler.Sampled n
    | None -> Profiler.Exact
  in
  let machine, _, _ = run_workload ~profile:mode workload in
  let prof = Option.get (Machine.profiler machine) in
  let total_cycles = Machine.cycles machine in
  print_string (Profiler.to_folded_text prof ~total_cycles);
  let weight = Profiler.total_weight prof ~total_cycles in
  (* summary to stderr: stdout stays pure folded-stack lines *)
  Fmt.epr "profile: %s, total weight %d of %d cycles@."
    (match mode with
    | Profiler.Exact -> "exact attribution"
    | Profiler.Sampled n -> Printf.sprintf "sampled every %d cycles" n)
    weight total_cycles;
  (match mode with
  | Profiler.Exact when weight <> total_cycles ->
      Fmt.epr "profile: RECONCILIATION FAILED (weight %d <> cycles %d)@."
        weight total_cycles;
      exit 1
  | _ -> ());
  match !out with
  | None -> ()
  | Some f ->
      write_out ~cmd:"profile" f
        (Json.to_string ~pretty:true (Profiler.to_json prof ~total_cycles) ^ "\n");
      Fmt.epr "wrote profile JSON to %s@." f

(* The per-compartment health report (Forensics): dumps + histograms +
   the recorder's cycle attribution, in text then JSON.  Deterministic
   for a given workload — `report producer_consumer` is pinned by
   test/golden_report.expected. *)
let report_cmd args =
  let workload = workload_arg ~usage:"report <workload>" args in
  let machine, _, frn = run_workload workload in
  let total_cycles = Machine.cycles machine in
  section (Printf.sprintf "report %s" workload);
  print_string (Forensics.report_table frn ~total_cycles);
  print_endline
    (Json.to_string ~pretty:true (Forensics.report_json frn ~total_cycles))

(* Crash forensics: run a faulting scenario with the flight recorder
   attached and print every dump (text, then JSON).  `pod` replays the
   §5.3.3 ping-of-death micro-reboot; an integer replays that
   fault-campaign seed.  `--replay-context N` additionally records the
   run's input journal (lib/replay) and prints, under each dump, every
   journaled input — IRQ raise, frame delivery, fault injection — in the
   N simulated cycles leading up to the fault: the time-travel view of
   what the machine was fed just before it crashed. *)
let crashdump_cmd args =
  let context = ref None in
  let rest =
    parse_opts ~cmd:"crashdump"
      [ ("--replay-context", Int (1, fun n -> context := Some n)) ]
      args
  in
  let usage = "crashdump <pod|campaign-seed> [--replay-context N]" in
  let scenario =
    match rest with
    | [] -> "pod"
    | [ s ] when s = "pod" || s = "ping_of_death" || int_of_string_opt s <> None -> s
    | [ s ] ->
        bad_positional ~usage
          ~expected:"crashdump scenario (expected pod or an integer campaign seed):" s
    | _ -> usage_exit usage
  in
  (* The journal recorder is observationally invisible, so attaching it
     only when asked cannot change the dumps. *)
  let session = ref None in
  let attach m = if !context <> None then session := Some (Replay.record m) in
  let dumps =
    match int_of_string_opt scenario with
    | Some seed ->
        let o = Fault_campaign.run_scenario ~prepare:attach ~seed () in
        section (Printf.sprintf "crashdump: campaign seed %d" seed);
        Fmt.pr "faults=%d reboots=%d dumps=%d@." o.Fault_campaign.oc_faults
          o.Fault_campaign.oc_reboots
          (List.length o.Fault_campaign.oc_dumps);
        o.Fault_campaign.oc_dumps
    | None -> (
        match scenario with
        | "pod" | "ping_of_death" ->
            let machine, _, frn = observed_machine () in
            attach machine;
            section "crashdump: ping-of-death (iot scenario, fast profile)";
            ignore (Iot_scenario.run ~fast:true ~machine ());
            Forensics.dumps frn
        | other -> invalid_arg ("crashdump: " ^ other))
  in
  List.iter (fun d -> Fmt.pr "%a@." Forensics.pp_dump d) dumps;
  print_endline
    (Json.to_string ~pretty:true
       (Json.List (List.map Forensics.dump_json dumps)));
  match (!context, !session) with
  | Some n, Some s ->
      let journal = Replay.recorded s in
      Replay.finish s;
      List.iter
        (fun d ->
          let hi = d.Forensics.d_cycle in
          let lo = max 0 (hi - n) in
          let slice =
            List.filter
              (fun e -> e.Replay.e_cycle >= lo && e.Replay.e_cycle <= hi)
              journal
          in
          Fmt.pr "@.inputs within %d cycles of the %s fault at cycle %d:@." n
            d.Forensics.d_comp hi;
          if slice = [] then Fmt.pr "  (none journaled)@."
          else
            List.iter (fun e -> Fmt.pr "  %s@." (Replay.entry_to_string e)) slice)
        dumps
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Differential attack campaigns (lib/attack): the containment        *)
(* matrix, CHERIoT vs the MPU baseline.  Stdout is a pure function of *)
(* (--seed, --n, --disarm) — identical for every --jobs — and pinned  *)
(* by test/golden_attack_matrix.expected and `make attack-smoke`.     *)
(* ------------------------------------------------------------------ *)

let attack_matrix_cmd args =
  let jobs = ref (Farm.default_jobs ()) in
  let seed = ref 1 in
  let n = ref 6 in
  let json = ref false in
  let disarm = ref false in
  let fleet_metrics = ref false in
  let replay = ref None in
  let replay_usage () =
    Fmt.epr
      "attack-matrix: --replay expects <family>:<model>:<seed> \
       (families: %s; models: %s)@."
      (String.concat "," (List.map Attack.family_name Attack.families))
      (String.concat "," (List.map Attack.model_name Attack.models));
    exit 1
  in
  let replay_cell v =
    match String.split_on_char ':' v with
    | [ f; m; s ] -> (
        match
          (Attack.family_of_name f, Attack.model_of_name m, int_of_string_opt s)
        with
        | Some family, Some model, Some seed -> (family, model, seed)
        | _ -> replay_usage ())
    | _ -> replay_usage ()
  in
  no_positionals ~cmd:"attack-matrix"
    (parse_opts ~cmd:"attack-matrix"
       [
         ("--jobs", Int (1, ( := ) jobs));
         ("--seed", Int (1, ( := ) seed));
         ("--n", Int (1, ( := ) n));
         ("--json", Flag json);
         ("--disarm", Flag disarm);
         ("--fleet-metrics", Flag fleet_metrics);
         ("--replay", Str replay);
       ]
       args);
  let armed = not !disarm in
  match Option.map replay_cell !replay with
  | Some (family, model, seed) ->
      (* Replay one cell with its full forensic record. *)
      let o = Attack.run_one ~armed ~family ~model ~seed () in
      section
        (Printf.sprintf "attack replay: %s on %s, seed %d"
           (Attack.family_name family) (Attack.model_name model) seed);
      Fmt.pr "verdict: %s (%d cycles)@."
        (Attack.verdict_name o.Attack.at_verdict)
        o.Attack.at_cycles;
      List.iter (fun e -> Fmt.pr "evidence: %s@." e) o.Attack.at_evidence;
      List.iter
        (fun d -> Fmt.pr "%a@." Forensics.pp_dump d)
        o.Attack.at_dumps;
      if o.Attack.at_journal <> [] then begin
        Fmt.pr "input journal:@.";
        List.iter (fun l -> Fmt.pr "  %s@." l) o.Attack.at_journal
      end
  | None ->
      warn_oversubscribed ~what:"attack-matrix" !jobs;
      let t0 = Unix.gettimeofday () in
      let outcomes =
        Attack.run_matrix ~jobs:!jobs ~armed ~base_seed:!seed ~n:!n ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      if !json then
        print_endline (Json.to_string ~pretty:true (Attack.matrix_json outcomes))
      else begin
        section "differential attack campaigns: containment matrix";
        print_string (Attack.render_matrix outcomes)
      end;
      (* Opt-in fleet rollup of the CHERIoT runs' metrics snapshots,
         merged in submission order — byte-identical at any --jobs (the
         attack-smoke fleet diff pins it); opt-in so the default stdout
         stays pinned by test/golden_attack_matrix.expected. *)
      if !fleet_metrics then
        print_string
          (Agg.table
             (Agg.merge_all
                (List.map (fun o -> o.Attack.at_metrics) outcomes)));
      (* wall clock to stderr: stdout stays byte-identical across --jobs *)
      Fmt.epr "attack-matrix: %d scenarios in %.2fs (%d jobs)@."
        (List.length outcomes) dt !jobs

(* ------------------------------------------------------------------ *)
(* Deterministic record-replay (lib/replay).                          *)
(* ------------------------------------------------------------------ *)

(* The machine journals every input crossing its boundary (IRQ raises,
   injected net frames, fault injections) with a cycle stamp; since the
   simulation is a pure function of its inputs, re-running the same
   workload must consume a recorded journal exactly.  `record` journals
   a campaign seed to a file, `verify` re-runs the seed under a
   verifying handler that fails with a cycle stamp at the first
   mismatch, and `diff` bisects two journals cycle-window by
   cycle-window (`make replay-smoke` drives record+verify against the
   committed golden journal). *)
let replay_cmd args =
  (* An unreadable or malformed journal is a one-line error, exit 1. *)
  let load path =
    match Replay.load path with
    | Ok j -> j
    | Error m ->
        Fmt.epr "replay: %s@." m;
        exit 1
  in
  let scenario_with session_of seed =
    let session = ref None in
    let outcome =
      Fault_campaign.run_scenario
        ~prepare:(fun m -> session := Some (session_of m))
        ~seed ()
    in
    (Option.get !session, outcome)
  in
  match args with
  | [ "record"; seed; path ] when int_of_string_opt seed <> None ->
      let seed = int_of_string seed in
      let session, outcome = scenario_with Replay.record seed in
      let entries = Replay.recorded session in
      Replay.finish session;
      or_exit ~cmd:"replay" (fun () ->
          Replay.save path ~header:(Printf.sprintf "campaign seed %d" seed) entries);
      section (Printf.sprintf "replay record: campaign seed %d" seed);
      Fmt.pr "journal %s: %d entries over %d cycles (faults=%d reboots=%d)@."
        path (List.length entries) outcome.Fault_campaign.oc_cycles
        outcome.Fault_campaign.oc_faults outcome.Fault_campaign.oc_reboots
  | [ "verify"; seed; path ] when int_of_string_opt seed <> None ->
      let seed = int_of_string seed in
      let header, journal = load path in
      section (Printf.sprintf "replay verify: %s (%s)" path header);
      (try
         let session, outcome =
           scenario_with (fun m -> Replay.verify m journal) seed
         in
         Replay.finish session;
         Fmt.pr "replay verified: %d journal entries matched over %d cycles@."
           (Replay.matched session) outcome.Fault_campaign.oc_cycles
       with Replay.Replay_error e ->
         Fmt.epr "%s@." (Replay.error_to_string e);
         exit 1)
  | [ "diff"; a; b ] ->
      let _, ja = load a in
      let _, jb = load b in
      section (Printf.sprintf "replay diff: %s vs %s" a b);
      (match Replay.divergence_report ja jb with
      | None -> Fmt.pr "journals identical (%d entries)@." (List.length ja)
      | Some report ->
          Fmt.pr "%s@." report;
          exit 1)
  | _ ->
      Fmt.epr
        "usage: replay record <seed> <file> | replay verify <seed> <file> | \
         replay diff <a> <b>@.";
      exit 1

(* ------------------------------------------------------------------ *)
(* Tight-loop rig: `perf` and `alloc-gate` (host timing: perfbench/). *)
(* ------------------------------------------------------------------ *)

(* A rig is machine + interpreter + entry sentry for a program run in a
   machine with the usual furniture attached (network world, armed
   timer); [regs] seeds the capability registers the program does not
   set itself.  Each program (re)initializes its own loop registers, so
   re-entering the same rig measures the steady state — segments
   decoded, blocks compiled. *)
type tight_rig = { tr_interp : Interp.t; tr_entry : Cap.t }

let rig_of prog regs =
  let machine = Machine.create () in
  ignore (Netsim.attach machine);
  Machine.set_timer machine (Some 4_000_000_000);
  let interp = Interp.create machine in
  let code_base = 0x4000_0000 in
  Interp.map_segment interp ~base:code_base prog;
  let pcc =
    Cap.make_root ~base:code_base
      ~top:(code_base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  let sram =
    Cap.make_root ~base:(Machine.sram_base machine)
      ~top:(Machine.sram_base machine + Machine.sram_size machine)
      ~perms:Perm.Set.read_write
  in
  List.iter (fun (r, c) -> Interp.set_reg interp r c) (regs ~sram ~pcc);
  { tr_interp = interp; tr_entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) }

(* The tight loop: arithmetic, a store and a load per iteration, so the
   instruction-dispatch, memory and tick paths are all on the measured
   loop.  Its only register writes are integers. *)
let tight_rig () =
  let iters = 500_000 in
  rig_of
    (Isa.assemble ~name:"spin"
       [
         Isa.I (Isa.Li (4, 0));
         Isa.I (Isa.Li (5, iters));
         Isa.L "loop";
         Isa.I (Isa.Addi (4, 4, 1));
         Isa.I (Isa.Sw (4, 0, 6));
         Isa.I (Isa.Lw (7, 0, 6));
         Isa.I (Isa.Bne (4, 5, "loop"));
         Isa.I Isa.Halt;
       ])
    (fun ~sram ~pcc:_ -> [ (6, sram) ])

(* A straight-line capability block shaped like the switcher's legs:
   five rounds of copy, cursor moves, bounds, unseal and sentry sealing
   per trip, every one writing a whole capability register, closed by
   the loop counter. *)
let cap_block_rig () =
  let iters = 100_000 in
  let round =
    Isa.
      [
        I (Mv (11, 6));
        I (Cincaddr (11, 11, 12));
        I (Csetaddr (13, 6, 14));
        I (Csetbounds (13, 13, 15));
        I (Cunseal (7, 9, 8));
        I (Csealentry (3, 10, Cap.Otype.Call_disable));
      ]
  in
  let key =
    Cap.with_address_unsealed
      (Cap.make_sealing_root ~first:Cap.Otype.data_first ~last:Cap.Otype.data_last)
      Cap.Otype.data_first
  in
  rig_of
    (Isa.assemble ~name:"capblock"
       (Isa.
          [
            I (Li (4, 0));
            I (Li (5, iters));
            I (Li (12, 64));
            I (Li (15, 64));
            I (Cgetaddr (14, 6));
            I (Addi (14, 14, 256));
            L "loop";
          ]
       @ List.concat (List.init 5 (fun _ -> round))
       @ Isa.[ I (Addi (4, 4, 1)); I (Bne (4, 5, "loop")); I Halt ]))
    (fun ~sram ~pcc ->
      [ (6, sram); (8, key); (9, Cap.exn (Cap.seal ~key sram)); (10, pcc) ])

(* One entry-to-halt run of the rig: (ns/instr, minor heap words/instr,
   promoted words/instr).  GC deltas come from [Gc.quick_stat], which
   reads counters without perturbing the heap. *)
let tight_run rig =
  let interp = rig.tr_interp in
  let i0 = Interp.instret interp in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  (match Interp.run ~fuel:max_int interp rig.tr_entry with
  | Interp.Halted -> ()
  | Interp.Trapped tr ->
      Fmt.failwith "perf/alloc-gate: interpreter loop trapped (%a)" Interp.pp_trap tr
  | Interp.Exited _ -> failwith "perf/alloc-gate: interpreter loop exited");
  let dt = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let instrs = float_of_int (Interp.instret interp - i0) in
  ( dt *. 1e9 /. instrs,
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. instrs,
    (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. instrs )

(* `bench -- perf`: ns/instr of the tight loop, then of the
   switcher-shaped capability block (one cold run each). *)
let perf_cmd = function
  | [] ->
      let ns, _, _ = tight_run (tight_rig ()) in
      Fmt.pr "%.1f ns/instr@." ns;
      let ns, _, _ = tight_run (cap_block_rig ()) in
      Fmt.pr "%.1f ns/instr switcher-shaped capability block@." ns
  | a :: _ ->
      Fmt.epr "perf: unknown argument %s@.usage: bench -- perf@." a;
      exit 1

(* Warm minor-heap words per compartment-call round trip
   ([Kernel.call1] into the callee and back through both switcher legs),
   averaged over [n] calls after a few warm-up calls have decoded the
   switcher and compiled its superblocks. *)
let call_round_trip_words ?(n = 200) import =
  let b = boot_bench () in
  let words = ref 0. in
  run_bench b (fun ctx ->
      let call () = ignore (Kernel.call1 ctx ~import [ iv 1 ]) in
      for _ = 1 to 4 do
        call ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        call ()
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  !words

(* Compiled blocks the switcher segment holds once calls of every arity
   (0..6), posture and stack requirement (0, 256 and 1024 B) have run
   twice each: a separate image whose "shapes" compartment has one
   entry per shape.  Read from the block caches after the run. *)
let switcher_blocks () =
  let shapes =
    List.concat_map
      (fun arity ->
        List.concat_map
          (fun posture -> List.map (fun min_stack -> (arity, posture, min_stack)) [ 0; 256; 1024 ])
          [ F.Interrupts_enabled; F.Interrupts_disabled ])
      [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  let name (arity, posture, min_stack) =
    Printf.sprintf "a%d_%s_s%d" arity
      (match posture with F.Interrupts_enabled -> "ie" | F.Interrupts_disabled -> "id")
      min_stack
  in
  let fw =
    System.image ~name:"shapes"
      ~threads:[ F.thread ~name:"main" ~comp:"caller" ~entry:"main" ~stack_size:4096 () ]
      [
        F.compartment "caller"
          ~entries:[ F.entry "main" ~arity:0 ~min_stack:2048 ]
          ~imports:
            (System.standard_imports
            @ List.map (fun sh -> F.Call { comp = "shapes"; entry = name sh }) shapes);
        F.compartment "shapes"
          ~entries:
            (List.map
               (fun ((arity, posture, min_stack) as sh) ->
                 F.entry (name sh) ~arity ~min_stack ~posture)
               shapes);
      ]
  in
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine fw) in
  let k = sys.System.kernel in
  List.iter (fun sh -> Kernel.implement1 k ~comp:"shapes" ~entry:(name sh) (fun _ _ -> Cap.null)) shapes;
  Kernel.implement1 k ~comp:"caller" ~entry:"main" (fun ctx _ ->
      for _ = 1 to 2 do
        List.iter
          (fun ((arity, _, _) as sh) ->
            match Kernel.call ctx ~import:("shapes." ^ name sh) (List.init arity iv) with
            | Ok _ -> ()
            | Error e -> Fmt.failwith "alloc-gate: call %s: %a" (name sh) Kernel.pp_call_error e)
          shapes
      done;
      Cap.null);
  System.run sys;
  Interp.compiled_blocks (Kernel.interp k)

(* Warm minor-heap words per 16 B allocate/free pair (two compartment
   calls into the allocator and its table and quarantine bookkeeping),
   averaged over 200 pairs after as many warm-up pairs have grown the
   tables. *)
let alloc_pair_words () =
  let n = 200 in
  let b = boot_bench () in
  let words = ref 0. in
  run_bench b (fun ctx ->
      let alloc_cap = quota_of ctx "bench_quota" in
      let pair () =
        match Allocator.allocate ctx ~alloc_cap 16 with
        | Ok c -> ignore (Allocator.free ctx ~alloc_cap c)
        | Error _ -> failwith "alloc-gate: 16 B allocation failed"
      in
      for _ = 1 to 200 do
        pair ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        pair ()
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  !words

(* Warm minor-heap words per slow tick with the revoker sweeping: a bare
   machine with capabilities spread over SRAM (some based in revoked
   granules), an interrupt raised every few ticks and delivered to a
   no-op handler, and every tick reaching the event horizon, so each
   one settles the sweep, drains the interrupts and recomputes the
   horizon.  A finished sweep is restarted.  Averaged over 5,000
   ticks. *)
let slow_tick_words () =
  let n = 5000 in
  let m = Machine.create () in
  Machine.set_trace m None;
  Machine.set_forensics m None;
  Machine.set_profiler m None;
  let mem = Machine.mem m in
  let base = Memory.base mem in
  let root = Cap.make_root ~base ~top:(base + Memory.size mem) ~perms:Perm.Set.universe in
  for i = 0 to 250 do
    let addr = base + (i * 127 * Memory.granule_size) in
    Memory.store_cap_priv mem ~addr
      (Cap.exn (Cap.set_bounds (Cap.with_address_exn root addr) ~length:Memory.granule_size));
    if i mod 4 = 0 then Memory.set_revoked mem ~addr ~len:Memory.granule_size
  done;
  Machine.set_deliver_hook m (Some (fun _ -> ()));
  let slow i =
    if i mod 7 = 0 then Machine.raise_irq m 5;
    Machine.tick m (Int.max 1 (Machine.defer_room m));
    if not (Machine.revoker_busy m) then Machine.revoker_kick m
  in
  Machine.revoker_kick m;
  for i = 1 to 100 do
    slow i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    slow i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Major-heap words one warm [boot_bench ()] allocates directly (blocks
   too large for the minor heap), not counting what minor collections
   promote.  A first boot runs beforehand so one-time set-up is not
   counted. *)
let boot_major_words () =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  ignore (boot_bench ());
  let w0 = direct () in
  ignore (boot_bench ());
  direct () -. w0

(* `bench -- alloc-gate`: CI gate for the packed register file's core
   claim — the steady-state superblock hot loop does zero minor-heap
   allocation per instruction — and for the allocation-free switcher
   path (warm words per compartment-call round trip, gated below).  The
   first run of the rig pays one-time costs (segment decode, block
   compilation); the second run must stay under 0.01 minor words per
   instruction (any real per-instruction allocation costs at least 2
   words, so the gate has ~200x margin while leaving headroom for O(1)
   entry/exit boxing). *)
let alloc_gate_cmd _args =
  let max_words = 0.01 in
  let rig = tight_rig () in
  ignore (tight_run rig);
  let _, minor, promoted = tight_run rig in
  Fmt.pr "alloc-gate: %10.6f minor words/instr, %10.6f promoted (max %.3f)@."
    minor promoted max_words;
  if minor > max_words then begin
    Fmt.epr
      "alloc-gate: FAIL — steady state allocates %.6f minor words/instr (max %.3f)@."
      minor max_words;
    exit 1
  end;
  (* Compartment-call round trips: once warm, the switcher path boxes
     nothing (direct access checks, closure-free block dispatch,
     capability loads and stores straight between the packed register
     file and the packed capability store, both legs entered from
     constant sentries and left by address, and the import loaded
     straight into ct2), and the kernel's glue allocates only what its
     interface hands out: the callee's context and argument array, the
     unpacked stack, globals and arguments, the callee's result pair
     and the caller's result and its [Ok].  Measured 44.3 (0 B) and
     63.0 (1024 B) words on OCaml 5.1.1 (default, non-opaque build);
     the ceilings are those plus 5%, less than one boxed capability
     (7 words) above them, so a leg that boxes its entry or exit again,
     or a boxed import, fails the gate. *)
  let over =
    List.filter
      (fun (label, import, max_words) ->
        let w = call_round_trip_words import in
        Fmt.pr "alloc-gate: call %-7s %8.1f minor words/round trip (max %.1f)@." label w
          max_words;
        w > max_words)
      [ ("0 B", "callee.e0", 46.5); ("1024 B", "callee.e1024", 66.2) ]
  in
  if over <> [] then begin
    Fmt.epr "alloc-gate: FAIL — compartment-call round trip over its ceiling (%s)@."
      (String.concat ", " (List.map (fun (l, _, _) -> l) over));
    exit 1
  end;
  (* Folded switcher blocks: a call leg is the block from switch_entry
     plus, when the callee needs stack, the zeroing loop's block with
     everything after the loop folded behind its exit; the return leg
     likewise.  Forward branches (the six argument-clearing skips, the
     posture diamond, the refusal checks) stay inside those blocks
     whatever the arity, posture or stack requirement, so the segment
     holds 4 blocks; a compiler that ended blocks at forward branches
     again would hold one per branch target reached (14 did). *)
  let blocks_max = 4 in
  let blocks = switcher_blocks () in
  Fmt.pr "alloc-gate: switcher %d compiled blocks after every call shape (max %d)@." blocks
    blocks_max;
  if blocks > blocks_max then begin
    Fmt.epr "alloc-gate: FAIL — the switcher segment holds %d compiled blocks (max %d)@."
      blocks blocks_max;
    exit 1
  end;
  (* The revoker's event path: a slow tick mid-sweep settles the sweep,
     searches the tag bitmap, drains interrupts and recomputes the
     horizon on ints alone.  Measured 0; the ceiling is the tight loop's
     0.01 per step, which any per-tick allocation (2 words or more)
     exceeds. *)
  let tick = slow_tick_words () in
  Fmt.pr "alloc-gate: %10.6f minor words/slow tick with the revoker sweeping (max %.3f)@."
    tick max_words;
  if tick > max_words then begin
    Fmt.epr "alloc-gate: FAIL — a slow tick allocates %.6f minor words (max %.3f)@." tick
      max_words;
    exit 1
  end;
  (* A 16 B allocate/free pair: two compartment calls plus the
     allocator's work.  Measured 247.5 words on OCaml 5.1.1 (the table's
     one boxed cell per allocation, its [index] binding, included); the
     ceiling leaves 5% headroom, less than per-operation table records
     (an entry record with its reference list, a quarantine cell and
     its tuple, option boxes: 25 words more per pair) or a call leg that
     boxes its entry or exit again would add. *)
  let pair_max_words = 260. in
  let pair = alloc_pair_words () in
  Fmt.pr "alloc-gate: alloc/free 16 B %8.1f minor words/pair (max %.0f)@." pair
    pair_max_words;
  if pair > pair_max_words then begin
    Fmt.epr "alloc-gate: FAIL — a 16 B allocate/free pair allocates %.1f minor words (max %.0f)@."
      pair pair_max_words;
    exit 1
  end;
  (* Boot: the bench image's direct major words.  Measured 34,311 on
     OCaml 5.1.1, all of it [Memory.create]'s: SRAM's 256 KiB of data
     bytes (32,770 words), the tag and revocation bitmaps (514 each) and
     the capability store's page directory (513); its pages, 256 ints
     each (four per granule), are the largest blocks the minor heap
     takes, so the three a boot tags start there.  The ceiling leaves
     ~15% headroom.  A store with a slot per granule (32,768 granules)
     overshoots it by at least ~27,000 words. *)
  let boot_max_words = 39_500. in
  let boot = boot_major_words () in
  Fmt.pr "alloc-gate: boot %8.0f major words (max %.0f)@." boot boot_max_words;
  if boot > boot_max_words then begin
    Fmt.epr "alloc-gate: FAIL — one boot allocates %.0f major words (max %.0f)@." boot
      boot_max_words;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* The experiment table drives both dispatch and the usage listing, so
   the two can never drift apart. *)
let experiments : (string * string * (unit -> unit)) list =
  [
    ("table2", "code and data size of RTOS components", table2);
    ("table3", "core API latencies (simulated cycles)", table3);
    ("fig6a", "call and interrupt latencies", fig6a);
    ("fig6b", "allocation latency vs heap pressure", fun () -> fig6b ());
    ("fig7", "full-system IoT case study (paper-scale trace)", fig7 ~fast:false);
    ("fig7-fast", "IoT case study, ~50x shrunk latencies", fig7 ~fast:true);
    ("table4", "design-aspect probes vs the MPU baseline", table4);
    ("tcb", "TCB size and attack surface (paper 5.1.1)", tcb);
    ("ablate-quarantine", "quarantine drain-factor sweep", ablate_quarantine);
    ("ablate-loadfilter", "load filter off (temporal safety collapses)",
     ablate_loadfilter);
    ("ablate-revoker", "revoker sweep-rate sweep", ablate_revoker);
    ( "ablations",
      "all three ablations",
      fun () ->
        ablate_quarantine ();
        ablate_loadfilter ();
        ablate_revoker () );
  ]

let subcommands : (string * string * (string list -> unit)) list =
  [
    ("trace",
     "trace <workload>: dump the event ring (text + Chrome JSON); workloads: \
      producer_consumer alloc_churn iot",
     trace_cmd);
    ( "metrics",
      "metrics <workload> [--openmetrics] [--out f]: cycle-attribution \
       metrics as JSON, or the fleet snapshot as OpenMetrics text",
      metrics_cmd );
    ( "profile",
      "profile <workload> [--interval N] [--out f]: deterministic profiler; \
       folded stacks on stdout (flamegraph.pl input), JSON with --out; \
       exact cycle attribution by default, sampled every N with --interval",
      profile_cmd );
    ( "report",
      "report <workload>: per-compartment health report (text + JSON)",
      report_cmd );
    ( "crashdump",
      "crashdump <pod|seed> [--replay-context N]: flight-recorder dumps \
       from a faulting run, optionally with the journaled inputs of the N \
       cycles before each fault",
      crashdump_cmd );
    ( "campaign",
      "campaign [--jobs N] [--fleet-metrics]: seeded fault-injection \
       campaign, farmed over N domains (default: all cores; output \
       identical for every N), optionally with the merged fleet metrics \
       rollup",
      campaign_cmd );
    ( "attack-matrix",
      "attack-matrix [--jobs N] [--seed S] [--n K] [--json] [--disarm] \
       [--fleet-metrics] [--replay family:model:seed]: directed attack \
       families run differentially on CHERIoT and the MPU baseline; \
       containment matrix with replayable failures (output identical for \
       every N), optionally with the merged fleet metrics rollup",
      attack_matrix_cmd );
    ( "replay",
      "replay record|verify <seed> <file>, replay diff <a> <b>: journal a \
       campaign scenario's input stream, re-run it under bit-exact \
       verification, or bisect two journals",
      replay_cmd );
    ( "perf",
      "perf: ns/instr of the interpreter's tight loop and of a \
       switcher-shaped capability block",
      perf_cmd );
    ( "alloc-gate",
      "alloc-gate: fail unless the warm superblock loop allocates under \
       0.01 minor words per instruction, a warm compartment-call round \
       trip (0 B and 1024 B stack) under 46.5 / 66.2 words, a warm 16 B \
       allocate/free pair under 260, the switcher holds at most 4 \
       compiled blocks, and a warm boot under 39,500 major words",
      alloc_gate_cmd );
  ]

let usage () =
  Fmt.epr "usage: bench [subcommand args | experiment ...]@.@.subcommands:@.";
  List.iter (fun (_, doc, _) -> Fmt.epr "  %s@." doc) subcommands;
  Fmt.epr "@.experiments (default: table2 table3 fig6a fig6b fig7 table4 tcb):@.";
  List.iter (fun (name, doc, _) -> Fmt.epr "  %-18s %s@." name doc) experiments

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | cmd :: rest
    when List.exists (fun (name, _, _) -> name = cmd) subcommands ->
      let _, _, f = List.find (fun (name, _, _) -> name = cmd) subcommands in
      f rest
  | _ ->
      (* Default run: every paper table and figure, Fig. 7 at paper
         scale (52 simulated s); `fig7-fast` is the shrunk profile. *)
      let targets =
        if args = [] then
          [ "table2"; "table3"; "fig6a"; "fig6b"; "fig7"; "table4"; "tcb" ]
        else args
      in
      let lookup t = List.find_opt (fun (name, _, _) -> name = t) experiments in
      (* Validate every target before running any, so a typo late in the
         list doesn't waste a long run. *)
      (match List.filter (fun t -> lookup t = None) targets with
      | [] -> ()
      | unknown ->
          List.iter (fun t -> Fmt.epr "unknown experiment %s@." t) unknown;
          usage ();
          exit 1);
      List.iter
        (fun t ->
          match lookup t with
          | Some (_, _, f) -> f ()
          | None -> assert false)
        targets
