(* Seeded fault-injection campaigns: boot a small three-compartment
   system (a driver app, a crashable service with its own quota and
   error handler, a noise thread exercising the futex paths) on a fresh
   machine with the network world attached, arm the engine, run a mixed
   workload under fire, then disarm and audit the whole system against
   its invariants.

   Everything a scenario does derives from its seed: the injector's
   draws, the workload's sizes and sleeps, and the deterministic
   simulation in between.  A failing seed replays the identical run. *)

module Cap = Capability
module F = Firmware
module P = Packet

let iv = Interp.int_value
let ti = Interp.to_int

type outcome = {
  oc_seed : int;
  oc_cycles : int;
  oc_faults : int;
  oc_reboots : int;
  oc_svc_ok : int;
  oc_svc_err : int;
  oc_probe_ok : bool;
  oc_violations : string list;
  oc_trace : (int * string) list;
  oc_dumps : Forensics.dump list;
  oc_metrics : Agg.t;
}

let iters ~default =
  match Sys.getenv_opt "FAULT_CAMPAIGN_ITERS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> default)
  | None -> default

(* The firmware image under test. *)

let app_quota = 8192
let svc_quota = 8192

(* Driver iterations per scenario. *)
let steps = 60

let firmware () =
  System.image ~name:"fault-campaign"
    ~sealed_objects:
      [
        Allocator.alloc_capability ~name:"appq" ~quota:app_quota;
        Allocator.alloc_capability ~name:"svcq" ~quota:svc_quota;
      ]
    ~threads:
      [
        F.thread ~name:"driver" ~comp:"app" ~entry:"main" ~priority:2
          ~stack_size:4096 ~trusted_stack_frames:16 ();
        F.thread ~name:"noise" ~comp:"noise" ~entry:"run" ~priority:1
          ~stack_size:2048 ();
      ]
    [
      F.compartment "app" ~globals_size:64
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:1024 ]
        ~imports:
          (System.standard_imports
          @ [
              F.Static_sealed { target = "appq" };
              F.Call { comp = "svc"; entry = "work" };
              F.Call { comp = "svc"; entry = "stat" };
              F.Mmio { device = Netsim.device_name };
            ]);
      F.compartment "svc" ~globals_size:32 ~error_handler:true
        ~entries:
          [
            F.entry "work" ~arity:1 ~min_stack:512;
            F.entry "stat" ~arity:0 ~min_stack:256;
          ]
        ~imports:(System.standard_imports @ [ F.Static_sealed { target = "svcq" } ]);
      F.compartment "noise" ~globals_size:16
        ~entries:[ F.entry "run" ~arity:0 ~min_stack:512 ]
        ~imports:System.standard_imports;
    ]

(* The app drives eth0 directly (Netsim's driver) so network chaos
   lands on a path the workload actually exercises. *)

let consume_rx machine mmio =
  let rec go consumed =
    if consumed >= 5 then consumed
    else
      match Netsim.receive machine mmio with
      | None -> consumed
      | Some frame ->
          (* Corrupted frames must decode to [Other], not crash anything. *)
          ignore (P.decode_frame frame);
          go (consumed + 1)
  in
  go 0

let arp_probe () =
  P.encode_eth
    {
      P.eth_dst = P.mac_broadcast;
      eth_src = Netsim.device_mac;
      eth_type = P.ethertype_arp;
      eth_payload =
        P.encode_arp
          {
            P.arp_op = `Request;
            arp_sender_mac = Netsim.device_mac;
            arp_sender_ip = 0;
            arp_target_mac = 0;
            arp_target_ip = Netsim.gateway_ip;
          };
    }

(* System-wide invariant: every tagged, unsealed capability stored in
   simulated memory is within SRAM or a device region, and any that
   points into the heap is confined to a live or still-quarantined
   allocation with at most read-write permissions — no fault combination
   may mint authority (§2.2 monotonicity, §3.1.3 temporal safety). *)
let check_stored_caps machine alloc =
  let hb, hl = Allocator.heap_bounds alloc in
  let chunks = Allocator.heap_chunks alloc in
  let sram_lo = Machine.sram_base machine in
  let sram_hi = sram_lo + Machine.sram_size machine in
  let devs = Machine.device_regions machine in
  let errs = ref [] in
  Memory.iter_caps (Machine.mem machine) (fun ~addr c ->
      if Cap.tag c && not (Cap.is_sealed c) then begin
        let b = Cap.base c and tp = Cap.top c in
        let in_sram = b >= sram_lo && tp <= sram_hi in
        let in_dev =
          List.exists (fun (_, db, ds) -> b >= db && tp <= db + ds) devs
        in
        (* The loader forges code capabilities above the RAM address
           space: switcher code, the return pad, and compartment code in
           flash (Abi.switcher_code_base / flash_base). *)
        let in_code = b >= Abi.switcher_code_base in
        if not (in_sram || in_dev || in_code || b >= tp) then
          errs :=
            Printf.sprintf
              "stored cap @0x%x spans [0x%x,0x%x) outside SRAM, MMIO and code"
              addr b tp
            :: !errs;
        (* Heap-confined caps: skip the allocator's own whole-heap root
           authority, require everything else inside one allocation. *)
        if tp > hb && b < hl && not (b <= hb && tp >= hl) then begin
          let contained =
            List.exists
              (fun (hdr, size, state) ->
                state <> `Free && b >= hdr + 16 && tp <= hdr + 16 + size)
              chunks
          in
          if not contained then
            errs :=
              Printf.sprintf
                "heap cap @0x%x spans [0x%x,0x%x) outside any live allocation"
                addr b tp
              :: !errs
          else if not (Perm.Set.subset (Cap.perms c) Perm.Set.read_write) then
            errs :=
              Printf.sprintf "heap cap @0x%x carries excess permissions" addr
              :: !errs
        end
      end);
  match !errs with [] -> Ok () | e -> Error (String.concat "; " e)

(* The seed-independent prefix of a scenario: machine, observability,
   engine, network world, boot, wiring.  Split from the per-seed body so
   a campaign can build it once, [Machine.snapshot] the post-boot state,
   and fork every scenario from the shared image with [Machine.restore]
   + [Fault_inject.reseed] — byte-identical to booting from scratch,
   without re-paying boot per seed. *)

type image = {
  im_machine : Machine.t;
  im_frn : Forensics.t;
  im_engine : Fault_inject.t;
  im_sys : System.t;
}

let boot_failed_outcome machine ~seed e =
  {
    oc_seed = seed;
    oc_cycles = Machine.cycles machine;
    oc_faults = 0;
    oc_reboots = 0;
    oc_svc_ok = 0;
    oc_svc_err = 0;
    oc_probe_ok = false;
    oc_violations = [ "boot failed: " ^ e ];
    oc_trace = [];
    oc_dumps = [];
    oc_metrics =
      (match Machine.forensics machine with
      | Some f -> Agg.of_forensics f ~cycles:(Machine.cycles machine)
      | None -> Agg.empty ());
  }

let build_image ?trace ?prepare ~seed () =
  let machine = Machine.create () in
  (* Callers attaching an input-journal session (bench `replay`, the
     replay test suite) hook the bare machine here, before any boot
     activity, so the journal covers the whole scenario. *)
  (match prepare with Some f -> f machine | None -> ());
  (* Every scenario carries a flight recorder; a trace ring only when
     the caller asks for one. *)
  Option.iter (fun o -> Machine.set_trace machine (Some o)) trace;
  let frn = Forensics.create () in
  Machine.set_forensics machine (Some frn);
  let engine = Fault_inject.create ~seed machine in
  let net = Netsim.attach ~latency:4_000 machine in
  match System.boot ~machine (firmware ()) with
  | Error e -> Error (machine, e)
  | Ok sys ->
      let k = sys.System.kernel in
      let alloc = sys.System.alloc in
      Fault_inject.wire_allocator engine alloc;
      Fault_inject.wire_netsim engine net;
      Fault_inject.wire_kernel engine k ~victims:[ "svc" ];
      Ok { im_machine = machine; im_frn = frn; im_engine = engine; im_sys = sys }

let scenario_body img ~seed () =
  let machine = img.im_machine in
  let frn = img.im_frn in
  let engine = img.im_engine in
  let sys = img.im_sys in
  let k = sys.System.kernel in
  let alloc = sys.System.alloc in
  let violations = ref [] in
  let viol fmt = Printf.ksprintf (fun s -> violations := !violations @ [ s ]) fmt in
  begin
      (* The workload draws from its own stream so injector and workload
         stay independent but both replay from the one seed. *)
      let wrng = Random.State.make [| seed; 0x9e3779b9 |] in
      let svc_live = ref [] in
      let svc_quota_cap () = Kernel.import_cap k ~comp:"svc" "sealed:svcq" in
      Kernel.implement1 k ~comp:"svc" ~entry:"work" (fun ctx args ->
          let size = ti args.(0) in
          let q = svc_quota_cap () in
          (match Allocator.allocate ctx ~alloc_cap:q size with
          | Ok c ->
              Machine.store machine ~auth:c ~addr:(Cap.base c) ~size:4
                (0xa500 lor (size land 0xff));
              svc_live := !svc_live @ [ c ];
              if List.length !svc_live > 6 then begin
                match !svc_live with
                | oldest :: rest ->
                    svc_live := rest;
                    ignore (Allocator.free ctx ~alloc_cap:q oldest)
                | [] -> ()
              end
          | Error _ -> () (* injected OOM / quota pressure: shed load *));
          iv (List.length !svc_live));
      Kernel.implement1 k ~comp:"svc" ~entry:"stat" (fun _ctx _ ->
          iv (List.length !svc_live));
      Kernel.set_error_handler k ~comp:"svc" (fun cctx _fi ->
          Kernel.micro_reboot cctx
            {
              Kernel.wake_blocked = (fun () -> ());
              release_heap =
                (fun () ->
                  ignore (Allocator.free_all cctx ~alloc_cap:(svc_quota_cap ())));
              reset_state = (fun () -> svc_live := []);
            };
          `Unwind);
      let noise_layout = Loader.find_comp (Kernel.loader k) "noise" in
      Kernel.implement1 k ~comp:"noise" ~entry:"run" (fun ctx _ ->
          let word =
            Cap.exn
              (Cap.with_address ctx.Kernel.cgp
                 noise_layout.Loader.lc_globals_base)
          in
          for _ = 1 to 30 do
            ignore (Scheduler.futex_wait ctx ~word ~expected:0 ~timeout:2_500 ());
            Kernel.sleep ctx 1_500
          done;
          Cap.null);
      let svc_ok = ref 0 and svc_err = ref 0 and probe_ok = ref false in
      Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
          Fault_inject.arm engine;
          let appq = Kernel.import_cap k ~comp:"app" "sealed:appq" in
          let mmio =
            Kernel.import_cap k ~comp:"app" ("mmio:" ^ Netsim.device_name)
          in
          let held = ref [] in
          for i = 1 to steps do
            let size = 16 + (8 * Random.State.int wrng 24) in
            (match Kernel.call1 ctx ~import:"svc.work" [ iv size ] with
            | Ok _ -> incr svc_ok
            | Error _ -> incr svc_err);
            (match
               Allocator.allocate ctx ~alloc_cap:appq
                 (16 + (8 * Random.State.int wrng 16))
             with
            | Ok c -> held := !held @ [ c ]
            | Error _ -> ());
            if List.length !held > 4 then begin
              match !held with
              | oldest :: rest ->
                  held := rest;
                  ignore (Allocator.free ctx ~alloc_cap:appq oldest)
              | [] -> ()
            end;
            if i mod 3 = 0 then begin
              Netsim.transmit machine mmio (arp_probe ());
              ignore (consume_rx machine mmio)
            end;
            Kernel.sleep ctx (2_000 + Random.State.int wrng 4_000)
          done;
          List.iter
            (fun c -> ignore (Allocator.free ctx ~alloc_cap:appq c))
            !held;
          held := [];
          (* Quiesce, then probe: the service must be back regardless of
             how many times it crashed mid-campaign. *)
          Fault_inject.disarm engine;
          let rec probe n =
            n > 0
            &&
            match Kernel.call1 ctx ~import:"svc.stat" [] with
            | Ok _ -> true
            | Error _ ->
                Kernel.sleep ctx 20_000;
                probe (n - 1)
          in
          probe_ok := probe 5;
          Cap.null);
      (try System.run ~until_cycles:200_000_000 sys
       with Failure msg -> viol "run aborted: %s" msg);
      Fault_inject.disarm engine;
      Machine.run_revoker_to_completion machine;
      let record name = function
        | Ok () -> ()
        | Error e -> viol "%s: %s" name e
      in
      record "allocator integrity" (Allocator.check_integrity alloc);
      let q_addr comp slot = Cap.base (Kernel.import_cap k ~comp slot) + 8 in
      record "quota conservation"
        (Allocator.check_quota_conservation alloc
           ~quotas:
             [
               ("appq", q_addr "app" "sealed:appq");
               ("svcq", q_addr "svc" "sealed:svcq");
             ]);
      record "kernel sanity" (Kernel.check_sanity k);
      record "scheduler sanity" (Scheduler.check_sanity sys.System.sched);
      record "capability provenance" (check_stored_caps machine alloc);
      if not !probe_ok then
        viol "service not restored after campaign (svc probe failed)";
      (* Flight-recorder invariants: every injected crash produced a
         crash dump, and every dump blames the injected fault's target
         (the only compartment the engine is allowed to crash). *)
      let dumps = Forensics.dumps frn in
      let delivered = Fault_inject.crashes_delivered engine in
      let crash_dumps =
        List.length
          (List.filter (fun d -> d.Forensics.d_cause = "injected crash") dumps)
      in
      if crash_dumps <> delivered then
        viol "crash dumps (%d) do not match delivered crashes (%d)" crash_dumps
          delivered;
      List.iter
        (fun d ->
          if d.Forensics.d_comp <> "svc" then
            viol "crash dump at cycle %d blames %s, not the injected target svc"
              d.Forensics.d_cycle d.Forensics.d_comp;
          if Array.length d.Forensics.d_reg_names <> 16 then
            viol "crash dump at cycle %d has %d registers, expected 16"
              d.Forensics.d_cycle
              (Array.length d.Forensics.d_reg_names))
        dumps;
      Fault_inject.detach engine;
      {
        oc_seed = seed;
        oc_cycles = Machine.cycles machine;
        oc_faults = Fault_inject.injected engine;
        oc_reboots = Kernel.reboot_count k ~comp:"svc";
        oc_svc_ok = !svc_ok;
        oc_svc_err = !svc_err;
        oc_probe_ok = !probe_ok;
        oc_violations = !violations;
        oc_trace = Fault_inject.trace engine;
        oc_dumps = dumps;
        oc_metrics = Agg.of_forensics frn ~cycles:(Machine.cycles machine);
      }
  end

let run_scenario ?trace ?prepare ~seed () =
  match build_image ?trace ?prepare ~seed () with
  | Error (machine, e) -> boot_failed_outcome machine ~seed e
  | Ok img -> scenario_body img ~seed ()

(* One shared post-boot image (and one snapshot) per chunk of seeds. *)
let run_chunk seeds =
  match seeds with
  | [] -> []
  | first :: _ -> (
      match build_image ~seed:first () with
      | Error (machine, e) ->
          List.map (fun seed -> boot_failed_outcome machine ~seed e) seeds
      | Ok img ->
          let snap = Machine.snapshot img.im_machine in
          List.map
            (fun seed ->
              Machine.restore img.im_machine snap;
              Fault_inject.reseed img.im_engine ~seed;
              scenario_body img ~seed ())
            seeds)

let run ?(jobs = 1) ~base_seed ~n () =
  (* Scenarios are independent pure functions of their seed, so they
     farm across domains, one contiguous chunk of seeds per domain.
     Each chunk boots once and forks every scenario from the post-boot
     snapshot: the restore-then-reseed dance is byte-identical to a
     fresh boot (pinned by test_farm against [run_scenario]), it just
     skips the boot work.  All reporting happens here after the merge,
     in seed order, making the output byte-identical for every job
     count. *)
  let outcomes =
    List.concat
      (Farm.map_list ~jobs run_chunk
         (Farm.chunks ~jobs (List.init n (fun i -> base_seed + i))))
  in
  let failures = ref 0 in
  List.iter
    (fun o ->
      if o.oc_violations <> [] then begin
        incr failures;
        Printf.printf "seed %d: %d invariant violation(s)\n%!" o.oc_seed
          (List.length o.oc_violations);
        List.iter (fun v -> Printf.printf "  - %s\n" v) o.oc_violations;
        Printf.printf "  fault trace (replay by re-running seed %d):\n"
          o.oc_seed;
        List.iter
          (fun e -> Printf.printf "    %s\n" (Fault_inject.trace_line e))
          o.oc_trace;
        flush stdout
      end)
    outcomes;
  (!failures, outcomes)
