module Cap = Capability
module F = Firmware

type sample = { t_s : float; cpu_load : float; phase : string }

type result = {
  samples : sample list;
  phases : (string * float) list;
  reboots : int;
  reboot_duration_s : float;
  blinks : int;
  total_s : float;
  avg_load : float;
  compartment_count : int;
  memory_kb : int;
}

let cps = Machine.clock_mhz * 1_000_000 (* cycles per second *)

type profile = {
  p_handshake : int;
  p_reboot : int;
  p_latency : int;
  p_sntp_latency : int;
  p_init_work : int;
  p_pod_at : int;
  p_publish_margin : int;  (** cycles after reconnect before the publish *)
  p_limit : int;
  p_sample : int;  (** monitor sampling interval *)
}

let slow_profile =
  {
    p_handshake = 330_000_000 (* ~10 s of crypto at 33 MHz *);
    p_reboot = 8_900_000 (* 0.27 s *);
    p_latency = 6_600_000 (* 200 ms network turnaround *);
    p_sntp_latency = 310_000_000 (* the NTP phase is spent idle *);
    p_init_work = 66_000_000 (* 2 s of application init *);
    p_pod_at = 34 * cps;
    p_publish_margin = 5 * cps;
    p_limit = 90 * cps;
    p_sample = cps;
  }

let fast_profile =
  {
    p_handshake = 6_600_000;
    p_reboot = 178_000;
    p_latency = 132_000;
    p_sntp_latency = 6_200_000;
    p_init_work = 1_300_000;
    p_pod_at = 34 * cps / 50;
    p_publish_margin = cps / 10;
    p_limit = 4 * cps;
    p_sample = cps / 40;
  }

(* The device-side application logic, in JavaScript (§5.3.3). *)
let js_app = {|
// Blink the board's LEDs to acknowledge a notification.
function ack(message) {
  let i = 0;
  while (i < 3) {
    led(1);
    led(0);
    i = i + 1;
  }
  return "acked:" + message;
}
ack(notification());
|}

let firmware () =
  System.image ~name:"iot-app"
    ~sealed_objects:
      (Netstack.sealed_objects
      @ [ Allocator.alloc_capability ~name:"app_quota" ~quota:8192 ])
    ~threads:
      [
        F.thread ~name:"monitor" ~comp:"app" ~entry:"monitor" ~priority:5
          ~stack_size:1024 ();
        Netstack.manager_thread;
        Thread_pool.worker_thread ~name:"pool0" ();
        F.thread ~name:"app" ~comp:"app" ~entry:"main" ~priority:1 ~stack_size:4096
          ~trusted_stack_frames:24 ();
      ]
    ([
       F.compartment "app" ~code_loc:320 ~globals_size:64
         ~entries:
           [
             F.entry "main" ~arity:0 ~min_stack:1024;
             F.entry "monitor" ~arity:0 ~min_stack:512;
           ]
         ~imports:
           (Netstack.Netapi.client_imports @ Netstack.Mqtt.client_imports
          @ Allocator.client_imports @ Scheduler.client_imports
          @ Thread_pool.client_imports
           @ [
               F.Static_sealed { target = "app_quota" };
               F.Call { comp = "sntp"; entry = "sync" };
               F.Call { comp = "tcpip"; entry = "set_vulnerable" };
               F.Call { comp = "io"; entry = "led_set" };
               F.Lib_call { lib = "microvium"; entry = "run" };
             ]);
       (* The LED lives behind its own I/O compartment (Fig. 5): the
          application never touches the device directly, and auditing
          shows exactly one MMIO owner. *)
       F.compartment "io" ~code_loc:40 ~globals_size:8
         ~entries:[ F.entry "led_set" ~arity:1 ~min_stack:64 ]
         ~imports:[ F.Mmio { device = "led" } ];
       Thread_pool.firmware_compartment ();
     ]
    @ Netstack.compartments ()
    @ [ Jsvm.firmware_library () ])

let run ?(fast = false) ?machine () =
  let p = if fast then fast_profile else slow_profile in
  let machine = match machine with Some m -> m | None -> Machine.create () in
  Machine.add_device machine ~base:0x1000_0000 ~size:16
    (Machine.Device.ram ~name:"led" ~size:16);
  let net = Netsim.attach ~latency:p.p_latency ~sntp_latency:p.p_sntp_latency machine in
  Netsim.add_dns_record net "backend.example.com" Netsim.broker_ip;
  Netsim.set_wallclock net 1_750_000_000;
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let k = sys.System.kernel in
  (* Profile costs are per-kernel/per-stack state, never module-level
     (parallel campaigns run many scenarios at once). *)
  Kernel.set_reboot_cycles k p.p_reboot;
  Netstack.install ~handshake_cycles:p.p_handshake k;
  let pool = Thread_pool.install k in
  ignore pool;
  (* Scenario bookkeeping *)
  let running = ref true in
  let phase = ref "Setup" in
  let phases = ref [ ("Setup", 0) ] in
  let samples = ref [] in
  let blinks = ref 0 in
  let notification = ref "" in
  let reboot_start = ref 0 in
  let reboot_end = ref 0 in
  let enter name =
    phase := name;
    phases := (name, Machine.cycles machine) :: !phases
  in
  (* The I/O compartment owns the LED. *)
  Kernel.implement1 k ~comp:"io" ~entry:"led_set" (fun ioctx args ->
      let led = Kernel.import_cap k ~comp:"io" "mmio:led" in
      let v = Interp.to_int args.(0) in
      Machine.store machine ~auth:led ~addr:(Cap.base led) ~size:4 v;
      if v = 1 then incr blinks;
      ignore ioctx;
      Interp.int_value 0);
  (* Monitor thread: 1 Hz CPU-load sampling via scheduler idle time. *)
  Kernel.implement1 k ~comp:"app" ~entry:"monitor" (fun ctx _ ->
      let last_c = ref 0 and last_i = ref 0 in
      while !running do
        Kernel.sleep ctx p.p_sample;
        let c = Machine.cycles machine and i = Kernel.idle_cycles k in
        let dc = c - !last_c and di = i - !last_i in
        last_c := c;
        last_i := i;
        if dc > 0 then
          samples :=
            {
              t_s = Machine.seconds_of_cycles c;
              cpu_load = 1.0 -. (float_of_int di /. float_of_int dc);
              phase = !phase;
            }
            :: !samples
      done;
      Cap.null);
  (* The application thread. *)
  let iv = Interp.int_value and ti = Interp.to_int in
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      let quota = Kernel.import_cap k ~comp:"app" "sealed:app_quota" in
      let str_arg ctx s =
        let ctx', cap = Kernel.stack_alloc ctx (String.length s + 8) in
        Membuf.of_string machine ~auth:cap s;
        (ctx', cap)
      in
      let connect_and_subscribe () =
        let ctx', host = str_arg ctx "backend.example.com" in
        match
          Kernel.call ctx' ~import:"mqtt.connect"
            [ quota; host; iv 19; iv Netsim.broker_port ]
        with
        | Ok (h, _) when Cap.tag h -> (
            let ctx_t, topic = str_arg ctx "alerts" in
            match Kernel.call ctx_t ~import:"mqtt.subscribe" [ h; topic; iv 6 ] with
            | Ok (v, _) when ti v = 0 -> Some h
            | _ -> None)
        | _ -> None
      in
      (* Phase 1: Setup — application init + network bring-up (DHCP). *)
      ignore (Kernel.call1 ctx ~import:"tcpip.set_vulnerable" [ iv 1 ]);
      let rec burn n =
        if n > 0 then begin
          Machine.tick machine (min 1_000_000 n);
          burn (n - 1_000_000)
        end
      in
      burn p.p_init_work;
      ignore (Kernel.call1 ctx ~import:"netapi.start" []);
      (* Phase 2: NTP synchronisation (idle, waiting on the server). *)
      enter "NTP Sync";
      ignore (Kernel.call1 ctx ~import:"sntp.sync" []);
      (* Phase 3: App setup — DNS, TCP, TLS handshake, MQTT subscribe. *)
      enter "App Setup";
      let handle = connect_and_subscribe () in
      (* Phase 4: steady state, waiting for notifications.  The "ping of
         death" arrives mid-wait and crashes the TCP/IP compartment. *)
      enter "Steady";
      Netsim.inject_frame_at net ~cycles:p.p_pod_at ~frame:(Netsim.pod_frame ~size:1800);
      (match handle with
      | None -> ()
      | Some h ->
          let ctx_b, buf = Kernel.stack_alloc ctx 128 in
          (match
             Kernel.call ctx_b ~import:"mqtt.await" [ h; buf; iv 128; iv p.p_limit ]
           with
          | Ok (v, _) when ti v > 0 ->
              notification := Membuf.to_string machine ~auth:buf ~len:(ti v)
          | _ ->
              (* The connection died with the micro-rebooted stack:
                 re-establish (App Setup again) and wait again. *)
              reboot_start := Machine.cycles machine;
              enter "App Setup 2";
              ignore (Kernel.call1 ctx ~import:"netapi.start" []);
              reboot_end := Machine.cycles machine;
              (match connect_and_subscribe () with
              | None -> ()
              | Some h2 ->
                  enter "Steady 2";
                  Netsim.broker_publish_at net
                    ~cycles:(Machine.cycles machine + p.p_publish_margin)
                    ~topic:"alerts" ~message:"blink";
                  let ctx_b2, buf2 = Kernel.stack_alloc ctx 128 in
                  (match
                     Kernel.call ctx_b2 ~import:"mqtt.await"
                       [ h2; buf2; iv 128; iv p.p_limit ]
                   with
                  | Ok (v, _) when ti v > 0 ->
                      notification := Membuf.to_string machine ~auth:buf2 ~len:(ti v)
                  | _ -> ());
                  ignore (Kernel.call ctx ~import:"mqtt.disconnect" [ quota; h2 ]))));
      (* Run the JavaScript application on the notification: the [led]
         host function is a compartment call into the I/O compartment. *)
      if !notification <> "" then begin
        let globals =
          [
            ( "led",
              Jsvm.Host
                (fun args ->
                  let v = match args with Jsvm.Num n :: _ -> n | _ -> 0 in
                  ignore
                    (Kernel.call1 ctx ~import:"io.led_set" [ Interp.int_value v ]);
                  Jsvm.Null) );
            ("notification", Jsvm.Host (fun _ -> Jsvm.Str !notification));
          ]
        in
        ignore (Jsvm.eval_string ~machine ~globals js_app)
      end;
      Thread_pool.shutdown ctx;
      ignore (Kernel.call1 ctx ~import:"netapi.stop" []);
      running := false;
      Cap.null);
  System.run ~until_cycles:p.p_limit sys;
  let total_c = Machine.cycles machine in
  let ld = Kernel.loader k in
  let stats = Loader.stats ld in
  let heap_quota =
    List.fold_left
      (fun acc (s : Firmware.static_sealed) ->
        match s.Firmware.payload with q :: _ -> acc + q | [] -> acc)
      0 (Kernel.firmware k).Firmware.sealed_objects
  in
  {
    samples = List.rev !samples;
    phases =
      List.rev_map (fun (n, c) -> (n, Machine.seconds_of_cycles c)) !phases;
    reboots = Kernel.reboot_count k ~comp:"tcpip";
    reboot_duration_s = Machine.seconds_of_cycles (Kernel.reboot_cycles k);
    blinks = !blinks;
    total_s = Machine.seconds_of_cycles total_c;
    avg_load =
      1.0 -. (float_of_int (Kernel.idle_cycles k) /. float_of_int (max 1 total_c));
    compartment_count =
      List.length
        (List.filter
           (fun (c : Loader.comp_layout) -> c.Loader.lc_kind = Firmware.Compartment)
           ld.Loader.comps);
    memory_kb =
      (stats.Loader.code_total + stats.Loader.globals_total + stats.Loader.tables_total
      + stats.Loader.stacks_total + stats.Loader.trusted_stacks_total + heap_quota)
      / 1024;
  }

let pp_result ppf r =
  Fmt.pf ppf "phases:@.";
  List.iter (fun (n, t) -> Fmt.pf ppf "  %-12s starts at t=%5.1f s@." n t) r.phases;
  Fmt.pf ppf "CPU load (1 Hz samples):@.";
  List.iter
    (fun s ->
      let bar = String.make (int_of_float (s.cpu_load *. 40.0)) '#' in
      Fmt.pf ppf "  t=%5.1f s  %5.1f%%  %-40s %s@." s.t_s (100.0 *. s.cpu_load) bar
        s.phase)
    r.samples;
  Fmt.pf ppf
    "micro-reboots: %d (modelled duration %.2f s); LED blinks: %d@." r.reboots
    r.reboot_duration_s r.blinks;
  Fmt.pf ppf "total: %.1f s, average CPU load %.1f%%, %d compartments, %d KB memory@."
    r.total_s (100.0 *. r.avg_load) r.compartment_count r.memory_kb
