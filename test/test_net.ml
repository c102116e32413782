(* End-to-end tests of the compartmentalized network stack against the
   simulated world (§5.2, §5.3.3): DHCP, ARP, ping, DNS, SNTP, TCP,
   TLS+MQTT, firewalling, and the ping-of-death micro-reboot. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

let app_quota = 4096

(* Quotas that each fail one allocation of a TLS or MQTT connect: a
   sealed handle charges 16 bytes and an I/O buffer 640, so each fits
   everything the connect allocates before the one it names. *)
let short_quotas =
  [
    ("tls_nobuf", 16 + 100);
    ("tls_nohandle", 16 + 640 + 15);
    ("mqtt_nobuf", 16 + 640 + 16 + 100);
    ("mqtt_nohandle", 16 + 640 + 16 + 640 + 15);
  ]

let firmware () =
  System.image ~name:"net-test"
    ~sealed_objects:
      (Netstack.sealed_objects
      @ List.map
          (fun (name, quota) -> Allocator.alloc_capability ~name ~quota)
          (("app_quota", app_quota) :: short_quotas))
    ~threads:
      [
        Netstack.manager_thread;
        F.thread ~name:"app" ~comp:"app" ~entry:"main" ~priority:1 ~stack_size:4096
          ~trusted_stack_frames:24 ();
      ]
    ([
       F.compartment "app" ~globals_size:64
         ~entries:[ F.entry "main" ~arity:0 ~min_stack:1024 ]
         ~imports:
           (Netstack.Netapi.client_imports @ Netstack.Mqtt.client_imports
          @ Netstack.Tls.client_imports
          @ Allocator.client_imports @ Scheduler.client_imports
           @ List.map
               (fun (name, _) -> F.Static_sealed { target = name })
               short_quotas
           @ [
               F.Static_sealed { target = "app_quota" };
               F.Call { comp = "sntp"; entry = "sync" };
               F.Call { comp = "sntp"; entry = "now" };
               F.Call { comp = "tcpip"; entry = "set_vulnerable" };
               F.Call { comp = "tcpip"; entry = "ifconfig" };
               F.Call { comp = "tcpip"; entry = "rx_step" };
             ]);
     ]
    @ Netstack.compartments ())

type world = {
  sys : System.t;
  net : Netsim.t;
}

let boot_world ?(latency = 20_000) ?(sntp_latency = 20_000) main =
  let machine = Machine.create () in
  let net = Netsim.attach ~latency ~sntp_latency machine in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  Netstack.install sys.System.kernel;
  let failure = ref None in
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      (try main { sys; net } ctx
       with
      | Alcotest_engine__Core.Check_error _ as e -> failure := Some e
      | Memory.Fault _ as e -> failure := Some e);
      (* Shut the manager loop down so the scheduler terminates. *)
      ignore (Kernel.call1 ctx ~import:"netapi.stop" []);
      Cap.null);
  System.run ~until_cycles:3_000_000_000 sys;
  (match !failure with Some e -> raise e | None -> ());
  (sys, net)

let quota_named name ctx =
  Kernel.import_cap ctx.Kernel.kernel ~comp:"app" ("sealed:" ^ name)

let quota = quota_named "app_quota"

let start_net ctx =
  let r = Kernel.call1 ctx ~import:"netapi.start" [] in
  Alcotest.(check int) "net_start" 0 (ti (Result.get_ok r))

let str_arg ctx s =
  let ctx', cap = Kernel.stack_alloc ctx (String.length s + 8) in
  Membuf.of_string (Kernel.machine ctx.Kernel.kernel) ~auth:cap s;
  (ctx', cap)

let test_dhcp () =
  let got_ip = ref 0 in
  ignore
    (boot_world (fun _w ctx ->
         start_net ctx;
         got_ip := ti (Result.get_ok (Kernel.call1 ctx ~import:"tcpip.ifconfig" []))));
  Alcotest.(check int) "leased the expected address" Netsim.device_ip !got_ip

let test_ping_reply () =
  let reply = ref None in
  ignore
    (boot_world (fun w ctx ->
         start_net ctx;
         (* The gateway pings us; the stack must answer. *)
         Netsim.inject_frame_at w.net
           ~cycles:(Machine.cycles w.sys.System.machine + 10_000)
           ~frame:(Netsim.pod_frame ~size:32);
         (* size 32 is a normal ping, not of death *)
         Kernel.sleep ctx 2_000_000;
         reply := Netsim.last_icmp_echo_reply w.net));
  match !reply with
  | Some body -> Alcotest.(check int) "echo body length" 32 (String.length body)
  | None -> Alcotest.fail "no echo reply seen"

let test_dns_and_sntp () =
  let ip = ref 0 and seconds = ref 0 in
  ignore
    (boot_world (fun w ctx ->
         Netsim.add_dns_record w.net "broker.example.com" Netsim.broker_ip;
         Netsim.set_wallclock w.net 1_234_567;
         start_net ctx;
         let ctx', name = str_arg ctx "broker.example.com" in
         (match Kernel.call ctx' ~import:"netapi.socket_connect_tcp"
                  [ quota ctx; name; iv 18; iv Netsim.broker_port ]
          with
         | Ok (h, _) when Cap.tag h ->
             ip := 1;
             ignore (Kernel.call ctx ~import:"netapi.socket_close" [ quota ctx; h ])
         | Ok _ | Error _ -> ());
         seconds := ti (Result.get_ok (Kernel.call1 ctx ~import:"sntp.sync" []))));
  Alcotest.(check int) "DNS resolved and TCP connected" 1 !ip;
  Alcotest.(check int) "SNTP synced" 1_234_567 !seconds

let test_tcp_socket_data () =
  (* Socket-level data transfer: the broker's TLS handshake responder
     answers the first 9 bytes we send with a 13-byte ServerHello. *)
  let got = ref 0 in
  ignore
    (boot_world (fun w ctx ->
         start_net ctx;
         let ctx', name = str_arg ctx (Packet.ipv4_to_string Netsim.broker_ip) in
         match
           Kernel.call ctx' ~import:"netapi.socket_connect_tcp"
             [ quota ctx; name; iv (String.length (Packet.ipv4_to_string Netsim.broker_ip));
               iv Netsim.broker_port ]
         with
         | Ok (h, _) when Cap.tag h ->
             let ctx2, buf = Kernel.stack_alloc ctx 64 in
             let hello = Tls_lite.client_hello ~nonce:1 ~secret:42 in
             Membuf.of_string w.sys.System.machine ~auth:buf hello;
             ignore
               (Kernel.call ctx2 ~import:"netapi.socket_send"
                  [ h; buf; iv (String.length hello) ]);
             (match
                Kernel.call ctx2 ~import:"netapi.socket_recv"
                  [ h; buf; iv 64; iv 10_000_000 ]
              with
             | Ok (v, _) -> got := ti v
             | Error _ -> ());
             ignore (Kernel.call ctx ~import:"netapi.socket_close" [ quota ctx; h ])
         | Ok _ | Error _ -> Alcotest.fail "connect failed"));
  Alcotest.(check int) "ServerHello received over TCP" 13 !got

(* Call [import] ("tls.connect" or "mqtt.connect") on the broker,
   charging quota [q]. *)
let connect_broker ctx ~import q =
  let broker = Packet.ipv4_to_string Netsim.broker_ip in
  let ctx', host = str_arg ctx broker in
  Kernel.call ctx' ~import [ q; host; iv (String.length broker); iv Netsim.broker_port ]

let connect_ok ctx ~import =
  match connect_broker ctx ~import (quota ctx) with
  | Ok (h, _) when Cap.tag h -> h
  | Ok (v, _) -> Alcotest.failf "%s error %d" import (ti v)
  | Error e -> Alcotest.failf "%s call error: %a" import Kernel.pp_call_error e

let test_mqtt_subscribe_publish () =
  let message = ref "" in
  ignore
    (boot_world (fun w ctx ->
         start_net ctx;
         let handle = connect_ok ctx ~import:"mqtt.connect" in
         let ctx_t, topic = str_arg ctx "alerts" in
         (match Kernel.call ctx_t ~import:"mqtt.subscribe" [ handle; topic; iv 6 ] with
         | Ok (v, _) when ti v = 0 -> ()
         | _ -> Alcotest.fail "subscribe failed");
         (* Schedule a notification and await it. *)
         Netsim.broker_publish_at w.net
           ~cycles:(Machine.cycles w.sys.System.machine + 3_000_000)
           ~topic:"alerts" ~message:"blink";
         let ctx2, buf = Kernel.stack_alloc ctx 128 in
         (match
            Kernel.call ctx2 ~import:"mqtt.await" [ handle; buf; iv 128; iv 300_000_000 ]
          with
         | Ok (v, _) when ti v > 0 ->
             message :=
               Membuf.to_string w.sys.System.machine ~auth:buf ~len:(ti v)
         | Ok (v, _) -> Alcotest.failf "await returned %d" (ti v)
         | Error _ -> Alcotest.fail "await call failed");
         ignore (Kernel.call ctx ~import:"mqtt.disconnect" [ quota ctx; handle ])));
  Alcotest.(check string) "notification delivered" "blink" !message

let test_ping_of_death_micro_reboot () =
  let reboots = ref 0 and ip_after = ref 0 in
  ignore
    (boot_world (fun w ctx ->
         ignore (Kernel.call1 ctx ~import:"tcpip.set_vulnerable" [ iv 1 ]);
         start_net ctx;
         (* The oversized ping overflows the stack's 256-byte buffer; the
            CHERI trap fires the error handler, which micro-reboots the
            TCP/IP compartment. *)
         Netsim.inject_frame_at w.net
           ~cycles:(Machine.cycles w.sys.System.machine + 100_000)
           ~frame:(Netsim.pod_frame ~size:1800);
         Kernel.sleep ctx 5_000_000;
         reboots := Kernel.reboot_count w.sys.System.kernel ~comp:"tcpip";
         (* The stack comes back: re-run DHCP and check connectivity. *)
         start_net ctx;
         ip_after := ti (Result.get_ok (Kernel.call1 ctx ~import:"tcpip.ifconfig" []))));
  Alcotest.(check int) "exactly one micro-reboot" 1 !reboots;
  Alcotest.(check int) "stack recovered" Netsim.device_ip !ip_after

(* A connect that fails must hand back everything it charged to the
   caller's quota: the NetAPI socket, the I/O buffers and the session
   handles of every layer below the one that failed.  [chaos] is the
   fault on the broker's traffic that makes it fail. *)
let check_connect_refunds ~import ~name ~chaos ~code () =
  let before = ref 0 and after = ref 0 and got = ref 0 in
  ignore
    (boot_world (fun w ctx ->
         start_net ctx;
         let q = quota_named name ctx in
         let remaining () = Result.get_ok (Allocator.quota_remaining ctx ~alloc_cap:q) in
         before := remaining ();
         Netsim.set_chaos_hook w.net chaos;
         (got :=
            match connect_broker ctx ~import q with
            | Ok (v, _) when Cap.tag v -> 0
            | Ok (v, _) -> ti v
            | Error _ -> 1);
         Netsim.set_chaos_hook w.net None;
         after := remaining ()));
  Alcotest.(check int) "connect's error code" code !got;
  Alcotest.(check int) "quota back to its starting value" !before !after

(* Apply [fault] to the [n]th broker segment that carries data: 1 is the
   TLS ServerHello, 2 the record holding the MQTT CONNACK. *)
let on_broker_data n fault =
  let seen = ref 0 in
  Some
    (fun frame ->
      match Packet.decode_frame frame with
      | Packet.Tcp (_, seg)
        when seg.Packet.tcp_src = Netsim.broker_port && seg.Packet.tcp_payload <> "" ->
          incr seen;
          if !seen = n then fault frame else Netsim.Pass
      | _ -> Netsim.Pass)

let drop _ = Netsim.Drop
let flip_last_byte frame = Netsim.Corrupt (String.length frame - 1, 1)

let connect_leak_cases =
  let tls = "tls.connect" and mqtt = "mqtt.connect" in
  let timeout = Tcpip.err_timeout and closed = Tcpip.err_closed
  and nomem = Tcpip.err_nomem in
  [
    ("tls connect: no buffer", tls, "tls_nobuf", None, nomem);
    ("tls connect: no ServerHello", tls, "app_quota", on_broker_data 1 drop, timeout);
    ("tls connect: bad ServerHello", tls, "app_quota", on_broker_data 1 flip_last_byte, closed);
    ("tls connect: no handle", tls, "tls_nohandle", None, nomem);
    ("mqtt connect: no buffer", mqtt, "mqtt_nobuf", None, nomem);
    ("mqtt connect: no CONNACK", mqtt, "app_quota", on_broker_data 2 drop, closed);
    ("mqtt connect: bad CONNACK", mqtt, "app_quota", on_broker_data 2 flip_last_byte, closed);
    ("mqtt connect: no handle", mqtt, "mqtt_nohandle", None, nomem);
  ]
  |> List.map (fun (what, import, name, chaos, code) ->
         Alcotest.test_case what `Quick (check_connect_refunds ~import ~name ~chaos ~code))

(* A ServerHello that arrives after the first 2,000,000-cycle read has
   timed out is still within the handshake's deadline: the connect
   reads again and succeeds. *)
let test_tls_slow_server_hello () =
  ignore
    (boot_world (fun w ctx ->
         start_net ctx;
         Netsim.set_chaos_hook w.net
           (on_broker_data 1 (fun _ -> Netsim.Delay 3_000_000));
         let h = connect_ok ctx ~import:"tls.connect" in
         Netsim.set_chaos_hook w.net None;
         ignore (Kernel.call ctx ~import:"tls.close" [ quota ctx; h ])))

(* netapi.stop shuts the TCP/IP stack down: a receive step entered
   afterwards refuses with a negative code instead of waiting for a
   frame and returning 0. *)
let test_rx_step_after_stop () =
  let code = ref 0 in
  ignore
    (boot_world (fun _w ctx ->
         start_net ctx;
         ignore (Kernel.call1 ctx ~import:"netapi.stop" []);
         code := Tcpip.c_rx_step ctx ~timeout:1_000));
  Alcotest.(check bool) "rx_step refused after stop" true (!code < 0)

let suite =
  [
    Alcotest.test_case "dhcp lease" `Quick test_dhcp;
    Alcotest.test_case "ping reply" `Quick test_ping_reply;
    Alcotest.test_case "dns + sntp" `Quick test_dns_and_sntp;
    Alcotest.test_case "tcp socket data" `Quick test_tcp_socket_data;
    Alcotest.test_case "mqtt subscribe/publish" `Quick test_mqtt_subscribe_publish;
    Alcotest.test_case "ping of death micro-reboot" `Quick test_ping_of_death_micro_reboot;
    Alcotest.test_case "rx_step after stop" `Quick test_rx_step_after_stop;
    Alcotest.test_case "tls connect: slow ServerHello" `Quick test_tls_slow_server_hello;
  ]
  @ connect_leak_cases

let () = Alcotest.run "cheriot_net" [ ("net", suite) ]
