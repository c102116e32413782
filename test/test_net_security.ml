(* Network security behaviours: the firewall's packet filter, socket
   multiwait (poll-style) via futexes, and UDP round trips. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

let firmware () =
  System.image ~name:"netsec-test"
    ~sealed_objects:
      (Netstack.sealed_objects
      @ [ Allocator.alloc_capability ~name:"app_quota" ~quota:4096 ])
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
           (Netstack.Netapi.client_imports @ Tcpip.client_imports
          @ Allocator.client_imports @ Scheduler.client_imports
          @ Firewall.client_imports
           @ [ F.Static_sealed { target = "app_quota" } ]);
     ]
    @ Netstack.compartments ())

let boot_world main =
  let machine = Machine.create () in
  let net = Netsim.attach ~latency:20_000 machine in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  Netstack.install sys.System.kernel;
  let failure = ref None in
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      (try main net sys ctx with
      | Alcotest_engine__Core.Check_error _ as e -> failure := Some e
      | Memory.Fault _ as e -> failure := Some e);
      ignore (Kernel.call1 ctx ~import:"netapi.stop" []);
      Cap.null);
  System.run ~until_cycles:3_000_000_000 sys;
  match !failure with Some e -> raise e | None -> ()

let start ctx = ignore (Kernel.call1 ctx ~import:"netapi.start" [])

let test_firewall_blocks_disallowed_port () =
  boot_world (fun net _sys ctx ->
      start ctx;
      (* Block the broker port via the firewall's management entry. *)
      ignore
        (Kernel.call1 ctx ~import:"firewall.block_port" [ iv Netsim.broker_port ]);
      let frames_before = Netsim.frames_sent net in
      (* A TCP connect must now fail: the SYNs never reach the wire. *)
      let sock = Tcpip.c_tcp_open ctx in
      let r =
        Tcpip.c_tcp_connect ctx ~sock ~ip:Netsim.broker_ip ~port:Netsim.broker_port
          ~timeout:200_000
      in
      Alcotest.(check bool) "connect fails" true (r < 0);
      Alcotest.(check int) "no frames escaped" frames_before (Netsim.frames_sent net);
      (* Re-allow and verify connectivity returns. *)
      ignore
        (Kernel.call1 ctx ~import:"firewall.allow_port" [ iv Netsim.broker_port ]);
      let sock2 = Tcpip.c_tcp_open ctx in
      let r2 =
        Tcpip.c_tcp_connect ctx ~sock:sock2 ~ip:Netsim.broker_ip
          ~port:Netsim.broker_port ~timeout:60_000_000
      in
      ignore r2)

let test_udp_roundtrip_via_dns () =
  boot_world (fun net _sys ctx ->
      Netsim.add_dns_record net "host.example" 0x01020304;
      start ctx;
      let sock = Tcpip.c_udp_open ctx in
      Alcotest.(check bool) "socket allocated" true (sock >= 0);
      let q = Packet.encode_dns (Packet.Dns_query { dns_id = 5; dns_name = "host.example" }) in
      let ctx, buf = Kernel.stack_alloc ctx 128 in
      Membuf.of_string (Kernel.machine ctx.Kernel.kernel) ~auth:buf q;
      let sent =
        Tcpip.c_udp_sendto ctx ~sock ~ip:Netsim.dns_ip ~port:Packet.dns_port ~buf
          ~len:(String.length q)
      in
      Alcotest.(check int) "sent" (String.length q) sent;
      let n = Tcpip.c_udp_recv ctx ~sock ~buf ~maxlen:128 ~timeout:10_000_000 in
      Alcotest.(check bool) "got reply" true (n > 0);
      match
        Packet.decode_dns
          (Membuf.to_string (Kernel.machine ctx.Kernel.kernel) ~auth:buf ~len:n)
      with
      | Some (Packet.Dns_answer { dns_id = 5; dns_ip = Some ip; _ }) ->
          Alcotest.(check int) "resolved" 0x01020304 ip
      | _ -> Alcotest.fail "bad DNS reply")

let test_socket_futex_multiwait () =
  (* Poll-style use (§3.2.4): multiwait on a socket's futex fires when
     data arrives. *)
  boot_world (fun net _sys ctx ->
      Netsim.add_dns_record net "x.y" 1;
      start ctx;
      let sock = Tcpip.c_udp_open ctx in
      let word =
        Result.get_ok (Kernel.call1 ctx ~import:"tcpip.sock_futex" [ iv sock ])
      in
      Alcotest.(check bool) "futex cap" true (Cap.tag word);
      let seen =
        Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:word
          ~addr:(Cap.address word) ~size:4
      in
      (* Fire a DNS query from this socket; the reply lands in our queue
         and bumps the futex. *)
      let q = Packet.encode_dns (Packet.Dns_query { dns_id = 9; dns_name = "x.y" }) in
      let ctx, buf = Kernel.stack_alloc ctx 64 in
      Membuf.of_string (Kernel.machine ctx.Kernel.kernel) ~auth:buf q;
      ignore
        (Tcpip.c_udp_sendto ctx ~sock ~ip:Netsim.dns_ip ~port:Packet.dns_port ~buf
           ~len:(String.length q));
      match Scheduler.multiwait ctx ~events:[ (word, seen) ] ~timeout:20_000_000 () with
      | `Fired 0 ->
          let n = Tcpip.c_udp_recv ctx ~sock ~buf ~maxlen:64 ~timeout:1_000 in
          Alcotest.(check bool) "data ready after multiwait" true (n > 0)
      | `Fired i -> Alcotest.failf "wrong index %d" i
      | `Timed_out -> Alcotest.fail "multiwait never fired")

(* A permitted frame longer than the caller's buffer is truncated to
   the buffer's room, whichever of the firewall's two receive checks
   finds it.  The frame's arrival is swept over the first 1,000 cycles
   of the call: most offsets land before the first check or during the
   futex wait, and the few that land while the firewall reads the
   interrupt futex word (about 550 cycles in) reach the re-check. *)
let test_firewall_truncates_long_frame () =
  boot_world (fun net _sys ctx ->
      (* Stop the manager thread so only this thread reads frames. *)
      ignore (Kernel.call1 ctx ~import:"netapi.stop" []);
      Kernel.sleep ctx 1_000_000;
      let ctx, buf = Kernel.stack_alloc ctx 64 in
      let room = Cap.top buf - Cap.address buf in
      let m = Kernel.machine ctx.Kernel.kernel in
      for offset = 0 to 1_000 do
        Netsim.inject_frame_at net ~cycles:(Machine.cycles m + offset)
          ~frame:(String.make 200 'A');
        Alcotest.(check int)
          (Printf.sprintf "length at offset %d" offset)
          room
          (Firewall.recv ctx ~buf ~timeout:1_000_000)
      done)

(* The firewall's filter and counters are part of [Machine.snapshot]: a
   port blocked and frames filtered after the snapshot are forgotten by
   [restore]. *)
let test_firewall_restored_by_snapshot () =
  let machine = Machine.create () in
  let net = Netsim.attach machine in
  let image =
    System.image ~name:"fw-snapshot"
      ~threads:[ F.thread ~name:"app" ~comp:"app" ~entry:"main" ~stack_size:4096 () ]
      [
        F.compartment "app" ~globals_size:16
          ~entries:[ F.entry "main" ~arity:0 ~min_stack:1024 ]
          ~imports:Firewall.client_imports;
        Firewall.firmware_compartment ();
      ]
  in
  let sys = Result.get_ok (System.boot ~machine image) in
  let k = sys.System.kernel in
  Firewall.install k;
  let snap = Machine.snapshot machine in
  let run main =
    let failure = ref None in
    Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
        (try main ctx with e -> failure := Some e);
        Cap.null);
    System.run sys;
    match !failure with Some e -> raise e | None -> ()
  in
  let udp ~src_ip ~dst_ip ~src_port ~dst_port =
    Packet.encode_eth
      {
        Packet.eth_dst = Netsim.device_mac;
        eth_src = Netsim.device_mac;
        eth_type = Packet.ethertype_ipv4;
        eth_payload =
          Packet.encode_ipv4
            {
              Packet.ip_src = src_ip;
              ip_dst = dst_ip;
              ip_proto = Packet.proto_udp;
              ip_payload =
                Packet.encode_udp
                  { Packet.udp_src = src_port; udp_dst = dst_port; udp_payload = "x" };
            };
      }
  in
  (* One DNS frame each way: what [send] and [recv] returned. *)
  let exchange ctx =
    let ctx, buf = Kernel.stack_alloc ctx 128 in
    let out =
      udp ~src_ip:Netsim.device_ip ~dst_ip:Netsim.dns_ip ~src_port:1000
        ~dst_port:Packet.dns_port
    in
    Membuf.of_string machine ~auth:buf out;
    let sent = Firewall.send ctx ~frame_cap:buf ~len:(String.length out) in
    Netsim.inject_frame_at net ~cycles:(Machine.cycles machine)
      ~frame:
        (udp ~src_ip:Netsim.dns_ip ~dst_ip:Netsim.device_ip ~src_port:Packet.dns_port
           ~dst_port:1000);
    (sent, Firewall.recv ctx ~buf ~timeout:1_000_000)
  in
  let stats ctx =
    match Kernel.call ctx ~import:"firewall.stats" [] with
    | Ok (tx, dropped) -> (ti tx, ti dropped)
    | Error e -> Alcotest.failf "stats: %a" Kernel.pp_call_error e
  in
  let pair = Alcotest.(pair int int) in
  run (fun ctx ->
      ignore (Kernel.call1 ctx ~import:"firewall.block_port" [ iv Packet.dns_port ]);
      let sent, got = exchange ctx in
      Alcotest.(check int) "blocked send" (-1) sent;
      Alcotest.(check int) "blocked recv" 0 got;
      Alcotest.check pair "tx, dropped" (0, 2) (stats ctx));
  Machine.restore machine snap;
  run (fun ctx ->
      Alcotest.check pair "counters restored" (0, 0) (stats ctx);
      let sent, got = exchange ctx in
      Alcotest.(check bool) "port reopened: send passes" true (sent > 0);
      Alcotest.(check bool) "port reopened: recv passes" true (got > 0);
      Alcotest.check pair "tx, dropped after restore" (1, 0) (stats ctx))

let suite =
  [
    Alcotest.test_case "firewall blocks port" `Quick test_firewall_blocks_disallowed_port;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip_via_dns;
    Alcotest.test_case "socket futex multiwait" `Quick test_socket_futex_multiwait;
    Alcotest.test_case "firewall truncates long frame" `Quick
      test_firewall_truncates_long_frame;
    Alcotest.test_case "firewall restored by snapshot" `Quick
      test_firewall_restored_by_snapshot;
  ]

let () = Alcotest.run "cheriot_net_security" [ ("net-security", suite) ]
