(* Packet codec tests: roundtrips, checksum enforcement, stream framing,
   and property tests over random payloads. *)

module P = Packet

let roundtrip ~enc ~dec what v eq =
  match dec (enc v) with
  | Some v' when eq v v' -> ()
  | Some _ -> Alcotest.failf "%s: roundtrip changed the value" what
  | None -> Alcotest.failf "%s: decode failed" what

let test_eth () =
  roundtrip ~enc:P.encode_eth ~dec:P.decode_eth "eth"
    { P.eth_dst = P.mac_broadcast; eth_src = 0x020000000001;
      eth_type = P.ethertype_ipv4; eth_payload = "hello" }
    ( = );
  Alcotest.(check (option reject)) "short frame" None (P.decode_eth "short")

let test_arp () =
  roundtrip ~enc:P.encode_arp ~dec:P.decode_arp "arp"
    { P.arp_op = `Request; arp_sender_mac = 1; arp_sender_ip = 0x0a000001;
      arp_target_mac = 0; arp_target_ip = 0x0a000002 }
    ( = );
  roundtrip ~enc:P.encode_arp ~dec:P.decode_arp "arp reply"
    { P.arp_op = `Reply; arp_sender_mac = 7; arp_sender_ip = 3;
      arp_target_mac = 9; arp_target_ip = 4 }
    ( = )

let test_ipv4_checksum () =
  let h = { P.ip_src = 1; ip_dst = 2; ip_proto = P.proto_udp; ip_payload = "data" } in
  let raw = P.encode_ipv4 h in
  (match P.decode_ipv4 raw with
  | Some h' -> Alcotest.(check bool) "roundtrip" true (h = h')
  | None -> Alcotest.fail "decode failed");
  (* Corrupt a header byte: the checksum must catch it. *)
  let bad = Bytes.of_string raw in
  Bytes.set bad 12 (Char.chr (Char.code (Bytes.get bad 12) lxor 0xff));
  match P.decode_ipv4 (Bytes.to_string bad) with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupted header accepted"

let test_icmp () =
  let i = { P.icmp_type = P.icmp_echo_request; icmp_code = 0; icmp_body = "ping!" } in
  roundtrip ~enc:P.encode_icmp ~dec:P.decode_icmp "icmp" i ( = )

let test_udp_tcp () =
  roundtrip ~enc:P.encode_udp ~dec:P.decode_udp "udp"
    { P.udp_src = 68; udp_dst = 67; udp_payload = "dhcp" }
    ( = );
  roundtrip ~enc:P.encode_tcp ~dec:P.decode_tcp "tcp"
    { P.tcp_src = 49152; tcp_dst = 8883; tcp_seq = 12345; tcp_ack = 999;
      tcp_syn = true; tcp_ack_flag = false; tcp_fin = false; tcp_rst = false;
      tcp_payload = "" }
    ( = );
  roundtrip ~enc:P.encode_tcp ~dec:P.decode_tcp "tcp data"
    { P.tcp_src = 1; tcp_dst = 2; tcp_seq = 7; tcp_ack = 8; tcp_syn = false;
      tcp_ack_flag = true; tcp_fin = true; tcp_rst = false; tcp_payload = "abc" }
    ( = )

let test_dhcp () =
  List.iter
    (fun d -> roundtrip ~enc:P.encode_dhcp ~dec:P.decode_dhcp "dhcp" d ( = ))
    [
      P.Discover 0x020000000001;
      P.Offer { client_mac = 1; your_ip = 2; server_ip = 3 };
      P.Request { client_mac = 1; requested_ip = 2 };
      P.Ack { client_mac = 1; your_ip = 2; server_ip = 3 };
    ];
  Alcotest.(check bool) "bad magic" true (P.decode_dhcp "\x00\x01" = None)

let test_dns_sntp () =
  roundtrip ~enc:P.encode_dns ~dec:P.decode_dns "query"
    (P.Dns_query { dns_id = 42; dns_name = "broker.example.com" })
    ( = );
  roundtrip ~enc:P.encode_dns ~dec:P.decode_dns "answer"
    (P.Dns_answer { dns_id = 42; dns_name = "x.y"; dns_ip = Some 0x0a000707 })
    ( = );
  roundtrip ~enc:P.encode_dns ~dec:P.decode_dns "nxdomain"
    (P.Dns_answer { dns_id = 1; dns_name = "nope"; dns_ip = None })
    ( = );
  roundtrip ~enc:P.encode_sntp ~dec:P.decode_sntp "sntp req" P.Sntp_request ( = );
  roundtrip ~enc:P.encode_sntp ~dec:P.decode_sntp "sntp reply"
    (P.Sntp_reply { sntp_seconds = 1_750_000_000 })
    ( = )

let test_mqtt_stream () =
  (* Several packets back to back decode in order with correct remainders. *)
  let pkts =
    [
      P.Connect "device-1";
      P.Connack;
      P.Subscribe { sub_id = 3; topic = "alerts" };
      P.Suback { sub_id = 3 };
      P.Publish { topic = "alerts"; message = "blink" };
      P.Pingreq;
      P.Pingresp;
      P.Disconnect;
    ]
  in
  let stream = String.concat "" (List.map P.encode_mqtt pkts) in
  let rec drain s acc =
    match P.decode_mqtt s with
    | Some (p, rest) -> drain rest (p :: acc)
    | None -> (List.rev acc, s)
  in
  let decoded, rest = drain stream [] in
  Alcotest.(check int) "all decoded" (List.length pkts) (List.length decoded);
  Alcotest.(check string) "no residue" "" rest;
  Alcotest.(check bool) "order preserved" true (decoded = pkts);
  (* Partial packets report how much is missing. *)
  let one = P.encode_mqtt (P.Publish { topic = "t"; message = "mmmm" }) in
  Alcotest.(check (option int)) "incomplete header" None (P.mqtt_needs "\x03");
  Alcotest.(check (option int)) "needs rest" (Some (String.length one - 3))
    (P.mqtt_needs (String.sub one 0 3))

(* A complete packet that does not decode is dropped by the take step
   instead of staying at the head of the stream. *)
let test_mqtt_take () =
  let unknown = "\x07\x00\x02ab" in
  let short_connect = "\x01\x00\x01\x05" in
  let publish = P.Publish { topic = "t"; message = "m" } in
  let pub = P.encode_mqtt publish in
  let check what expected s =
    let pkt, rest = P.take_mqtt s in
    Alcotest.(check bool) what true (pkt = fst expected && rest = snd expected)
  in
  check "unknown type, then PUBLISH" (Some publish, "") (unknown ^ pub);
  check "two undecodable packets, then PUBLISH and more"
    (Some publish, "\x0c") (unknown ^ short_connect ^ pub ^ "\x0c");
  check "unknown type dropped before a partial packet"
    (None, String.sub pub 0 4) (unknown ^ String.sub pub 0 4);
  check "incomplete packet kept" (None, String.sub unknown 0 4)
    (String.sub unknown 0 4)

let test_ip_formatting () =
  Alcotest.(check string) "quad" "10.0.7.7" (P.ipv4_to_string (P.ipv4_of_quad 10 0 7 7));
  Alcotest.(check int) "of_quad" 0x0a000707 (P.ipv4_of_quad 10 0 7 7)

(* Properties *)

let printable_string n = QCheck.Gen.(string_size ~gen:printable (int_bound n))

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp roundtrip with random payloads" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* src = int_bound 65535 and* dst = int_bound 65535 in
         let* payload = printable_string 256 in
         return (src, dst, payload)))
    (fun (src, dst, payload) ->
      P.decode_udp (P.encode_udp { P.udp_src = src; udp_dst = dst; udp_payload = payload })
      = Some { P.udp_src = src; udp_dst = dst; udp_payload = payload })

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp roundtrip with random flags" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* seq = int_bound 0xffffff and* ack = int_bound 0xffffff in
         let* syn = bool and* ackf = bool and* fin = bool and* rst = bool in
         let* payload = printable_string 64 in
         return (seq, ack, syn, ackf, fin, rst, payload)))
    (fun (seq, ack, syn, ackf, fin, rst, payload) ->
      let t =
        { P.tcp_src = 1; tcp_dst = 2; tcp_seq = seq; tcp_ack = ack; tcp_syn = syn;
          tcp_ack_flag = ackf; tcp_fin = fin; tcp_rst = rst; tcp_payload = payload }
      in
      P.decode_tcp (P.encode_tcp t) = Some t)

let prop_mqtt_roundtrip =
  QCheck.Test.make ~name:"mqtt publish roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(pair (printable_string 60) (printable_string 200)))
    (fun (topic, message) ->
      match P.decode_mqtt (P.encode_mqtt (P.Publish { topic; message })) with
      | Some (P.Publish p, "") -> p.topic = topic && p.message = message
      | _ -> false)

let prop_eth_garbage_never_crashes =
  QCheck.Test.make ~name:"decoders are total on garbage" ~count:300
    (QCheck.make QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 80)))
    (fun junk ->
      ignore (P.decode_eth junk);
      ignore (P.decode_arp junk);
      ignore (P.decode_ipv4 junk);
      ignore (P.decode_udp junk);
      ignore (P.decode_tcp junk);
      ignore (P.decode_icmp junk);
      ignore (P.decode_frame junk);
      ignore (Tls_lite.take_record junk);
      ignore (P.decode_dhcp junk);
      ignore (P.decode_dns junk);
      ignore (P.decode_sntp junk);
      ignore (P.decode_mqtt junk);
      true)

(* The nested decode ladder the hosts used to write out by hand, kept
   here as the reference that [decode_frame] must agree with. *)
let ladder raw =
  match P.decode_eth raw with
  | None -> P.Other
  | Some eth ->
      if eth.P.eth_type = P.ethertype_arp then
        match P.decode_arp eth.P.eth_payload with Some a -> P.Arp a | None -> P.Other
      else if eth.P.eth_type = P.ethertype_ipv4 then
        match P.decode_ipv4 eth.P.eth_payload with
        | None -> P.Other
        | Some ip -> (
            match ip.P.ip_proto with
            | 1 -> (
                match P.decode_icmp ip.P.ip_payload with
                | Some i -> P.Icmp (ip, i)
                | None -> P.Other)
            | 17 -> (
                match P.decode_udp ip.P.ip_payload with
                | Some u -> P.Udp (ip, u)
                | None -> P.Other)
            | 6 -> (
                match P.decode_tcp ip.P.ip_payload with
                | Some t -> P.Tcp (ip, t)
                | None -> P.Other)
            | _ -> P.Other)
      else P.Other

(* Frames built with the encoders: every case the hosts handle, an IPv4
   protocol none handles and a foreign ethertype; half of them then get
   one byte flipped. *)
let gen_frame =
  QCheck.Gen.(
    let* kind = int_bound 5 in
    let* a = int_bound 0xffff and* b = int_bound 0xffff and* flags = int_bound 15 in
    let* payload = printable_string 64 in
    let eth ty p =
      P.encode_eth
        { P.eth_dst = P.mac_broadcast; eth_src = 0x020000000001; eth_type = ty; eth_payload = p }
    in
    let ip proto p =
      eth P.ethertype_ipv4
        (P.encode_ipv4
           { P.ip_src = 0x0a000001; ip_dst = 0x0a000002; ip_proto = proto; ip_payload = p })
    in
    let frame =
      match kind with
      | 0 ->
          eth P.ethertype_arp
            (P.encode_arp
               { P.arp_op = (if flags land 1 = 0 then `Request else `Reply);
                 arp_sender_mac = a; arp_sender_ip = b; arp_target_mac = 0;
                 arp_target_ip = a })
      | 1 ->
          ip P.proto_icmp
            (P.encode_icmp { P.icmp_type = flags; icmp_code = 0; icmp_body = payload })
      | 2 -> ip P.proto_udp (P.encode_udp { P.udp_src = a; udp_dst = b; udp_payload = payload })
      | 3 ->
          ip P.proto_tcp
            (P.encode_tcp
               { P.tcp_src = a; tcp_dst = b; tcp_seq = a * b; tcp_ack = b;
                 tcp_syn = flags land 1 <> 0; tcp_ack_flag = flags land 2 <> 0;
                 tcp_fin = flags land 4 <> 0; tcp_rst = flags land 8 <> 0;
                 tcp_payload = payload })
      | 4 -> ip 99 payload
      | _ -> eth 0x88b5 payload
    in
    let* flip = bool and* at = int_bound (String.length frame - 1)
    and* mask = int_range 1 255 in
    if not flip then return frame
    else
      let f = Bytes.of_string frame in
      Bytes.set f at (Char.chr (Char.code (Bytes.get f at) lxor mask));
      return (Bytes.to_string f))

let prop_decode_frame_is_the_ladder =
  QCheck.Test.make ~name:"decode_frame agrees with the nested ladder" ~count:500
    (QCheck.make ~print:String.escaped gen_frame)
    (fun raw -> P.decode_frame raw = ladder raw)

(* TLS-lite *)

let test_tls_handshake_and_records () =
  let client_secret = 1234 and server_secret = 5678 in
  let hello = Tls_lite.client_hello ~nonce:1 ~secret:client_secret in
  let server, server_hello =
    Result.get_ok (Tls_lite.server_process_hello ~secret:server_secret ~nonce:2 hello)
  in
  let client =
    Result.get_ok
      (Tls_lite.client_process_server_hello ~secret:client_secret ~nonce:1 server_hello)
  in
  (* Records flow both ways and MACs verify. *)
  let r1 = Tls_lite.seal client "hello over tls" in
  Alcotest.(check string) "server opens" "hello over tls"
    (Result.get_ok (Tls_lite.open_ server r1));
  let r2 = Tls_lite.seal server "reply" in
  Alcotest.(check string) "client opens" "reply" (Result.get_ok (Tls_lite.open_ client r2));
  (* Tampering is detected. *)
  let r3 = Tls_lite.seal client "sensitive" in
  let bad = Bytes.of_string r3 in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 1));
  (match Tls_lite.open_ server (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered record accepted");
  (* The genuine record still opens (the failed attempt did not consume
     the receive counter)... *)
  Alcotest.(check string) "genuine after tamper" "sensitive"
    (Result.get_ok (Tls_lite.open_ server r3));
  (* ...and replaying it is detected (counters advance). *)
  match Tls_lite.open_ server r3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replayed record accepted"

let test_tls_record_framing () =
  let client_secret = 1 and server_secret = 2 in
  let hello = Tls_lite.client_hello ~nonce:1 ~secret:client_secret in
  let server, sh = Result.get_ok (Tls_lite.server_process_hello ~secret:server_secret ~nonce:2 hello) in
  let client = Result.get_ok (Tls_lite.client_process_server_hello ~secret:client_secret ~nonce:1 sh) in
  ignore server;
  let r = Tls_lite.seal client "0123456789" in
  let take = Alcotest.(check (option (pair string string))) in
  take "complete" (Some (r, "")) (Tls_lite.take_record r);
  take "complete, then the next bytes" (Some (r, "\x00\x07"))
    (Tls_lite.take_record (r ^ "\x00\x07"));
  take "4 bytes missing" None (Tls_lite.take_record (String.sub r 0 (String.length r - 4)));
  take "no length yet" None (Tls_lite.take_record "\x00")

let suite =
  [
    Alcotest.test_case "ethernet" `Quick test_eth;
    Alcotest.test_case "arp" `Quick test_arp;
    Alcotest.test_case "ipv4 checksum" `Quick test_ipv4_checksum;
    Alcotest.test_case "icmp" `Quick test_icmp;
    Alcotest.test_case "udp/tcp" `Quick test_udp_tcp;
    Alcotest.test_case "dhcp" `Quick test_dhcp;
    Alcotest.test_case "dns/sntp" `Quick test_dns_sntp;
    Alcotest.test_case "mqtt stream" `Quick test_mqtt_stream;
    Alcotest.test_case "mqtt take drops undecodable packets" `Quick test_mqtt_take;
    Alcotest.test_case "ip formatting" `Quick test_ip_formatting;
    Qcheck_seed.to_alcotest prop_udp_roundtrip;
    Qcheck_seed.to_alcotest prop_tcp_roundtrip;
    Qcheck_seed.to_alcotest prop_mqtt_roundtrip;
    Qcheck_seed.to_alcotest prop_eth_garbage_never_crashes;
    Qcheck_seed.to_alcotest prop_decode_frame_is_the_ladder;
    Alcotest.test_case "tls handshake/records" `Quick test_tls_handshake_and_records;
    Alcotest.test_case "tls framing" `Quick test_tls_record_framing;
  ]

let () = Alcotest.run "cheriot_packet" [ ("packet+tls", suite) ]
