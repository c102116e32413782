module P = Packet

let device_name = "eth0"
let mmio_base = 0x1100_0000
let mmio_size = 4096
let rx_window = 0x010
let tx_window = 0x800
let max_frame = 2032
let device_mac = 0x02_00_00_00_00_01
let gateway_mac = 0x02_00_00_00_ff_01
let gateway_ip = P.ipv4_of_quad 10 0 0 1
let device_ip = P.ipv4_of_quad 10 0 0 2
let dns_ip = P.ipv4_of_quad 10 0 0 53
let ntp_ip = P.ipv4_of_quad 10 0 0 123
let broker_ip = P.ipv4_of_quad 10 0 7 7
let broker_port = 8883
let server_tls_secret = 987654
let server_tls_nonce = 0x5e57ed

type srv_conn = {
  sc_port : int;
  mutable sc_state : [ `Synrcvd | `Estab | `Closed ];
  mutable sc_seq : int;
  mutable sc_ack : int;
  mutable sc_stream : string;
  mutable sc_tls : Tls_lite.conn option;
  mutable sc_subs : string list;
}

type chaos = Pass | Drop | Duplicate | Corrupt of int * int | Delay of int

type t = {
  machine : Machine.t;
  latency : int;
  sntp_latency : int;
  mutable chaos_hook : (string -> chaos) option;
  mutable pending : (int * string) list;  (** due cycle, frame to device *)
  rxq : string Queue.t;
  txbuf : Bytes.t;
  mutable dns : (string * P.ipv4) list;
  mutable wallclock : int;
  mutable conns : srv_conn list;
  mutable publishes : (int * string * string) list;
  mutable pods : (int * int) list;
  mutable raws : (int * string) list;
  mutable sent : int;
  mutable last_echo_reply : string option;
  mutable listener : Machine.listener_handle option;
}

let frames_sent t = t.sent
let last_icmp_echo_reply t = t.last_echo_reply
let add_dns_record t name ip = t.dns <- (name, ip) :: t.dns
let set_wallclock t s = t.wallclock <- s

(* The world is event-driven: the tick listener is parked until the
   earliest due cycle across the three timed queues. *)
let update_wakeup t =
  match t.listener with
  | None -> ()
  | Some h ->
      let at = List.fold_left (fun a (c, _) -> min a c) max_int t.pending in
      let at = List.fold_left (fun a (c, _, _) -> min a c) at t.publishes in
      let at = List.fold_left (fun a (c, _) -> min a c) at t.pods in
      let at = List.fold_left (fun a (c, _) -> min a c) at t.raws in
      Machine.set_listener_wakeup t.machine h ~at

let broker_publish_at t ~cycles ~topic ~message =
  t.publishes <- t.publishes @ [ (cycles, topic, message) ];
  update_wakeup t

let ping_of_death_at t ~cycles ~size =
  t.pods <- t.pods @ [ (cycles, size) ];
  update_wakeup t

let inject_frame_at t ~cycles ~frame =
  t.raws <- t.raws @ [ (cycles, frame) ];
  update_wakeup t

(* The malformed-frame family (lib/attack): the ping of death
   generalized.  [pod_frame] is the original §5.3.3 trigger as a raw
   frame; [tlv_frame] is a length-prefixed experimental-ethertype frame
   whose claimed payload length need not match the data actually sent —
   a parser that trusts the claim walks off the end of its buffer. *)

let pod_frame ~size =
  let body = String.make size 'X' in
  P.encode_eth
    {
      P.eth_dst = device_mac;
      eth_src = gateway_mac;
      eth_type = P.ethertype_ipv4;
      eth_payload =
        P.encode_ipv4
          {
            P.ip_src = gateway_ip;
            ip_dst = device_ip;
            ip_proto = P.proto_icmp;
            ip_payload =
              P.encode_icmp
                { P.icmp_type = P.icmp_echo_request; icmp_code = 0; icmp_body = body };
          };
    }

let ethertype_tlv = 0x88b5 (* IEEE 802 local experimental *)
let tlv_claim_off = 14 (* byte offset of the 4-byte LE claimed length *)
let tlv_data_off = 18

let tlv_frame ~claim ~data =
  let hdr = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set hdr i (Char.chr ((claim lsr (8 * i)) land 0xff))
  done;
  P.encode_eth
    {
      P.eth_dst = device_mac;
      eth_src = gateway_mac;
      eth_type = ethertype_tlv;
      eth_payload = Bytes.to_string hdr ^ data;
    }

let set_chaos_hook t h = t.chaos_hook <- h

let corrupt_frame frame off mask =
  if String.length frame = 0 then frame
  else begin
    let b = Bytes.of_string frame in
    let i = off mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (mask land 0xff)));
    Bytes.to_string b
  end

(* Deliver a frame to the device after [delay] cycles, subject to the
   chaos hook (drop / duplicate / corrupt / delay — delaying past later
   frames is how reordering happens). *)
let to_device t ?delay frame =
  let delay = Option.value ~default:t.latency delay in
  let deliver d f =
    (* Input journal: every frame headed for the device, after the chaos
       hook had its say (digest, not payload, so journals stay small). *)
    if Machine.input_logging t.machine then
      Machine.log_input t.machine
        (Printf.sprintf "frame +%d len=%d %s" d (String.length f)
           (Digest.to_hex (Digest.string f)));
    t.pending <- t.pending @ [ (Machine.cycles t.machine + d, f) ];
    update_wakeup t
  in
  match t.chaos_hook with
  | None -> deliver delay frame
  | Some hook -> (
      match hook frame with
      | Pass -> deliver delay frame
      | Drop -> ()
      | Duplicate ->
          deliver delay frame;
          deliver delay frame
      | Corrupt (off, mask) -> deliver delay (corrupt_frame frame off mask)
      | Delay extra -> deliver (delay + max 0 extra) frame)

let eth_to_device ?delay t ~src payload ~ethertype =
  to_device t ?delay
    (P.encode_eth
       { P.eth_dst = device_mac; eth_src = src; eth_type = ethertype; eth_payload = payload })

let ip_to_device ?delay t ~src_ip ~proto payload =
  eth_to_device ?delay t ~src:gateway_mac ~ethertype:P.ethertype_ipv4
    (P.encode_ipv4 { P.ip_src = src_ip; ip_dst = device_ip; ip_proto = proto; ip_payload = payload })

let udp_to_device ?delay t ~src_ip ~src_port ~dst_port payload =
  ip_to_device ?delay t ~src_ip ~proto:P.proto_udp
    (P.encode_udp { P.udp_src = src_port; udp_dst = dst_port; udp_payload = payload })

(* Server-side TCP *)

let conn_for t port =
  List.find_opt (fun c -> c.sc_port = port && c.sc_state <> `Closed) t.conns

let tcp_to_device t conn ?(syn = false) ?(fin = false) payload =
  let seg =
    P.encode_tcp
      {
        P.tcp_src = broker_port;
        tcp_dst = conn.sc_port;
        tcp_seq = conn.sc_seq;
        tcp_ack = conn.sc_ack;
        tcp_syn = syn;
        tcp_ack_flag = true;
        tcp_fin = fin;
        tcp_rst = false;
        tcp_payload = payload;
      }
  in
  conn.sc_seq <-
    (conn.sc_seq + String.length payload + (if syn then 1 else 0) + if fin then 1 else 0)
    land 0xffffffff;
  ip_to_device t ~src_ip:broker_ip ~proto:P.proto_tcp seg

let send_record t conn plain =
  match conn.sc_tls with
  | Some tls -> tcp_to_device t conn (Tls_lite.seal tls plain)
  | None -> ()

(* Consume the accumulated client stream: TLS handshake then records,
   each record carrying one MQTT-lite packet. *)
let rec process_stream t conn =
  match conn.sc_tls with
  | None ->
      if String.length conn.sc_stream >= 9 then begin
        let hello = String.sub conn.sc_stream 0 9 in
        conn.sc_stream <- String.sub conn.sc_stream 9 (String.length conn.sc_stream - 9);
        match
          Tls_lite.server_process_hello ~secret:server_tls_secret
            ~nonce:server_tls_nonce hello
        with
        | Ok (tls, server_hello) ->
            conn.sc_tls <- Some tls;
            tcp_to_device t conn server_hello;
            process_stream t conn
        | Error _ -> conn.sc_state <- `Closed
      end
  | Some tls -> (
      match Tls_lite.record_needs conn.sc_stream with
      | Some 0 -> (
          let size = Tls_lite.record_size conn.sc_stream in
          let record = String.sub conn.sc_stream 0 size in
          conn.sc_stream <-
            String.sub conn.sc_stream size (String.length conn.sc_stream - size);
          match Tls_lite.open_ tls record with
          | Error _ -> conn.sc_state <- `Closed
          | Ok plain ->
              (match P.decode_mqtt plain with
              | Some (P.Connect _, _) -> send_record t conn (P.encode_mqtt P.Connack)
              | Some (P.Subscribe { sub_id; topic }, _) ->
                  conn.sc_subs <- topic :: conn.sc_subs;
                  send_record t conn (P.encode_mqtt (P.Suback { sub_id }))
              | Some (P.Pingreq, _) -> send_record t conn (P.encode_mqtt P.Pingresp)
              | Some (P.Publish _, _) | Some (P.Connack, _) | Some (P.Suback _, _)
              | Some (P.Pingresp, _) ->
                  ()
              | Some (P.Disconnect, _) -> conn.sc_state <- `Closed
              | None -> ());
              process_stream t conn)
      | Some _ | None -> ())

let handle_tcp t seg =
  if seg.P.tcp_dst = broker_port then begin
    if seg.P.tcp_syn && not seg.P.tcp_ack_flag then begin
      (* New connection (or retransmitted SYN). *)
      (match conn_for t seg.P.tcp_src with
      | Some c -> c.sc_state <- `Closed
      | None -> ());
      let conn =
        {
          sc_port = seg.P.tcp_src;
          sc_state = `Synrcvd;
          sc_seq = 9000;
          sc_ack = (seg.P.tcp_seq + 1) land 0xffffffff;
          sc_stream = "";
          sc_tls = None;
          sc_subs = [];
        }
      in
      t.conns <- conn :: t.conns;
      tcp_to_device t conn ~syn:true ""
    end
    else
      match conn_for t seg.P.tcp_src with
      | None -> ()
      | Some conn ->
          if conn.sc_state = `Synrcvd && seg.P.tcp_ack_flag then conn.sc_state <- `Estab;
          if seg.P.tcp_rst then conn.sc_state <- `Closed
          else begin
            let payload = seg.P.tcp_payload in
            if String.length payload > 0 then begin
              if seg.P.tcp_seq = conn.sc_ack then begin
                conn.sc_ack <- (conn.sc_ack + String.length payload) land 0xffffffff;
                conn.sc_stream <- conn.sc_stream ^ payload;
                tcp_to_device t conn "";
                process_stream t conn
              end
              else (* duplicate or out of order: re-ACK *)
                tcp_to_device t conn ""
            end;
            if seg.P.tcp_fin then begin
              conn.sc_ack <- (conn.sc_ack + 1) land 0xffffffff;
              tcp_to_device t conn ~fin:true "";
              conn.sc_state <- `Closed
            end
          end
  end

let handle_udp t ip u =
  let reply ~src_ip ~src_port payload =
    udp_to_device t ~src_ip ~src_port ~dst_port:u.P.udp_src payload
  in
  if u.P.udp_dst = P.dhcp_server_port then begin
    match P.decode_dhcp u.P.udp_payload with
    | Some (P.Discover mac) ->
        reply ~src_ip:gateway_ip ~src_port:P.dhcp_server_port
          (P.encode_dhcp (P.Offer { client_mac = mac; your_ip = device_ip; server_ip = gateway_ip }))
    | Some (P.Request { client_mac; requested_ip }) ->
        reply ~src_ip:gateway_ip ~src_port:P.dhcp_server_port
          (P.encode_dhcp (P.Ack { client_mac; your_ip = requested_ip; server_ip = gateway_ip }))
    | Some (P.Offer _) | Some (P.Ack _) | None -> ()
  end
  else if u.P.udp_dst = P.dns_port && ip.P.ip_dst = dns_ip then begin
    match P.decode_dns u.P.udp_payload with
    | Some (P.Dns_query { dns_id; dns_name }) ->
        reply ~src_ip:dns_ip ~src_port:P.dns_port
          (P.encode_dns
             (P.Dns_answer
                { dns_id; dns_name; dns_ip = List.assoc_opt dns_name t.dns }))
    | Some (P.Dns_answer _) | None -> ()
  end
  else if u.P.udp_dst = P.sntp_port && ip.P.ip_dst = ntp_ip then begin
    match P.decode_sntp u.P.udp_payload with
    | Some P.Sntp_request ->
        udp_to_device ~delay:t.sntp_latency t ~src_ip:ntp_ip ~src_port:P.sntp_port
          ~dst_port:u.P.udp_src
          (P.encode_sntp (P.Sntp_reply { sntp_seconds = t.wallclock }))
    | Some (P.Sntp_reply _) | None -> ()
  end

(* A frame transmitted by the device. *)
let handle_frame t raw =
  t.sent <- t.sent + 1;
  match P.decode_eth raw with
  | None -> ()
  | Some eth ->
      if eth.P.eth_type = P.ethertype_arp then begin
        match P.decode_arp eth.P.eth_payload with
        | Some a when a.P.arp_op = `Request ->
            (* The gateway proxy-answers for every server address. *)
            eth_to_device t ~src:gateway_mac ~ethertype:P.ethertype_arp
              (P.encode_arp
                 {
                   P.arp_op = `Reply;
                   arp_sender_mac = gateway_mac;
                   arp_sender_ip = a.P.arp_target_ip;
                   arp_target_mac = a.P.arp_sender_mac;
                   arp_target_ip = a.P.arp_sender_ip;
                 })
        | Some _ | None -> ()
      end
      else if eth.P.eth_type = P.ethertype_ipv4 then begin
        match P.decode_ipv4 eth.P.eth_payload with
        | None -> ()
        | Some ip -> (
            match ip.P.ip_proto with
            | 17 -> (
                match P.decode_udp ip.P.ip_payload with
                | Some u -> handle_udp t ip u
                | None -> ())
            | 6 -> (
                match P.decode_tcp ip.P.ip_payload with
                | Some seg -> handle_tcp t seg
                | None -> ())
            | 1 -> (
                match P.decode_icmp ip.P.ip_payload with
                | Some i when i.P.icmp_type = P.icmp_echo_reply ->
                    t.last_echo_reply <- Some i.P.icmp_body
                | Some _ | None -> ())
            | _ -> ())
      end

(* Timed events *)

let fire_due t now =
  let due, later = List.partition (fun (c, _) -> c <= now) t.pending in
  t.pending <- later;
  List.iter
    (fun (_, frame) ->
      Queue.push frame t.rxq;
      Machine.raise_irq t.machine Machine.ethernet_irq)
    due;
  let due_pubs, later_pubs = List.partition (fun (c, _, _) -> c <= now) t.publishes in
  t.publishes <- later_pubs;
  List.iter
    (fun (_, topic, message) ->
      List.iter
        (fun conn ->
          if conn.sc_state = `Estab && List.mem topic conn.sc_subs then
            send_record t conn (P.encode_mqtt (P.Publish { topic; message })))
        t.conns)
    due_pubs;
  let due_pods, later_pods = List.partition (fun (c, _) -> c <= now) t.pods in
  t.pods <- later_pods;
  List.iter
    (fun (_, size) ->
      (* Malformed oversized echo request: the "Ping of death". *)
      to_device ~delay:0 t (pod_frame ~size))
    due_pods;
  let due_raws, later_raws = List.partition (fun (c, _) -> c <= now) t.raws in
  t.raws <- later_raws;
  List.iter (fun (_, frame) -> to_device ~delay:0 t frame) due_raws;
  update_wakeup t

let attach ?(latency = 33_000) ?(sntp_latency = 33_000) machine =
  let t =
    {
      machine;
      latency;
      sntp_latency;
      chaos_hook = None;
      pending = [];
      rxq = Queue.create ();
      txbuf = Bytes.make 2048 '\000';
      dns = [];
      wallclock = 1_700_000_000;
      conns = [];
      publishes = [];
      pods = [];
      raws = [];
      sent = 0;
      last_echo_reply = None;
      listener = None;
    }
  in
  let read ~addr ~size =
    if addr = 0 then
      match Queue.peek_opt t.rxq with None -> 0 | Some f -> String.length f
    else if addr >= rx_window && addr + size <= tx_window then begin
      match Queue.peek_opt t.rxq with
      | None -> 0
      | Some f ->
          let off = addr - rx_window in
          let byte i = if off + i < String.length f then Char.code f.[off + i] else 0 in
          let rec go acc i = if i < 0 then acc else go ((acc lsl 8) lor byte i) (i - 1) in
          go 0 (size - 1)
    end
    else 0
  in
  let write ~addr ~size v =
    if addr = 4 then ignore (Queue.pop t.rxq)
    else if addr = 8 then begin
      let len = min v (Bytes.length t.txbuf) in
      handle_frame t (Bytes.sub_string t.txbuf 0 len)
    end
    else if addr >= tx_window && addr + size <= mmio_size then begin
      let off = addr - tx_window in
      for i = 0 to size - 1 do
        if off + i < Bytes.length t.txbuf then
          Bytes.set t.txbuf (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
      done
    end
  in
  Machine.add_device machine ~base:mmio_base ~size:mmio_size
    { Machine.Device.name = device_name; read; write };
  t.listener <-
    Some (Machine.add_tick_listener ~period:0 machine (fun now -> fire_due t now));
  update_wakeup t;
  (* The world's whole state lives in [t] (the MMIO device reads through
     it); connection and TLS records are shared with in-flight closures,
     so their mutable fields restore in place. *)
  Machine.on_snapshot machine (fun () ->
      let chaos_hook = t.chaos_hook in
      let pending = t.pending in
      let rxq = Queue.copy t.rxq in
      let txbuf = Bytes.copy t.txbuf in
      let dns = t.dns in
      let wallclock = t.wallclock in
      let conns =
        List.map
          (fun c ->
            let tls =
              Option.map
                (fun tls ->
                  (tls, Tls_lite.send_counter tls, Tls_lite.recv_counter tls))
                c.sc_tls
            in
            (c, c.sc_state, c.sc_seq, c.sc_ack, c.sc_stream, tls, c.sc_subs))
          t.conns
      in
      let publishes = t.publishes in
      let pods = t.pods in
      let raws = t.raws in
      let sent = t.sent in
      let last_echo_reply = t.last_echo_reply in
      let listener = t.listener in
      fun () ->
        t.chaos_hook <- chaos_hook;
        t.pending <- pending;
        Queue.clear t.rxq;
        Queue.transfer (Queue.copy rxq) t.rxq;
        Bytes.blit txbuf 0 t.txbuf 0 (Bytes.length txbuf);
        t.dns <- dns;
        t.wallclock <- wallclock;
        t.conns <- List.map (fun (c, _, _, _, _, _, _) -> c) conns;
        List.iter
          (fun (c, state, seq, ack, stream, tls, subs) ->
            c.sc_state <- state;
            c.sc_seq <- seq;
            c.sc_ack <- ack;
            c.sc_stream <- stream;
            c.sc_tls <- Option.map (fun (conn, _, _) -> conn) tls;
            (match tls with
            | Some (conn, send_ctr, recv_ctr) ->
                Tls_lite.set_counters conn ~send:send_ctr ~recv:recv_ctr
            | None -> ());
            c.sc_subs <- subs)
          conns;
        t.publishes <- publishes;
        t.pods <- pods;
        t.raws <- raws;
        t.sent <- sent;
        t.last_echo_reply <- last_echo_reply;
        t.listener <- listener);
  t
