module Cap = Capability
module P = Packet

let device_name = "eth0"
let mmio_base = 0x1100_0000
let mmio_size = 4096

(* The eth0 register map (netsim.mli). *)
let rx_status_reg = 0x000
let rx_consume_reg = 0x004
let tx_len_reg = 0x008
let rx_window = 0x010
let tx_window = 0x800
let max_frame = 2032

(* The device-side driver: every register access of every compartment
   that holds the eth0 capability.  The adaptor has no DMA, so the
   windows are copied through the bus a byte at a time. *)

let load_reg machine mmio off ~size =
  Machine.load machine ~auth:mmio ~addr:(Cap.base mmio + off) ~size

let store_reg machine mmio off ~size v =
  Machine.store machine ~auth:mmio ~addr:(Cap.base mmio + off) ~size v

let rx_status machine mmio = load_reg machine mmio rx_status_reg ~size:4
let rx_load machine mmio ~off ~size = load_reg machine mmio (rx_window + off) ~size
let rx_consume machine mmio = store_reg machine mmio rx_consume_reg ~size:4 1

let transmit machine mmio frame =
  String.iteri
    (fun i c -> store_reg machine mmio (tx_window + i) ~size:1 (Char.code c))
    frame;
  store_reg machine mmio tx_len_reg ~size:4 (String.length frame)

let receive machine mmio =
  let len = rx_status machine mmio in
  if len = 0 then None
  else begin
    let frame =
      String.init len (fun i -> Char.chr (rx_load machine mmio ~off:i ~size:1))
    in
    rx_consume machine mmio;
    Some frame
  end

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
  sc_state : [ `Synrcvd | `Estab | `Closed ];
  sc_seq : int;
  sc_ack : int;
  sc_stream : string;
  sc_tls : Tls_lite.conn option;
  sc_subs : string list;
}

type chaos = Pass | Drop | Duplicate | Corrupt of int * int | Delay of int

type t = {
  machine : Machine.t;
  latency : int;
  sntp_latency : int;
  txbuf : Bytes.t;  (** written in place, one MMIO byte at a time *)
  mutable st : state;
}

(* The world's cold state, one immutable record. *)
and state = {
  chaos_hook : (string -> chaos) option;
  pending : (int * string) list;  (** due cycle, frame to device *)
  rxq : string list;  (** frames the device has not consumed, oldest first *)
  dns : (string * P.ipv4) list;
  wallclock : int;
  conns : srv_conn list;
  publishes : (int * string * string) list;
  raws : (int * string) list;
  sent : int;
  last_echo_reply : string option;
  listener : Machine.listener_handle option;
}

let frames_sent t = t.st.sent
let last_icmp_echo_reply t = t.st.last_echo_reply
let add_dns_record t name ip = t.st <- { t.st with dns = (name, ip) :: t.st.dns }
let set_wallclock t s = t.st <- { t.st with wallclock = s }

(* The world is event-driven: the tick listener is parked until the
   earliest due cycle across the three timed queues (frames in flight,
   broker publishes, injected raw frames). *)
let update_wakeup t =
  match t.st.listener with
  | None -> ()
  | Some h ->
      let at = List.fold_left (fun a (c, _) -> min a c) max_int t.st.pending in
      let at = List.fold_left (fun a (c, _, _) -> min a c) at t.st.publishes in
      let at = List.fold_left (fun a (c, _) -> min a c) at t.st.raws in
      Machine.set_listener_wakeup t.machine h ~at

let broker_publish_at t ~cycles ~topic ~message =
  t.st <- { t.st with publishes = t.st.publishes @ [ (cycles, topic, message) ] };
  update_wakeup t

let inject_frame_at t ~cycles ~frame =
  t.st <- { t.st with raws = t.st.raws @ [ (cycles, frame) ] };
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

let set_chaos_hook t h = t.st <- { t.st with chaos_hook = h }

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
    t.st <- { t.st with pending = t.st.pending @ [ (Machine.cycles t.machine + d, f) ] };
    update_wakeup t
  in
  match t.st.chaos_hook with
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

(* Server-side TCP.  A connection is an immutable value: each step
   returns the updated connection, and [set_conn] swaps it into the
   list in place of the one it was computed from. *)

let conn_for t port =
  List.find_opt (fun c -> c.sc_port = port && c.sc_state <> `Closed) t.st.conns

let set_conn t old c =
  t.st <- { t.st with conns = List.map (fun x -> if x == old then c else x) t.st.conns }

(* Send a segment on [conn]; returns [conn] with its sequence advanced. *)
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
  ip_to_device t ~src_ip:broker_ip ~proto:P.proto_tcp seg;
  let sc_seq =
    (conn.sc_seq + String.length payload + (if syn then 1 else 0) + if fin then 1 else 0)
    land 0xffffffff
  in
  { conn with sc_seq }

let send_record t conn plain =
  match conn.sc_tls with
  | Some tls -> tcp_to_device t conn (Tls_lite.seal tls plain)
  | None -> conn

(* Consume the accumulated client stream: TLS handshake then records,
   each record carrying one MQTT-lite packet. *)
let rec process_stream t conn =
  match conn.sc_tls with
  | None ->
      if String.length conn.sc_stream >= 9 then begin
        let hello = String.sub conn.sc_stream 0 9 in
        let conn =
          { conn with sc_stream = String.sub conn.sc_stream 9 (String.length conn.sc_stream - 9) }
        in
        match
          Tls_lite.server_process_hello ~secret:server_tls_secret
            ~nonce:server_tls_nonce hello
        with
        | Ok (tls, server_hello) ->
            process_stream t (tcp_to_device t { conn with sc_tls = Some tls } server_hello)
        | Error _ -> { conn with sc_state = `Closed }
      end
      else conn
  | Some tls -> (
      match Tls_lite.take_record conn.sc_stream with
      | None -> conn
      | Some (record, rest) -> (
          let conn = { conn with sc_stream = rest } in
          match Tls_lite.open_ tls record with
          | Error _ -> { conn with sc_state = `Closed }
          | Ok plain ->
              let reply c m = send_record t c (P.encode_mqtt m) in
              process_stream t
                (match P.decode_mqtt plain with
                | Some (P.Connect _, _) -> reply conn P.Connack
                | Some (P.Subscribe { sub_id; topic }, _) ->
                    reply { conn with sc_subs = topic :: conn.sc_subs } (P.Suback { sub_id })
                | Some (P.Pingreq, _) -> reply conn P.Pingresp
                | Some (P.Disconnect, _) -> { conn with sc_state = `Closed }
                | Some ((P.Publish _ | P.Connack | P.Suback _ | P.Pingresp), _) | None -> conn)))

(* The connection after segment [seg] arrives on it. *)
let tcp_segment t conn seg =
  let conn =
    if conn.sc_state = `Synrcvd && seg.P.tcp_ack_flag then { conn with sc_state = `Estab }
    else conn
  in
  if seg.P.tcp_rst then { conn with sc_state = `Closed }
  else begin
    let payload = seg.P.tcp_payload in
    let conn =
      if String.length payload = 0 then conn
      else if seg.P.tcp_seq = conn.sc_ack then
        let sc_ack = (conn.sc_ack + String.length payload) land 0xffffffff in
        let conn = { conn with sc_ack; sc_stream = conn.sc_stream ^ payload } in
        process_stream t (tcp_to_device t conn "")
      else (* duplicate or out of order: re-ACK *)
        tcp_to_device t conn ""
    in
    if seg.P.tcp_fin then
      let conn = { conn with sc_ack = (conn.sc_ack + 1) land 0xffffffff } in
      { (tcp_to_device t conn ~fin:true "") with sc_state = `Closed }
    else conn
  end

let handle_tcp t seg =
  if seg.P.tcp_dst = broker_port then begin
    if seg.P.tcp_syn && not seg.P.tcp_ack_flag then begin
      (* New connection (or retransmitted SYN). *)
      (match conn_for t seg.P.tcp_src with
      | Some c -> set_conn t c { c with sc_state = `Closed }
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
      let conn = tcp_to_device t conn ~syn:true "" in
      t.st <- { t.st with conns = conn :: t.st.conns }
    end
    else
      match conn_for t seg.P.tcp_src with
      | None -> ()
      | Some old ->
          let conn = tcp_segment t old seg in
          set_conn t old conn
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
                { dns_id; dns_name; dns_ip = List.assoc_opt dns_name t.st.dns }))
    | Some (P.Dns_answer _) | None -> ()
  end
  else if u.P.udp_dst = P.sntp_port && ip.P.ip_dst = ntp_ip then begin
    match P.decode_sntp u.P.udp_payload with
    | Some P.Sntp_request ->
        udp_to_device ~delay:t.sntp_latency t ~src_ip:ntp_ip ~src_port:P.sntp_port
          ~dst_port:u.P.udp_src
          (P.encode_sntp (P.Sntp_reply { sntp_seconds = t.st.wallclock }))
    | Some (P.Sntp_reply _) | None -> ()
  end

(* A frame transmitted by the device. *)
let handle_frame t raw =
  t.st <- { t.st with sent = t.st.sent + 1 };
  match P.decode_frame raw with
  | P.Arp a when a.P.arp_op = `Request ->
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
  | P.Udp (ip, u) -> handle_udp t ip u
  | P.Tcp (_, seg) -> handle_tcp t seg
  | P.Icmp (_, i) when i.P.icmp_type = P.icmp_echo_reply ->
      t.st <- { t.st with last_echo_reply = Some i.P.icmp_body }
  | P.Arp _ | P.Icmp _ | P.Other -> ()

(* Timed events *)

let fire_due t now =
  let due, pending = List.partition (fun (c, _) -> c <= now) t.st.pending in
  t.st <- { t.st with pending };
  List.iter
    (fun (_, frame) ->
      t.st <- { t.st with rxq = t.st.rxq @ [ frame ] };
      Machine.raise_irq t.machine Machine.ethernet_irq)
    due;
  let due_pubs, publishes = List.partition (fun (c, _, _) -> c <= now) t.st.publishes in
  t.st <- { t.st with publishes };
  List.iter
    (fun (_, topic, message) ->
      let conns =
        List.map
          (fun conn ->
            if conn.sc_state = `Estab && List.mem topic conn.sc_subs then
              send_record t conn (P.encode_mqtt (P.Publish { topic; message }))
            else conn)
          t.st.conns
      in
      t.st <- { t.st with conns })
    due_pubs;
  let due_raws, raws = List.partition (fun (c, _) -> c <= now) t.st.raws in
  t.st <- { t.st with raws };
  List.iter (fun (_, frame) -> to_device ~delay:0 t frame) due_raws;
  update_wakeup t

let attach ?(latency = 33_000) ?(sntp_latency = 33_000) machine =
  let t =
    {
      machine;
      latency;
      sntp_latency;
      txbuf = Bytes.make 2048 '\000';
      st =
        {
          chaos_hook = None;
          pending = [];
          rxq = [];
          dns = [];
          wallclock = 1_700_000_000;
          conns = [];
          publishes = [];
          raws = [];
          sent = 0;
          last_echo_reply = None;
          listener = None;
        };
    }
  in
  let read ~addr ~size =
    match t.st.rxq with
    | [] -> 0
    | f :: _ ->
        if addr = rx_status_reg then String.length f
        else if addr >= rx_window && addr + size <= tx_window then begin
          let off = addr - rx_window in
          let byte i = if off + i < String.length f then Char.code f.[off + i] else 0 in
          let rec go acc i = if i < 0 then acc else go ((acc lsl 8) lor byte i) (i - 1) in
          go 0 (size - 1)
        end
        else 0
  in
  let write ~addr ~size v =
    if addr = rx_consume_reg then
      (match t.st.rxq with [] -> () | _ :: rxq -> t.st <- { t.st with rxq })
    else if addr = tx_len_reg then begin
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
  let listener = Machine.add_tick_listener ~period:0 machine (fun now -> fire_due t now) in
  t.st <- { t.st with listener = Some listener };
  update_wakeup t;
  (* The MMIO device reads through [t], and the world's state is [st]
     plus two in-place parts: the TX window, copied both ways, and each
     connection's TLS record counters, which [Tls_lite.seal] and [open_]
     advance in place. *)
  Machine.on_snapshot machine (fun () ->
      let s = t.st and txbuf = Bytes.copy t.txbuf in
      let ctrs =
        List.filter_map
          (fun c ->
            Option.map
              (fun tls -> (tls, Tls_lite.send_counter tls, Tls_lite.recv_counter tls))
              c.sc_tls)
          s.conns
      in
      fun () ->
        t.st <- s;
        Bytes.blit txbuf 0 t.txbuf 0 (Bytes.length txbuf);
        List.iter (fun (tls, send, recv) -> Tls_lite.set_counters tls ~send ~recv) ctrs);
  t
