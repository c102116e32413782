type mac = int
type ipv4 = int

let mac_broadcast = 0xffffffffffff

let ipv4_to_string ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)

let ipv4_of_quad a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

(* Big-endian byte buffer helpers *)

let buf () = Buffer.create 64
let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let u16 b v =
  u8 b (v lsr 8);
  u8 b v

let u32 b v =
  u16 b (v lsr 16);
  u16 b (v land 0xffff)

let u48 b v =
  u16 b (v lsr 32);
  u32 b (v land 0xffffffff)

let get8 s i = Char.code s.[i]
let get16 s i = (get8 s i lsl 8) lor get8 s (i + 1)
let get32 s i = (get16 s i lsl 16) lor get16 s (i + 2)
let get48 s i = (get16 s i lsl 32) lor get32 s (i + 2)

let guard cond = if cond then Some () else None
let ( let* ) = Option.bind

(* Ethernet *)

type eth = { eth_dst : mac; eth_src : mac; eth_type : int; eth_payload : string }

let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806

let encode_eth e =
  let b = buf () in
  u48 b e.eth_dst;
  u48 b e.eth_src;
  u16 b e.eth_type;
  Buffer.add_string b e.eth_payload;
  Buffer.contents b

let decode_eth s =
  let* () = guard (String.length s >= 14) in
  Some
    {
      eth_dst = get48 s 0;
      eth_src = get48 s 6;
      eth_type = get16 s 12;
      eth_payload = String.sub s 14 (String.length s - 14);
    }

(* ARP (IPv4-over-Ethernet flavour only) *)

type arp = {
  arp_op : [ `Request | `Reply ];
  arp_sender_mac : mac;
  arp_sender_ip : ipv4;
  arp_target_mac : mac;
  arp_target_ip : ipv4;
}

let encode_arp a =
  let b = buf () in
  u16 b 1;
  u16 b ethertype_ipv4;
  u8 b 6;
  u8 b 4;
  u16 b (match a.arp_op with `Request -> 1 | `Reply -> 2);
  u48 b a.arp_sender_mac;
  u32 b a.arp_sender_ip;
  u48 b a.arp_target_mac;
  u32 b a.arp_target_ip;
  Buffer.contents b

let decode_arp s =
  let* () = guard (String.length s >= 28) in
  let* op = match get16 s 6 with 1 -> Some `Request | 2 -> Some `Reply | _ -> None in
  Some
    {
      arp_op = op;
      arp_sender_mac = get48 s 8;
      arp_sender_ip = get32 s 14;
      arp_target_mac = get48 s 18;
      arp_target_ip = get32 s 24;
    }

(* IPv4 *)

type ipv4_header = {
  ip_src : ipv4;
  ip_dst : ipv4;
  ip_proto : int;
  ip_payload : string;
}

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let checksum16 s =
  let n = String.length s in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + get16 s !i;
    i := !i + 2
  done;
  if !i < n then sum := !sum + (get8 s !i lsl 8);
  while !sum > 0xffff do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let encode_ipv4 h =
  let hdr = buf () in
  u8 hdr 0x45;
  u8 hdr 0;
  u16 hdr (20 + String.length h.ip_payload);
  u16 hdr 0;
  u16 hdr 0;
  u8 hdr 64;
  u8 hdr h.ip_proto;
  u16 hdr 0 (* checksum placeholder *);
  u32 hdr h.ip_src;
  u32 hdr h.ip_dst;
  let base = Buffer.contents hdr in
  let csum = checksum16 base in
  let fixed = Bytes.of_string base in
  Bytes.set fixed 10 (Char.chr (csum lsr 8));
  Bytes.set fixed 11 (Char.chr (csum land 0xff));
  Bytes.to_string fixed ^ h.ip_payload

let decode_ipv4 s =
  let* () = guard (String.length s >= 20) in
  let ihl = get8 s 0 land 0xf in
  let hlen = 4 * ihl in
  let* () = guard (get8 s 0 lsr 4 = 4 && String.length s >= hlen) in
  let* () = guard (checksum16 (String.sub s 0 hlen) = 0) in
  let total = min (get16 s 2) (String.length s) in
  Some
    {
      ip_src = get32 s 12;
      ip_dst = get32 s 16;
      ip_proto = get8 s 9;
      ip_payload = String.sub s hlen (total - hlen);
    }

(* ICMP *)

type icmp = { icmp_type : int; icmp_code : int; icmp_body : string }

let icmp_echo_request = 8
let icmp_echo_reply = 0

let encode_icmp i =
  let b = buf () in
  u8 b i.icmp_type;
  u8 b i.icmp_code;
  u16 b 0;
  Buffer.add_string b i.icmp_body;
  let base = Buffer.contents b in
  let csum = checksum16 base in
  let fixed = Bytes.of_string base in
  Bytes.set fixed 2 (Char.chr (csum lsr 8));
  Bytes.set fixed 3 (Char.chr (csum land 0xff));
  Bytes.to_string fixed

let decode_icmp s =
  let* () = guard (String.length s >= 4) in
  Some
    {
      icmp_type = get8 s 0;
      icmp_code = get8 s 1;
      icmp_body = String.sub s 4 (String.length s - 4);
    }

(* UDP (checksum optional: 0) *)

type udp = { udp_src : int; udp_dst : int; udp_payload : string }

let encode_udp u =
  let b = buf () in
  u16 b u.udp_src;
  u16 b u.udp_dst;
  u16 b (8 + String.length u.udp_payload);
  u16 b 0;
  Buffer.add_string b u.udp_payload;
  Buffer.contents b

let decode_udp s =
  let* () = guard (String.length s >= 8) in
  let len = get16 s 4 in
  let* () = guard (len >= 8 && len <= String.length s) in
  Some { udp_src = get16 s 0; udp_dst = get16 s 2; udp_payload = String.sub s 8 (len - 8) }

(* TCP *)

type tcp = {
  tcp_src : int;
  tcp_dst : int;
  tcp_seq : int;
  tcp_ack : int;
  tcp_syn : bool;
  tcp_ack_flag : bool;
  tcp_fin : bool;
  tcp_rst : bool;
  tcp_payload : string;
}

let encode_tcp t =
  let b = buf () in
  u16 b t.tcp_src;
  u16 b t.tcp_dst;
  u32 b t.tcp_seq;
  u32 b t.tcp_ack;
  let flags =
    (if t.tcp_fin then 1 else 0)
    lor (if t.tcp_syn then 2 else 0)
    lor (if t.tcp_rst then 4 else 0)
    lor if t.tcp_ack_flag then 16 else 0
  in
  u8 b 0x50;
  u8 b flags;
  u16 b 0xffff (* window *);
  u16 b 0 (* checksum: offloaded in the simulation *);
  u16 b 0;
  Buffer.add_string b t.tcp_payload;
  Buffer.contents b

let decode_tcp s =
  let* () = guard (String.length s >= 20) in
  let data_off = 4 * (get8 s 12 lsr 4) in
  let* () = guard (String.length s >= data_off) in
  let flags = get8 s 13 in
  Some
    {
      tcp_src = get16 s 0;
      tcp_dst = get16 s 2;
      tcp_seq = get32 s 4;
      tcp_ack = get32 s 8;
      tcp_fin = flags land 1 <> 0;
      tcp_syn = flags land 2 <> 0;
      tcp_rst = flags land 4 <> 0;
      tcp_ack_flag = flags land 16 <> 0;
      tcp_payload = String.sub s data_off (String.length s - data_off);
    }

(* DHCP-lite: magic byte, op byte, fields. *)

type dhcp =
  | Discover of mac
  | Offer of { client_mac : mac; your_ip : ipv4; server_ip : ipv4 }
  | Request of { client_mac : mac; requested_ip : ipv4 }
  | Ack of { client_mac : mac; your_ip : ipv4; server_ip : ipv4 }

let dhcp_client_port = 68
let dhcp_server_port = 67

let encode_dhcp d =
  let b = buf () in
  u8 b 0xd6;
  (match d with
  | Discover m ->
      u8 b 1;
      u48 b m
  | Offer { client_mac; your_ip; server_ip } ->
      u8 b 2;
      u48 b client_mac;
      u32 b your_ip;
      u32 b server_ip
  | Request { client_mac; requested_ip } ->
      u8 b 3;
      u48 b client_mac;
      u32 b requested_ip
  | Ack { client_mac; your_ip; server_ip } ->
      u8 b 4;
      u48 b client_mac;
      u32 b your_ip;
      u32 b server_ip);
  Buffer.contents b

let decode_dhcp s =
  let* () = guard (String.length s >= 2 && get8 s 0 = 0xd6) in
  match get8 s 1 with
  | 1 when String.length s >= 8 -> Some (Discover (get48 s 2))
  | 2 when String.length s >= 16 ->
      Some (Offer { client_mac = get48 s 2; your_ip = get32 s 8; server_ip = get32 s 12 })
  | 3 when String.length s >= 12 ->
      Some (Request { client_mac = get48 s 2; requested_ip = get32 s 8 })
  | 4 when String.length s >= 16 ->
      Some (Ack { client_mac = get48 s 2; your_ip = get32 s 8; server_ip = get32 s 12 })
  | _ -> None

(* DNS-lite: id, op, name (len-prefixed), optional answer ip. *)

type dns_message =
  | Dns_query of { dns_id : int; dns_name : string }
  | Dns_answer of { dns_id : int; dns_name : string; dns_ip : ipv4 option }

let dns_port = 53

let encode_dns = function
  | Dns_query { dns_id; dns_name } ->
      let b = buf () in
      u16 b dns_id;
      u8 b 0;
      u8 b (String.length dns_name);
      Buffer.add_string b dns_name;
      Buffer.contents b
  | Dns_answer { dns_id; dns_name; dns_ip } ->
      let b = buf () in
      u16 b dns_id;
      u8 b 1;
      u8 b (String.length dns_name);
      Buffer.add_string b dns_name;
      (match dns_ip with
      | Some ip ->
          u8 b 1;
          u32 b ip
      | None -> u8 b 0);
      Buffer.contents b

let decode_dns s =
  let* () = guard (String.length s >= 4) in
  let dns_id = get16 s 0 in
  let op = get8 s 2 in
  let nlen = get8 s 3 in
  let* () = guard (String.length s >= 4 + nlen) in
  let dns_name = String.sub s 4 nlen in
  match op with
  | 0 -> Some (Dns_query { dns_id; dns_name })
  | 1 ->
      let rest = 4 + nlen in
      let* () = guard (String.length s >= rest + 1) in
      if get8 s rest = 1 then
        let* () = guard (String.length s >= rest + 5) in
        Some (Dns_answer { dns_id; dns_name; dns_ip = Some (get32 s (rest + 1)) })
      else Some (Dns_answer { dns_id; dns_name; dns_ip = None })
  | _ -> None

(* SNTP-lite *)

type sntp = Sntp_request | Sntp_reply of { sntp_seconds : int }

let sntp_port = 123

let encode_sntp = function
  | Sntp_request -> "\x1b"
  | Sntp_reply { sntp_seconds } ->
      let b = buf () in
      u8 b 0x1c;
      u32 b sntp_seconds;
      Buffer.contents b

let decode_sntp s =
  let* () = guard (String.length s >= 1) in
  match get8 s 0 with
  | 0x1b -> Some Sntp_request
  | 0x1c when String.length s >= 5 -> Some (Sntp_reply { sntp_seconds = get32 s 1 })
  | _ -> None

(* MQTT-lite: type byte, u16 remaining length, fields. *)

type mqtt =
  | Connect of string
  | Connack
  | Subscribe of { sub_id : int; topic : string }
  | Suback of { sub_id : int }
  | Publish of { topic : string; message : string }
  | Pingreq
  | Pingresp
  | Disconnect

let mqtt_type = function
  | Connect _ -> 1
  | Connack -> 2
  | Subscribe _ -> 8
  | Suback _ -> 9
  | Publish _ -> 3
  | Pingreq -> 12
  | Pingresp -> 13
  | Disconnect -> 14

let encode_mqtt m =
  let body = buf () in
  (match m with
  | Connect id ->
      u8 body (String.length id);
      Buffer.add_string body id
  | Connack | Pingreq | Pingresp | Disconnect -> ()
  | Subscribe { sub_id; topic } ->
      u16 body sub_id;
      u8 body (String.length topic);
      Buffer.add_string body topic
  | Suback { sub_id } -> u16 body sub_id
  | Publish { topic; message } ->
      u8 body (String.length topic);
      Buffer.add_string body topic;
      Buffer.add_string body message);
  let body = Buffer.contents body in
  let b = buf () in
  u8 b (mqtt_type m);
  u16 b (String.length body);
  Buffer.add_string b body;
  Buffer.contents b

let mqtt_needs s =
  if String.length s < 3 then None
  else
    let rem = get16 s 1 in
    Some (max 0 (3 + rem - String.length s))

let decode_mqtt s =
  let* () = guard (String.length s >= 3) in
  let rem = get16 s 1 in
  let* () = guard (String.length s >= 3 + rem) in
  let body = String.sub s 3 rem in
  let rest = String.sub s (3 + rem) (String.length s - 3 - rem) in
  let* m =
    match get8 s 0 with
    | 1 ->
        let* () = guard (String.length body >= 1) in
        let n = get8 body 0 in
        let* () = guard (String.length body >= 1 + n) in
        Some (Connect (String.sub body 1 n))
    | 2 -> Some Connack
    | 8 ->
        let* () = guard (String.length body >= 3) in
        let n = get8 body 2 in
        let* () = guard (String.length body >= 3 + n) in
        Some (Subscribe { sub_id = get16 body 0; topic = String.sub body 3 n })
    | 9 ->
        let* () = guard (String.length body >= 2) in
        Some (Suback { sub_id = get16 body 0 })
    | 3 ->
        let* () = guard (String.length body >= 1) in
        let n = get8 body 0 in
        let* () = guard (String.length body >= 1 + n) in
        Some
          (Publish
             {
               topic = String.sub body 1 n;
               message = String.sub body (1 + n) (String.length body - 1 - n);
             })
    | 12 -> Some Pingreq
    | 13 -> Some Pingresp
    | 14 -> Some Disconnect
    | _ -> None
  in
  Some (m, rest)
