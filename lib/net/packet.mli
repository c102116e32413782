(** Byte-level packet codecs for the simulated network: Ethernet II,
    ARP, IPv4 (with header checksum), ICMP, UDP, TCP, and the payload
    formats of the application protocols (DHCP-lite, DNS, SNTP,
    MQTT-lite).  Shared by the device-side stack (which marshals through
    simulated memory) and the simulated remote hosts. *)

type mac = int  (** 48-bit, kept in an int *)
type ipv4 = int  (** 32-bit *)

val mac_broadcast : mac
val ipv4_to_string : ipv4 -> string
val ipv4_of_quad : int -> int -> int -> int -> ipv4

type eth = { eth_dst : mac; eth_src : mac; eth_type : int; eth_payload : string }

val ethertype_ipv4 : int
val ethertype_arp : int

val encode_eth : eth -> string
val decode_eth : string -> eth option

type arp = {
  arp_op : [ `Request | `Reply ];
  arp_sender_mac : mac;
  arp_sender_ip : ipv4;
  arp_target_mac : mac;
  arp_target_ip : ipv4;
}

val encode_arp : arp -> string
val decode_arp : string -> arp option

type ipv4_header = {
  ip_src : ipv4;
  ip_dst : ipv4;
  ip_proto : int;
  ip_payload : string;
}

val proto_icmp : int
val proto_tcp : int
val proto_udp : int

val encode_ipv4 : ipv4_header -> string
val decode_ipv4 : string -> ipv4_header option
(** Verifies the header checksum. *)

type icmp = { icmp_type : int; icmp_code : int; icmp_body : string }

val icmp_echo_request : int
val icmp_echo_reply : int
val encode_icmp : icmp -> string
val decode_icmp : string -> icmp option

type udp = { udp_src : int; udp_dst : int; udp_payload : string }

val encode_udp : udp -> string
val decode_udp : string -> udp option

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

val encode_tcp : tcp -> string
val decode_tcp : string -> tcp option

(** A frame as the hosts see it: one constructor per case they handle. *)
type frame =
  | Arp of arp
  | Icmp of ipv4_header * icmp
  | Udp of ipv4_header * udp
  | Tcp of ipv4_header * tcp
  | Other  (** undecodable, or a protocol no host handles *)

val decode_frame : string -> frame
(** Ethernet, then ARP or IPv4 (checksum verified), then ICMP, UDP or
    TCP: the network's one frame parser.  Application payloads stay
    with their handlers. *)

(* Application payloads *)

type dhcp =
  | Discover of mac
  | Offer of { client_mac : mac; your_ip : ipv4; server_ip : ipv4 }
  | Request of { client_mac : mac; requested_ip : ipv4 }
  | Ack of { client_mac : mac; your_ip : ipv4; server_ip : ipv4 }

val dhcp_client_port : int
val dhcp_server_port : int
val encode_dhcp : dhcp -> string
val decode_dhcp : string -> dhcp option

type dns_message =
  | Dns_query of { dns_id : int; dns_name : string }
  | Dns_answer of { dns_id : int; dns_name : string; dns_ip : ipv4 option }

val dns_port : int
val encode_dns : dns_message -> string
val decode_dns : string -> dns_message option

type sntp = Sntp_request | Sntp_reply of { sntp_seconds : int }

val sntp_port : int
val encode_sntp : sntp -> string
val decode_sntp : string -> sntp option

(** MQTT-lite: one-byte packet type, two-byte big-endian remaining
    length, then type-specific fields. *)
type mqtt =
  | Connect of string  (** client id *)
  | Connack
  | Subscribe of { sub_id : int; topic : string }
  | Suback of { sub_id : int }
  | Publish of { topic : string; message : string }
  | Pingreq
  | Pingresp
  | Disconnect

val encode_mqtt : mqtt -> string
val decode_mqtt : string -> (mqtt * string) option
(** Returns the decoded packet and the remaining bytes (stream use). *)

val mqtt_needs : string -> int option
(** How many more bytes are needed to decode a packet, None = header
    incomplete. *)

val take_mqtt : string -> mqtt option * string
(** The first packet of a stream buffer and the bytes after it, or
    [None] and the buffer until it holds a whole packet.  Complete
    packets that do not decode (an unknown type, a body too short for
    its type) are dropped from the front, so one of them cannot wedge
    the stream. *)
