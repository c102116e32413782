(** The simulated network world: a virtual Ethernet segment with a
    DHCP server, gateway, DNS resolver, SNTP server, ping responder and
    an MQTT-over-TLS broker — the remote infrastructure the paper's IoT
    case study (§5.3.3) talks to.

    The world attaches to a {!Machine} as an MMIO network adaptor
    ("eth0", no offload features, matching the paper's FPGA setup) and a
    tick listener.  Frames the device sends are processed by the
    simulated hosts; their responses are scheduled [latency] cycles
    later and raise the Ethernet interrupt on arrival.

    Device register map (offsets into the MMIO region):
    - [0x000] RX_STATUS (read): length of the pending frame, 0 if none
    - [0x004] RX_CONSUME (write 1): pop the pending frame
    - [0x008] TX_LEN (write n): transmit the first n bytes of TX window
    - [0x010..0x7ff] RX window (read)
    - [0x800..0xfff] TX window (write) *)

val device_name : string  (** "eth0" *)
val mmio_size : int
val max_frame : int

(* The fixed addressing plan of the segment. *)
val device_mac : Packet.mac
val gateway_mac : Packet.mac
val gateway_ip : Packet.ipv4
val device_ip : Packet.ipv4  (** what DHCP hands out *)
val dns_ip : Packet.ipv4
val ntp_ip : Packet.ipv4
val broker_ip : Packet.ipv4
val broker_port : int

type chaos = Pass | Drop | Duplicate | Corrupt of int * int | Delay of int
(** Per-frame fault decision for traffic heading to the device.
    [Corrupt (off, mask)] xors [mask] into the byte at [off] (mod frame
    length); [Delay extra] adds [extra] cycles of latency — delaying one
    frame past its successors is how reordering is injected. *)

type t

val attach : ?latency:int -> ?sntp_latency:int -> Machine.t -> t
(** Create the world and register the device (its MMIO window at
    0x11000000).  [latency] (cycles) is
    the one-way propagation + server turnaround (default ~1 ms at
    33 MHz); [sntp_latency] lets the NTP phase of Fig. 7 be slow.

    The world registers a parked tick listener whose wakeup tracks the
    earliest due cycle across its timed queues, so a quiescent network
    costs nothing per simulated cycle. *)

val detach : t -> unit
(** Deregister the tick listener (the MMIO device stays mapped).  Lets a
    harness that reuses one machine across scenarios drop the world
    without leaking listeners. *)

val add_dns_record : t -> string -> Packet.ipv4 -> unit
val set_wallclock : t -> int -> unit
(** Seconds served by the SNTP server. *)

val broker_publish_at : t -> cycles:int -> topic:string -> message:string -> unit
(** Schedule an MQTT PUBLISH to every subscribed client. *)

val ping_of_death_at : t -> cycles:int -> size:int -> unit
(** Schedule a malformed oversized ICMP echo request (§5.3.3's crash
    trigger). *)

val inject_frame_at : t -> cycles:int -> frame:string -> unit
(** Schedule an arbitrary raw frame — possibly malformed — for delivery
    to the device at the given cycle (through the chaos hook and the
    input journal, like every other delivery).  The generalization of
    {!ping_of_death_at} the attack campaigns (lib/attack) drive. *)

(* The malformed-frame family (the ping of death generalized). *)

val pod_frame : size:int -> string
(** The raw ping-of-death frame: an ICMP echo request with a [size]-byte
    body (the §5.3.3 trigger, byte-identical to what
    {!ping_of_death_at} delivers). *)

val ethertype_tlv : int
(** Local-experimental ethertype (0x88B5) carried by {!tlv_frame}. *)

val tlv_claim_off : int
(** Frame offset of the 4-byte little-endian claimed payload length. *)

val tlv_data_off : int
(** Frame offset of the payload data. *)

val tlv_frame : claim:int -> data:string -> string
(** A length-prefixed frame whose header *claims* [claim] payload bytes
    regardless of how many are actually present — well-formed when
    [claim = String.length data], an overflow exploit against any parser
    that trusts the claim when [claim] exceeds the receive buffer. *)

val set_chaos_hook : t -> (string -> chaos) option -> unit
(** Consulted once per frame queued for delivery to the device (the
    fault-injection engine's packet drop/corrupt/duplicate/reorder
    point).  Frames the device transmits are unaffected. *)

val frames_sent : t -> int
val frames_received : t -> int

val last_icmp_echo_reply : t -> string option
(** Payload of the most recent echo reply the *device* sent (lets tests
    assert the stack answers pings). *)
