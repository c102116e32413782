(** The simulated network world: a virtual Ethernet segment with a
    DHCP server, gateway, DNS resolver, SNTP server, ping responder and
    an MQTT-over-TLS broker — the remote infrastructure the paper's IoT
    case study (§5.3.3) talks to.

    The world attaches to a {!Machine} as an MMIO network adaptor
    ("eth0", no offload features, matching the paper's FPGA setup) and a
    tick listener.  Frames the device sends are processed by the
    simulated hosts; their responses are scheduled [latency] cycles
    later and raise the Ethernet interrupt on arrival.

    Device register map (offsets into the MMIO region), and the driver
    function below that encodes each register:
    - [0x000] RX_STATUS (read): length of the pending frame, 0 if none
      ({!rx_status})
    - [0x004] RX_CONSUME (write 1): pop the pending frame ({!rx_consume})
    - [0x008] TX_LEN (write n): transmit the first n bytes of TX window
      (the last store of {!transmit})
    - [0x010..0x7ff] RX window (read; {!rx_load}, {!receive})
    - [0x800..0xfff] TX window (write; {!transmit}) *)

val device_name : string  (** "eth0" *)
val max_frame : int

(* The fixed addressing plan of the segment. *)
val device_mac : Packet.mac
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

val add_dns_record : t -> string -> Packet.ipv4 -> unit
val set_wallclock : t -> int -> unit
(** Seconds served by the SNTP server. *)

val broker_publish_at : t -> cycles:int -> topic:string -> message:string -> unit
(** Schedule an MQTT PUBLISH to every subscribed client. *)

val inject_frame_at : t -> cycles:int -> frame:string -> unit
(** Schedule an arbitrary raw frame — possibly malformed — for delivery
    to the device at the given cycle (through the chaos hook and the
    input journal, like every other delivery).  Frames due at the same
    cycle arrive in the order they were scheduled. *)

(* The malformed-frame family. *)

val pod_frame : size:int -> string
(** An ICMP echo request from the gateway carrying [size] bytes: an
    ordinary ping when small, §5.3.3's "ping of death" crash trigger when
    it overflows the stack's 256-byte echo buffer. *)

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

(* The device-side driver.  Each function takes the machine and the
   caller's eth0 MMIO capability and makes its accesses through
   {!Machine.load}/{!Machine.store}, so they are checked, traced and
   charged like any compartment's. *)

val rx_status : Machine.t -> Capability.t -> int
(** RX_STATUS: the pending frame's length, 0 if none. *)

val rx_load : Machine.t -> Capability.t -> off:int -> size:int -> int
(** A [size]-byte little-endian load at [off] into the RX window. *)

val rx_consume : Machine.t -> Capability.t -> unit
(** RX_CONSUME: pop the pending frame. *)

val transmit : Machine.t -> Capability.t -> string -> unit
(** Copy a frame into the TX window a byte at a time, then write TX_LEN. *)

val receive : Machine.t -> Capability.t -> string option
(** The pending frame, read a byte at a time and then consumed; [None]
    (after the one RX_STATUS load) when there is none. *)

val frames_sent : t -> int

val last_icmp_echo_reply : t -> string option
(** Payload of the most recent echo reply the *device* sent (lets tests
    assert the stack answers pings). *)
