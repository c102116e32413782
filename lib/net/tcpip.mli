(** The TCP/IP compartment (Fig. 5): the "ported embedded network
    stack" of §5.2, wrapped for isolation and micro-reboot.

    Implements ARP, IPv4, ICMP echo, a DHCP client, UDP sockets and
    stop-and-wait TCP client connections.  It reaches the wire only via
    the firewall compartment, keeps one futex word per socket in its
    globals so callers can block without trusting the scheduler for
    integrity, allocates its frame buffers from its own static quota,
    and registers a global error handler that performs the five-step
    micro-reboot of §3.2.6 via {!Microreboot.perform}.

    The ICMP echo handler contains a deliberate, switchable "ping of
    death" bug — an unchecked copy into a 256-byte buffer — which the
    §5.3.3 case study uses to demonstrate fault containment: the
    oversized copy is a genuine CHERI bounds trap.

    Result codes over the call boundary: [0] success, [-1] timeout,
    [-2] invalid argument/socket, [-3] closed, [-4] out of memory. *)

val firmware_compartment : unit -> Firmware.compartment
val quota_object : Firmware.static_sealed
(** The stack's own allocation capability ("net_quota", 6 KiB). *)

type t

val install : Kernel.t -> t
(** Register entries, take the boot-time globals snapshot and attach the
    micro-rebooting error handler. *)

val reboot_count : t -> int

(* Client wrappers. *)

val client_imports : Firmware.import list
(** [Firmware.client_imports] of [firmware_compartment ()]: one import per
    entry, in declaration order. *)

val c_rx_step : Kernel.ctx -> timeout:int -> int
(** Pump one frame through the stack (the manager loop's body): 1 if a
    frame was processed, 0 on timeout, negative on error. *)

val c_net_start : Kernel.ctx -> int
(** DHCP + gateway ARP (blocking with retransmission). *)

val c_udp_open : Kernel.ctx -> int
val c_udp_sendto :
  Kernel.ctx -> sock:int -> ip:int -> port:int -> buf:Kernel.value -> len:int -> int
val c_udp_recv :
  Kernel.ctx -> sock:int -> buf:Kernel.value -> maxlen:int -> timeout:int -> int
val c_tcp_open : Kernel.ctx -> int
val c_tcp_connect : Kernel.ctx -> sock:int -> ip:int -> port:int -> timeout:int -> int
val c_tcp_send : Kernel.ctx -> sock:int -> buf:Kernel.value -> len:int -> int
val c_tcp_recv :
  Kernel.ctx -> sock:int -> buf:Kernel.value -> maxlen:int -> timeout:int -> int
val c_sock_close : Kernel.ctx -> sock:int -> int
val c_shutdown : Kernel.ctx -> int
