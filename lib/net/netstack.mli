(** The upper network compartments of Fig. 5 and the bundle that wires
    the whole stack into a firmware image.

    Each protocol layer is its own compartment with its own imports, so
    the audit report (§4) shows exactly who can reach what: the
    application talks to [mqtt], which talks to [tls], which talks to
    [netapi], which talks to [tcpip], which talks only to the
    [firewall].  Opaque handles (§3.2.1) flow back up this chain, and
    each layer's per-connection state is allocated with the *caller's*
    allocation capability (quota delegation, §3.2.3). *)

(** The hardened socket wrapper: opaque socket handles over the TCP/IP
    stack, plus the network manager loop that pumps the stack's receive
    path and rides out its micro-reboots. *)
module Netapi : sig
  type t

  val client_imports : Firmware.import list
  (** [Firmware.client_imports] of the compartment's firmware
      declaration. *)
end

(** DNS resolver compartment (its own UDP socket and buffer quota);
    retryable across TCP/IP micro-reboots. *)
module Dns : sig
  type t
end

(** SNTP client compartment: [sync] obtains wall-clock seconds, [now]
    derives the current time from the cycle counter. *)
module Sntp : sig
  type t
end

(** The TLS compartment (BearSSL's role): opaque session handles over
    NetAPI sockets; charges the modelled handshake cost (default
    {!Tls_lite.default_handshake_cycles}, overridable per stack). *)
module Tls : sig
  type t

  val client_imports : Firmware.import list
  (** [Firmware.client_imports] of the compartment's firmware
      declaration. *)
end

(** MQTT-lite client compartment over TLS. *)
module Mqtt : sig
  type t

  val client_imports : Firmware.import list
  (** [Firmware.client_imports] of the compartment's firmware
      declaration. *)
end

type t = {
  firewall : Firewall.t;
  tcpip : Tcpip.t;
  netapi : Netapi.t;
  dns : Dns.t;
  sntp : Sntp.t;
  tls : Tls.t;
  mqtt : Mqtt.t;
}

val compartments : unit -> Firmware.compartment list
(** firewall, tcpip, netapi, dns, sntp, tls, mqtt. *)

val sealed_objects : Firmware.static_sealed list
(** The stack compartments' own allocation capabilities. *)

val manager_thread : Firmware.thread
(** The "net_rx" thread running [netapi.rx_loop]. *)

val install : ?handshake_cycles:int -> Kernel.t -> t
(** Install every stack compartment on the kernel.  [handshake_cycles]
    overrides the TLS key-agreement cost for this stack only (scenario
    profiles); other kernels' stacks are unaffected. *)
