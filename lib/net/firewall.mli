(** The firewall + driver compartment (Fig. 5).

    The only compartment holding the network adaptor's MMIO capability:
    even a fully compromised TCP/IP stack cannot reach the wire except
    through these entry points, and the on-device packet filter bounds
    which remote endpoints any traffic may involve.  The audit report
    shows the single MMIO grant (§4). *)

val firmware_compartment : unit -> Firmware.compartment
(** Declares the compartment, its MMIO import and its scheduler imports
    (it blocks on the Ethernet interrupt futex). *)

type t

val install : Kernel.t -> t
(** Register entry implementations; reads the adaptor capability from
    the compartment's own import table. *)

(* Client wrappers (compartment calls, used by the TCP/IP stack). *)

val send : Kernel.ctx -> frame_cap:Kernel.value -> len:int -> int
(** Transmit a frame (read through the caller's capability); -1 if the
    filter dropped it. *)

val recv : Kernel.ctx -> buf:Kernel.value -> timeout:int -> int
(** Copy the next permitted frame into the caller's buffer, blocking on
    the Ethernet interrupt futex up to [timeout] cycles; 0 on timeout. *)

val client_imports : Firmware.import list
(** [Firmware.client_imports] of [firmware_compartment ()]: one import per
    entry, in declaration order. *)
