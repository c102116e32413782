(** TLS-lite: the BearSSL substitute (see DESIGN.md).

    Reproduces the *structure* of an embedded TLS stack — a two-flight
    handshake with ephemeral key agreement, then an authenticated record
    layer over a TCP stream — with toy cryptography (Diffie-Hellman over
    a 31-bit prime, a xorshift keystream, an FNV-1a MAC).  The point is
    to exercise the same compartment boundaries, state machines and CPU
    cost profile as the paper's TLS compartment, not to be secure.

    The device-side compartment charges {!default_handshake_cycles} for
    the key agreement (no crypto accelerator: the dominant cost in
    Fig. 7's App. Setup phase) and {!per_byte_cycles} per record byte. *)

type conn

val default_handshake_cycles : int
(** Default modelled cost of the modular exponentiations at 33 MHz.  The
    live value is per-netstack ([Netstack.install ?handshake_cycles]) so
    scenario profiles can use the paper-realistic figure (~10 s of 33 MHz
    crypto without an accelerator) while concurrently running unit-test
    simulations stay fast. *)

val per_byte_cycles : int
(** Modelled symmetric crypto cost per payload byte. *)

val client_hello : nonce:int -> secret:int -> string
(** First flight. *)

val server_process_hello :
  secret:int -> nonce:int -> string -> (conn * string, string) result
(** Server side: consume a ClientHello, produce the connection and the
    ServerHello flight. *)

val client_process_server_hello :
  secret:int -> nonce:int -> string -> (conn, string) result

val seal : conn -> string -> string
(** Encrypt-and-MAC one record (advances the send counter).  The wire
    format is a 2-byte length followed by ciphertext and a 4-byte tag. *)

val open_ : conn -> string -> (string, string) result
(** Verify and decrypt one complete record. *)

val take_record : string -> (string * string) option
(** The first complete record in a stream buffer and the bytes after
    it; [None] until the buffer holds a whole record. *)

(* Record-counter access for machine snapshots ({!Machine.snapshot}):
   the counters are a connection's only mutable state. *)

val send_counter : conn -> int
val recv_counter : conn -> int
val set_counters : conn -> send:int -> recv:int -> unit
