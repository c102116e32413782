(* The firewall + driver compartment (Fig. 5): the only compartment
   holding the network adaptor's MMIO capability.  It moves frames
   between the device windows and caller buffers and enforces a simple
   on-device packet filter, so a compromised TCP/IP stack still cannot
   talk to arbitrary endpoints. *)

module Cap = Capability
module P = Packet

let comp_name = "firewall"

let firmware_compartment () =
  Firmware.compartment comp_name ~code_loc:290 ~globals_size:32 ~error_handler:false
    ~entries:
      [
        Firmware.entry "send" ~arity:2 ~min_stack:256;
        Firmware.entry "recv" ~arity:3 ~min_stack:256;
        Firmware.entry "allow_port" ~arity:1 ~min_stack:64;
        Firmware.entry "block_port" ~arity:1 ~min_stack:64;
        Firmware.entry "stats" ~arity:0 ~min_stack:64;
      ]
    ~imports:([ Firmware.Mmio { device = Netsim.device_name } ] @ Scheduler.client_imports)

type t = { machine : Machine.t; mmio : Cap.t; mutable st : state }
and state = { allowed_ports : int list; dropped : int; tx : int; rx : int }

let default_ports =
  [ P.dhcp_server_port; P.dhcp_client_port; P.dns_port; P.sntp_port; Netsim.broker_port ]

(* Remote port of a frame (destination for outbound, source for
   inbound); None = not a well-formed UDP/TCP frame (ARP, ICMP and
   anything undecodable pass). *)
let remote_port ~outbound raw =
  match P.decode_frame raw with
  | P.Udp (_, u) -> Some (if outbound then u.P.udp_dst else u.P.udp_src)
  | P.Tcp (_, s) -> Some (if outbound then s.P.tcp_dst else s.P.tcp_src)
  | P.Arp _ | P.Icmp _ | P.Other -> None

let permitted t ~outbound raw =
  match remote_port ~outbound raw with
  | None -> true
  | Some port -> List.mem port t.st.allowed_ports

let do_send t frame =
  if not (permitted t ~outbound:true frame) then begin
    t.st <- { t.st with dropped = t.st.dropped + 1 };
    -1
  end
  else begin
    Netsim.transmit t.machine t.mmio frame;
    t.st <- { t.st with tx = t.st.tx + 1 };
    String.length frame
  end

(* Read the pending frame if any; None when the RX queue is empty. *)
let try_rx t =
  match Netsim.receive t.machine t.mmio with
  | None -> None
  | Some frame ->
      t.st <- { t.st with rx = t.st.rx + 1 };
      if permitted t ~outbound:false frame then Some frame
      else begin
        t.st <- { t.st with dropped = t.st.dropped + 1 };
        None
      end

let do_recv t ctx buf timeout =
  let deadline =
    if timeout > 0 then Some (Machine.cycles t.machine + timeout) else None
  in
  let eth_futex = Scheduler.interrupt_futex ctx ~irq:Machine.ethernet_irq in
  (* Copy a frame into the caller's buffer, truncated to its room. *)
  let deliver frame =
    let room = Cap.top buf - Cap.address buf in
    let frame = if String.length frame > room then String.sub frame 0 room else frame in
    Membuf.of_string t.machine ~auth:buf frame;
    String.length frame
  in
  let rec loop () =
    match try_rx t with
    | Some frame -> deliver frame
    | None -> (
        let v = Machine.load t.machine ~auth:eth_futex ~addr:(Cap.address eth_futex) ~size:4 in
        (* Re-check after reading the futex word to close the race. *)
        match try_rx t with
        | Some frame -> deliver frame
        | None -> (
            let remaining =
              match deadline with
              | None -> 0
              | Some d ->
                  let r = d - Machine.cycles t.machine in
                  if r <= 0 then -1 else r
            in
            if remaining < 0 then 0
            else
              match
                Scheduler.futex_wait ctx ~word:eth_futex ~expected:v
                  ~timeout:remaining ()
              with
              | `Woken | `Value_changed -> loop ()
              | `Timed_out -> 0))
  in
  loop ()

let install kernel =
  let machine = Kernel.machine kernel in
  let mmio = Kernel.import_cap kernel ~comp:comp_name ("mmio:" ^ Netsim.device_name) in
  let t =
    { machine; mmio; st = { allowed_ports = default_ports; dropped = 0; tx = 0; rx = 0 } }
  in
  Machine.on_snapshot machine (fun () -> let s = t.st in fun () -> t.st <- s);
  let ti = Interp.to_int and iv = Interp.int_value in
  Kernel.implement1 kernel ~comp:comp_name ~entry:"send" (fun _ctx args ->
      let len = ti args.(1) in
      if len <= 0 || len > Netsim.max_frame then iv (-1)
      else
        let frame = Membuf.to_string machine ~auth:args.(0) ~len in
        iv (do_send t frame));
  Kernel.implement1 kernel ~comp:comp_name ~entry:"recv" (fun ctx args ->
      iv (do_recv t ctx args.(0) (ti args.(1))));
  Kernel.implement1 kernel ~comp:comp_name ~entry:"allow_port" (fun _ctx args ->
      t.st <- { t.st with allowed_ports = ti args.(0) :: t.st.allowed_ports };
      iv 0);
  Kernel.implement1 kernel ~comp:comp_name ~entry:"block_port" (fun _ctx args ->
      let port = ti args.(0) in
      t.st <- { t.st with allowed_ports = List.filter (fun p -> p <> port) t.st.allowed_ports };
      iv 0);
  Kernel.implement kernel ~comp:comp_name ~entry:"stats" (fun _ctx _ ->
      (iv t.st.tx, iv t.st.dropped))

(* Client wrappers (used by the TCP/IP compartment). *)

let send ctx ~frame_cap ~len =
  match
    Kernel.call1 ctx ~import:"firewall.send" [ frame_cap; Interp.int_value len ]
  with
  | Ok v -> Interp.to_int v
  | Error _ -> -1

let recv ctx ~buf ~timeout =
  match
    Kernel.call1 ctx ~import:"firewall.recv" [ buf; Interp.int_value timeout ]
  with
  | Ok v -> Interp.to_int v
  | Error _ -> 0

let client_imports = Firmware.client_imports (firmware_compartment ())
