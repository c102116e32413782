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

type t = {
  machine : Machine.t;
  mmio : Cap.t;
  mutable allowed_ports : int list;
  mutable dropped : int;
  mutable tx : int;
  mutable rx : int;
}

let default_ports =
  [ P.dhcp_server_port; P.dhcp_client_port; P.dns_port; P.sntp_port; Netsim.broker_port ]

(* Remote port of a frame (destination for outbound, source for
   inbound); None = not UDP/TCP (ARP, ICMP pass). *)
let remote_port ~outbound raw =
  match P.decode_eth raw with
  | None -> None
  | Some eth ->
      if eth.P.eth_type <> P.ethertype_ipv4 then None
      else
        Option.bind (P.decode_ipv4 eth.P.eth_payload) (fun ip ->
            if ip.P.ip_proto = P.proto_udp then
              Option.map
                (fun u -> if outbound then u.P.udp_dst else u.P.udp_src)
                (P.decode_udp ip.P.ip_payload)
            else if ip.P.ip_proto = P.proto_tcp then
              Option.map
                (fun s -> if outbound then s.P.tcp_dst else s.P.tcp_src)
                (P.decode_tcp ip.P.ip_payload)
            else None)

let permitted t ~outbound raw =
  match remote_port ~outbound raw with
  | None -> true
  | Some port -> List.mem port t.allowed_ports

(* MMIO window copies go through the bus, byte by byte (the simulated
   adaptor has no DMA, matching the paper's "simple network adaptor with
   no offload features"). *)

let write_window t off s =
  String.iteri
    (fun i c ->
      Machine.store t.machine ~auth:t.mmio
        ~addr:(Cap.base t.mmio + off + i)
        ~size:1 (Char.code c))
    s

let read_window t off len =
  String.init len (fun i ->
      Char.chr
        (Machine.load t.machine ~auth:t.mmio ~addr:(Cap.base t.mmio + off + i) ~size:1))

let do_send t frame =
  if not (permitted t ~outbound:true frame) then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    (* Copy into the TX window then trigger. *)
    write_window t 0x800 frame;
    Machine.store t.machine ~auth:t.mmio ~addr:(Cap.base t.mmio + 8) ~size:4
      (String.length frame);
    t.tx <- t.tx + 1;
    String.length frame
  end

(* Read the pending frame if any; None when the RX queue is empty. *)
let try_rx t =
  let len = Machine.load t.machine ~auth:t.mmio ~addr:(Cap.base t.mmio) ~size:4 in
  if len = 0 then None
  else begin
    let frame = read_window t 0x10 len in
    Machine.store t.machine ~auth:t.mmio ~addr:(Cap.base t.mmio + 4) ~size:4 1;
    t.rx <- t.rx + 1;
    if permitted t ~outbound:false frame then Some frame
    else begin
      t.dropped <- t.dropped + 1;
      None
    end
  end

let do_recv t ctx buf timeout =
  let deadline =
    if timeout > 0 then Some (Machine.cycles t.machine + timeout) else None
  in
  let eth_futex = Scheduler.interrupt_futex ctx ~irq:Machine.ethernet_irq in
  let rec loop () =
    match try_rx t with
    | Some frame ->
        let room = Cap.top buf - Cap.address buf in
        let frame =
          if String.length frame > room then String.sub frame 0 room else frame
        in
        Membuf.of_string t.machine ~auth:buf frame;
        String.length frame
    | None -> (
        let v = Machine.load t.machine ~auth:eth_futex ~addr:(Cap.address eth_futex) ~size:4 in
        (* Re-check after reading the futex word to close the race. *)
        match try_rx t with
        | Some _ as f ->
            (match f with
            | Some frame ->
                Membuf.of_string t.machine ~auth:buf frame;
                String.length frame
            | None -> 0)
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
    { machine; mmio; allowed_ports = default_ports; dropped = 0; tx = 0; rx = 0 }
  in
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
      t.allowed_ports <- ti args.(0) :: t.allowed_ports;
      iv 0);
  Kernel.implement1 kernel ~comp:comp_name ~entry:"block_port" (fun _ctx args ->
      t.allowed_ports <- List.filter (fun p -> p <> ti args.(0)) t.allowed_ports;
      iv 0);
  Kernel.implement kernel ~comp:comp_name ~entry:"stats" (fun _ctx _ ->
      (iv t.tx, iv t.dropped));
  t

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
