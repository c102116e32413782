(* The TCP/IP compartment (Fig. 5): the "ported" embedded network stack.
   It reaches the wire only through the firewall compartment, keeps one
   futex word per socket in its globals so callers can block, and is
   wrapped for micro-reboot: its error handler resets every socket, frees
   its heap state and restores its globals, after which callers see
   closed sockets and re-establish (§3.2.6, Fig. 7).

   The ping handler contains a deliberate, switchable "ping of death"
   bug — an unchecked copy into a 256-byte buffer — used by the §5.3.3
   case study to demonstrate fault containment and micro-reboot. *)

module Cap = Capability
module P = Packet

let comp_name = "tcpip"
let max_sockets = 8
let mss = 536
let quota_name = "net_quota"

(* Result codes over the call boundary. *)
let ok = 0
let err_timeout = -1
let err_invalid = -2
let err_closed = -3
let err_nomem = -4

let firmware_compartment () =
  Firmware.compartment comp_name ~code_loc:1980 ~globals_size:64 ~error_handler:true
    ~entries:
      [
        Firmware.entry "rx_step" ~arity:1 ~min_stack:512;
        Firmware.entry "shutdown" ~arity:0 ~min_stack:64;
        Firmware.entry "set_vulnerable" ~arity:1 ~min_stack:64;
        Firmware.entry "net_start" ~arity:0 ~min_stack:512;
        Firmware.entry "ifconfig" ~arity:0 ~min_stack:64;
        Firmware.entry "udp_open" ~arity:0 ~min_stack:128;
        Firmware.entry "udp_bind" ~arity:2 ~min_stack:128;
        Firmware.entry "udp_sendto" ~arity:5 ~min_stack:512;
        Firmware.entry "udp_recv" ~arity:4 ~min_stack:512;
        Firmware.entry "udp_last_src" ~arity:1 ~min_stack:64;
        Firmware.entry "tcp_open" ~arity:0 ~min_stack:128;
        Firmware.entry "tcp_connect" ~arity:4 ~min_stack:512;
        Firmware.entry "tcp_send" ~arity:3 ~min_stack:512;
        Firmware.entry "tcp_recv" ~arity:4 ~min_stack:512;
        Firmware.entry "sock_close" ~arity:1 ~min_stack:256;
        Firmware.entry "sock_futex" ~arity:1 ~min_stack:64;
      ]
    ~imports:
      (Firewall.client_imports @ Scheduler.client_imports @ Allocator.client_imports
      @ [ Firmware.Static_sealed { target = quota_name } ])

let quota_object = Allocator.alloc_capability ~name:quota_name ~quota:6144

type tcp_state = Tcp_closed | Syn_sent | Established | Peer_closed

type sock = {
  s_id : int;
  mutable s_used : bool;
  mutable s_proto : [ `Udp | `Tcp ];
  mutable s_local_port : int;
  mutable s_remote : (int * int) option;
  mutable s_tcp : tcp_state;
  mutable s_snd_nxt : int;
  mutable s_snd_una : int;
  mutable s_rcv_nxt : int;
  mutable s_rx : string list;  (** datagrams / stream chunks, oldest first *)
  mutable s_last_src : int * int;
}

type dhcp_state = Dhcp_idle | Wait_offer | Wait_ack | Bound

type t = {
  machine : Machine.t;
  cgp : Cap.t;
  globals_base : int;
  mutable our_ip : int;
  mutable gw_mac : int option;
  mutable vulnerable : bool;
  sockets : sock array;
  mutable dhcp : dhcp_state;
  mutable frame_rx : Cap.t;  (** heap frame buffers (lazily allocated) *)
  mutable frame_tx : Cap.t;
  mutable echo_buf : Cap.t;  (** the 256-byte buffer of the buggy handler *)
  mutable next_port : int;
  mutable reboots : int;
}

let fresh_sock i =
  {
    s_id = i;
    s_used = false;
    s_proto = `Udp;
    s_local_port = 0;
    s_remote = None;
    s_tcp = Tcp_closed;
    s_snd_nxt = 100;
    s_snd_una = 100;
    s_rcv_nxt = 0;
    s_rx = [];
    s_last_src = (0, 0);
  }

(* Futex words: one per socket, plus word [max_sockets] for generic
   network events (ARP/DHCP progress). *)
let net_event_word = max_sockets

let word_cap t i =
  Cap.exn
    (Cap.set_bounds
       (Cap.exn (Cap.with_address t.cgp (t.globals_base + (4 * i))))
       ~length:4)

let ro_word_cap t i =
  Cap.exn (Cap.and_perms (word_cap t i) Perm.Set.read_only)

let bump_and_wake t ctx i =
  let w = word_cap t i in
  let v = Machine.load t.machine ~auth:w ~addr:(Cap.address w) ~size:4 in
  Machine.store t.machine ~auth:w ~addr:(Cap.address w) ~size:4 ((v + 1) land 0xffffff);
  ignore (Scheduler.futex_wake ctx ~word:w ~count:max_int)

let word_value t i =
  let w = word_cap t i in
  Machine.load t.machine ~auth:w ~addr:(Cap.address w) ~size:4

let wait_word t ctx i ~seen ~timeout =
  Scheduler.futex_wait ctx ~word:(word_cap t i) ~expected:seen ~timeout ()

(* Buffers from our own quota (allocated on first use). *)

let alloc_cap ctx =
  Kernel.import_cap ctx.Kernel.kernel ~comp:comp_name ("sealed:" ^ quota_name)

let ensure_buffers t ctx =
  if not (Cap.tag t.frame_rx) then begin
    let q = alloc_cap ctx in
    (match Allocator.allocate ctx ~alloc_cap:q Netsim.max_frame with
    | Ok c -> t.frame_rx <- c
    | Error _ -> ());
    (match Allocator.allocate ctx ~alloc_cap:q Netsim.max_frame with
    | Ok c -> t.frame_tx <- c
    | Error _ -> ());
    match Allocator.allocate ctx ~alloc_cap:q 256 with
    | Ok c -> t.echo_buf <- c
    | Error _ -> ()
  end

(* Transmit: compose, copy into the TX buffer, hand to the firewall. *)

let emit t ctx frame =
  ensure_buffers t ctx;
  if Cap.tag t.frame_tx then begin
    Membuf.of_string t.machine ~auth:t.frame_tx frame;
    ignore (Firewall.send ctx ~frame_cap:t.frame_tx ~len:(String.length frame))
  end

let emit_ip t ctx ~dst_ip ~proto payload =
  let dst_mac =
    match t.gw_mac with Some m -> m | None -> P.mac_broadcast
  in
  emit t ctx
    (P.encode_eth
       {
         P.eth_dst = dst_mac;
         eth_src = Netsim.device_mac;
         eth_type = P.ethertype_ipv4;
         eth_payload =
           P.encode_ipv4
             { P.ip_src = t.our_ip; ip_dst = dst_ip; ip_proto = proto; ip_payload = payload };
       })

let emit_udp t ctx ~dst_ip ~src_port ~dst_port payload =
  emit_ip t ctx ~dst_ip ~proto:P.proto_udp
    (P.encode_udp { P.udp_src = src_port; udp_dst = dst_port; udp_payload = payload })

let emit_tcp t ctx s ?(syn = false) ?(fin = false) ?(rst = false) payload =
  match s.s_remote with
  | None -> ()
  | Some (ip, port) ->
      emit_ip t ctx ~dst_ip:ip ~proto:P.proto_tcp
        (P.encode_tcp
           {
             P.tcp_src = s.s_local_port;
             tcp_dst = port;
             tcp_seq = s.s_snd_nxt;
             tcp_ack = s.s_rcv_nxt;
             tcp_syn = syn;
             tcp_ack_flag = not syn (* the initial SYN carries no ACK *);
             tcp_fin = fin;
             tcp_rst = rst;
             tcp_payload = payload;
           })

let arp_request t ctx ip =
  emit t ctx
    (P.encode_eth
       {
         P.eth_dst = P.mac_broadcast;
         eth_src = Netsim.device_mac;
         eth_type = P.ethertype_arp;
         eth_payload =
           P.encode_arp
             {
               P.arp_op = `Request;
               arp_sender_mac = Netsim.device_mac;
               arp_sender_ip = t.our_ip;
               arp_target_mac = 0;
               arp_target_ip = ip;
             };
       })

(* The deliberately buggy ICMP echo handler: the payload is copied into
   a fixed 256-byte buffer; CHERI bounds trap on oversized pings. *)
let handle_icmp t ctx icmp =
  if icmp.P.icmp_type = P.icmp_echo_request then begin
    if t.vulnerable && Cap.tag t.echo_buf then
      (* memcpy(echo_buf, body, body_len) with no length check *)
      Membuf.of_string t.machine ~auth:t.echo_buf icmp.P.icmp_body
    else if Cap.tag t.echo_buf then begin
      let n = min (String.length icmp.P.icmp_body) 256 in
      Membuf.of_string t.machine ~auth:t.echo_buf (String.sub icmp.P.icmp_body 0 n)
    end;
    emit_ip t ctx ~dst_ip:Netsim.gateway_ip ~proto:P.proto_icmp
      (P.encode_icmp
         { P.icmp_type = P.icmp_echo_reply; icmp_code = 0; icmp_body = icmp.P.icmp_body })
  end

let handle_dhcp t ctx payload =
  match P.decode_dhcp payload with
  | Some (P.Offer { client_mac; your_ip; _ }) when client_mac = Netsim.device_mac ->
      if t.dhcp = Wait_offer then begin
        t.dhcp <- Wait_ack;
        emit_udp t ctx ~dst_ip:0xffffffff ~src_port:P.dhcp_client_port
          ~dst_port:P.dhcp_server_port
          (P.encode_dhcp (P.Request { client_mac = Netsim.device_mac; requested_ip = your_ip }));
        bump_and_wake t ctx net_event_word
      end
  | Some (P.Ack { client_mac; your_ip; _ }) when client_mac = Netsim.device_mac ->
      if t.dhcp = Wait_ack then begin
        t.our_ip <- your_ip;
        t.dhcp <- Bound;
        bump_and_wake t ctx net_event_word
      end
  | Some _ | None -> ()

let find_udp_sock t port =
  Array.find_opt
    (fun s -> s.s_used && s.s_proto = `Udp && s.s_local_port = port)
    t.sockets

let find_tcp_sock t ~local ~remote =
  Array.find_opt
    (fun s ->
      s.s_used && s.s_proto = `Tcp && s.s_local_port = local
      && match s.s_remote with Some r -> r = remote | None -> false)
    t.sockets

let handle_tcp_segment t ctx ip seg =
  match find_tcp_sock t ~local:seg.P.tcp_dst ~remote:(ip.P.ip_src, seg.P.tcp_src) with
  | None -> ()
  | Some s ->
      if seg.P.tcp_rst then begin
        s.s_tcp <- Tcp_closed;
        bump_and_wake t ctx s.s_id
      end
      else begin
        (match s.s_tcp with
        | Syn_sent when seg.P.tcp_syn && seg.P.tcp_ack_flag ->
            s.s_rcv_nxt <- (seg.P.tcp_seq + 1) land 0xffffffff;
            s.s_snd_una <- seg.P.tcp_ack;
            s.s_tcp <- Established;
            emit_tcp t ctx s "";
            bump_and_wake t ctx s.s_id
        | Established | Peer_closed ->
            if seg.P.tcp_ack_flag && seg.P.tcp_ack > s.s_snd_una then begin
              s.s_snd_una <- seg.P.tcp_ack;
              bump_and_wake t ctx s.s_id
            end;
            let payload = seg.P.tcp_payload in
            if String.length payload > 0 then begin
              if seg.P.tcp_seq = s.s_rcv_nxt then begin
                s.s_rcv_nxt <- (s.s_rcv_nxt + String.length payload) land 0xffffffff;
                s.s_rx <- s.s_rx @ [ payload ];
                emit_tcp t ctx s "";
                bump_and_wake t ctx s.s_id
              end
              else emit_tcp t ctx s "" (* re-ACK duplicates *)
            end;
            if seg.P.tcp_fin then begin
              s.s_rcv_nxt <- (s.s_rcv_nxt + 1) land 0xffffffff;
              emit_tcp t ctx s "";
              s.s_tcp <- Peer_closed;
              bump_and_wake t ctx s.s_id
            end
        | Tcp_closed | Syn_sent -> ())
      end

let process_frame t ctx raw =
  match P.decode_eth raw with
  | None -> ()
  | Some eth ->
      if eth.P.eth_type = P.ethertype_arp then begin
        match P.decode_arp eth.P.eth_payload with
        | Some a when a.P.arp_op = `Reply ->
            t.gw_mac <- Some a.P.arp_sender_mac;
            bump_and_wake t ctx net_event_word
        | Some a when a.P.arp_op = `Request && a.P.arp_target_ip = t.our_ip ->
            emit t ctx
              (P.encode_eth
                 {
                   P.eth_dst = a.P.arp_sender_mac;
                   eth_src = Netsim.device_mac;
                   eth_type = P.ethertype_arp;
                   eth_payload =
                     P.encode_arp
                       {
                         P.arp_op = `Reply;
                         arp_sender_mac = Netsim.device_mac;
                         arp_sender_ip = t.our_ip;
                         arp_target_mac = a.P.arp_sender_mac;
                         arp_target_ip = a.P.arp_sender_ip;
                       };
                 })
        | Some _ | None -> ()
      end
      else if eth.P.eth_type = P.ethertype_ipv4 then begin
        match P.decode_ipv4 eth.P.eth_payload with
        | None -> ()
        | Some ip -> (
            match ip.P.ip_proto with
            | 1 -> (
                match P.decode_icmp ip.P.ip_payload with
                | Some icmp -> handle_icmp t ctx icmp
                | None -> ())
            | 17 -> (
                match P.decode_udp ip.P.ip_payload with
                | None -> ()
                | Some u ->
                    if u.P.udp_dst = P.dhcp_client_port then handle_dhcp t ctx u.P.udp_payload
                    else begin
                      match find_udp_sock t u.P.udp_dst with
                      | Some s ->
                          s.s_rx <- s.s_rx @ [ u.P.udp_payload ];
                          s.s_last_src <- (ip.P.ip_src, u.P.udp_src);
                          bump_and_wake t ctx s.s_id
                      | None -> ()
                    end)
            | 6 -> (
                match P.decode_tcp ip.P.ip_payload with
                | Some seg -> handle_tcp_segment t ctx ip seg
                | None -> ())
            | _ -> ())
      end

(* One receive/process step; called in a loop by the manager thread. *)
let rx_step t ctx timeout =
  ensure_buffers t ctx;
  if not (Cap.tag t.frame_rx) then err_nomem
  else begin
    let n = Firewall.recv ctx ~buf:t.frame_rx ~timeout in
    if n > 0 then begin
      process_frame t ctx (Membuf.to_string t.machine ~auth:t.frame_rx ~len:n);
      1
    end
    else 0
  end

(* DHCP client (blocking, with retransmission). *)
let net_start t ctx =
  ensure_buffers t ctx;
  if t.dhcp = Bound then ok
  else begin
    let rec arp_phase tries =
      (* Resolve the gateway before anything else needs it. *)
      if t.gw_mac <> None then true
      else if tries = 0 then false
      else begin
        let seen = word_value t net_event_word in
        arp_request t ctx Netsim.gateway_ip;
        ignore (wait_word t ctx net_event_word ~seen ~timeout:8_000_000);
        arp_phase (tries - 1)
      end
    in
    let rec dhcp_phase tries =
      if t.dhcp = Bound then true
      else if tries = 0 then false
      else begin
        let seen = word_value t net_event_word in
        (match t.dhcp with
        | Dhcp_idle | Wait_offer ->
            t.dhcp <- Wait_offer;
            emit_udp t ctx ~dst_ip:0xffffffff ~src_port:P.dhcp_client_port
              ~dst_port:P.dhcp_server_port
              (P.encode_dhcp (P.Discover Netsim.device_mac))
        | Wait_ack | Bound -> ());
        ignore (wait_word t ctx net_event_word ~seen ~timeout:8_000_000);
        dhcp_phase (tries - 1)
      end
    in
    (* DHCP first (broadcast needs no ARP), then gateway resolution. *)
    if dhcp_phase 8 && arp_phase 8 then ok else err_timeout
  end

(* Socket API *)

let alloc_sock t proto =
  match Array.find_opt (fun s -> not s.s_used) t.sockets with
  | None -> err_nomem
  | Some s ->
      s.s_used <- true;
      s.s_proto <- proto;
      s.s_local_port <- t.next_port;
      t.next_port <- t.next_port + 1;
      s.s_remote <- None;
      s.s_tcp <- Tcp_closed;
      s.s_rx <- [];
      s.s_snd_nxt <- 100 + (17 * s.s_id);
      s.s_snd_una <- s.s_snd_nxt;
      s.s_id

let sock t id =
  if id >= 0 && id < max_sockets && t.sockets.(id).s_used then Some t.sockets.(id)
  else None

let udp_recv t ctx id buf maxlen timeout =
  match sock t id with
  | None -> err_invalid
  | Some s ->
      let deadline =
        if timeout > 0 then Some (Machine.cycles t.machine + timeout) else None
      in
      let rec loop () =
        match s.s_rx with
        | datagram :: rest ->
            s.s_rx <- rest;
            let n = min (String.length datagram) maxlen in
            Membuf.of_string t.machine ~auth:buf (String.sub datagram 0 n);
            n
        | [] -> (
            let seen = word_value t s.s_id in
            if s.s_rx <> [] then loop ()
            else
              let remaining =
                match deadline with
                | None -> 0
                | Some d ->
                    let r = d - Machine.cycles t.machine in
                    if r <= 0 then -1 else r
              in
              if remaining < 0 then err_timeout
              else
                match wait_word t ctx s.s_id ~seen ~timeout:remaining with
                | `Woken | `Value_changed -> loop ()
                | `Timed_out -> err_timeout)
      in
      loop ()

let tcp_connect t ctx id ip port timeout =
  match sock t id with
  | None -> err_invalid
  | Some s ->
      s.s_remote <- Some (ip, port);
      s.s_tcp <- Syn_sent;
      let deadline = Machine.cycles t.machine + max timeout 60_000_000 in
      let rec loop tries =
        if s.s_tcp = Established then ok
        else if tries = 0 || Machine.cycles t.machine >= deadline then err_timeout
        else begin
          let seen = word_value t s.s_id in
          if s.s_tcp = Syn_sent then begin
            (* (Re)send SYN: seq consumes one number. *)
            let saved = s.s_snd_nxt in
            emit_tcp t ctx s ~syn:true "";
            s.s_snd_nxt <- (saved + 1) land 0xffffffff;
            s.s_snd_una <- s.s_snd_nxt
          end;
          ignore (wait_word t ctx s.s_id ~seen ~timeout:8_000_000);
          loop (tries - 1)
        end
      in
      loop 12

let tcp_send t ctx id buf len =
  match sock t id with
  | None -> err_invalid
  | Some s ->
      if s.s_tcp <> Established && s.s_tcp <> Peer_closed then err_closed
      else begin
        let n = min len mss in
        let data = Membuf.to_string t.machine ~auth:buf ~len:n in
        let target = (s.s_snd_nxt + n) land 0xffffffff in
        let rec loop tries =
          if s.s_snd_una >= target then n
          else if tries = 0 then err_timeout
          else begin
            let seen = word_value t s.s_id in
            let saved = s.s_snd_nxt in
            emit_tcp t ctx s data;
            s.s_snd_nxt <- target;
            ignore (saved);
            ignore (wait_word t ctx s.s_id ~seen ~timeout:8_000_000);
            if s.s_snd_una < target then s.s_snd_nxt <- saved (* retransmit *);
            loop (tries - 1)
          end
        in
        loop 8
      end

let tcp_recv t ctx id buf maxlen timeout =
  match sock t id with
  | None -> err_invalid
  | Some s ->
      let deadline =
        if timeout > 0 then Some (Machine.cycles t.machine + timeout) else None
      in
      let rec loop () =
        match s.s_rx with
        | chunk :: rest ->
            if String.length chunk <= maxlen then begin
              s.s_rx <- rest;
              Membuf.of_string t.machine ~auth:buf chunk;
              String.length chunk
            end
            else begin
              s.s_rx <- String.sub chunk maxlen (String.length chunk - maxlen) :: rest;
              Membuf.of_string t.machine ~auth:buf (String.sub chunk 0 maxlen);
              maxlen
            end
        | [] -> (
            if s.s_tcp = Peer_closed || s.s_tcp = Tcp_closed then err_closed
            else
              let seen = word_value t s.s_id in
              if s.s_rx <> [] then loop ()
              else
                let remaining =
                  match deadline with
                  | None -> 0
                  | Some d ->
                      let r = d - Machine.cycles t.machine in
                      if r <= 0 then -1 else r
                in
                if remaining < 0 then err_timeout
                else
                  match wait_word t ctx s.s_id ~seen ~timeout:remaining with
                  | `Woken | `Value_changed -> loop ()
                  | `Timed_out -> err_timeout)
      in
      loop ()

let sock_close t ctx id =
  match sock t id with
  | None -> err_invalid
  | Some s ->
      if s.s_proto = `Tcp && (s.s_tcp = Established || s.s_tcp = Peer_closed) then begin
        emit_tcp t ctx s ~fin:true "";
        s.s_snd_nxt <- (s.s_snd_nxt + 1) land 0xffffffff
      end;
      let id = s.s_id in
      t.sockets.(id) <- fresh_sock id;
      bump_and_wake t ctx id;
      ok

(* Micro-reboot (§3.2.6) through the five-step orchestration API.  Runs
   from the compartment's error handler. *)
let micro_reboot t ctx =
  Microreboot.perform ctx ~comp:comp_name
    {
      Microreboot.wake_blocked =
        (fun () ->
          (* Close every socket *before* waking, so that blocked callers
             observe a dead socket when they resume; then wake all
             threads parked on our futexes so they unwind. *)
          Array.iter
            (fun s ->
              s.s_tcp <- Tcp_closed;
              s.s_used <- false;
              s.s_rx <- [])
            t.sockets;
          for i = 0 to max_sockets do
            bump_and_wake t ctx i
          done);
      release_heap =
        (fun () ->
          ignore (Allocator.free_all ctx ~alloc_cap:(alloc_cap ctx));
          t.frame_rx <- Cap.null;
          t.frame_tx <- Cap.null;
          t.echo_buf <- Cap.null);
      reset_state =
        (fun () ->
          Array.iteri (fun i _ -> t.sockets.(i) <- fresh_sock i) t.sockets;
          t.our_ip <- 0;
          t.gw_mac <- None;
          t.dhcp <- Dhcp_idle;
          t.reboots <- t.reboots + 1);
    }

let reboot_count t = t.reboots

let install kernel =
  let machine = Kernel.machine kernel in
  let layout = Loader.find_comp (Kernel.loader kernel) comp_name in
  let t =
    {
      machine;
      cgp = layout.Loader.lc_cgp;
      globals_base = layout.Loader.lc_globals_base;
      our_ip = 0;
      gw_mac = None;
      vulnerable = false;
      sockets = Array.init max_sockets fresh_sock;
      dhcp = Dhcp_idle;
      frame_rx = Cap.null;
      frame_tx = Cap.null;
      echo_buf = Cap.null;
      next_port = 49152;
      reboots = 0;
    }
  in
  Kernel.snapshot_globals kernel ~comp:comp_name;
  Kernel.set_error_handler kernel ~comp:comp_name (fun ctx _fi ->
      micro_reboot t ctx;
      `Unwind);
  let ti = Interp.to_int and iv = Interp.int_value in
  let e name f = Kernel.implement1 kernel ~comp:comp_name ~entry:name f in
  e "rx_step" (fun ctx args -> iv (rx_step t ctx (ti args.(0))));
  e "shutdown" (fun _ctx _ -> iv ok);
  e "set_vulnerable" (fun _ctx args ->
      t.vulnerable <- ti args.(0) <> 0;
      iv ok);
  e "net_start" (fun ctx _ -> iv (net_start t ctx));
  e "ifconfig" (fun _ctx _ -> iv t.our_ip);
  e "udp_open" (fun _ctx _ -> iv (alloc_sock t `Udp));
  e "udp_bind" (fun _ctx args ->
      match sock t (ti args.(0)) with
      | None -> iv err_invalid
      | Some s ->
          s.s_local_port <- ti args.(1);
          iv ok);
  e "udp_sendto" (fun ctx args ->
      match sock t (ti args.(0)) with
      | None -> iv err_invalid
      | Some s ->
          let len = ti args.(4) in
          let data = Membuf.to_string machine ~auth:args.(3) ~len in
          emit_udp t ctx ~dst_ip:(ti args.(1)) ~src_port:s.s_local_port
            ~dst_port:(ti args.(2)) data;
          iv len);
  e "udp_recv" (fun ctx args ->
      iv (udp_recv t ctx (ti args.(0)) args.(1) (ti args.(2)) (ti args.(3))));
  Kernel.implement kernel ~comp:comp_name ~entry:"udp_last_src" (fun _ctx args ->
      match sock t (ti args.(0)) with
      | None -> (iv err_invalid, iv 0)
      | Some s ->
          let ip, port = s.s_last_src in
          (iv ip, iv port));
  e "tcp_open" (fun _ctx _ -> iv (alloc_sock t `Tcp));
  e "tcp_connect" (fun ctx args ->
      iv (tcp_connect t ctx (ti args.(0)) (ti args.(1)) (ti args.(2)) (ti args.(3))));
  e "tcp_send" (fun ctx args -> iv (tcp_send t ctx (ti args.(0)) args.(1) (ti args.(2))));
  e "tcp_recv" (fun ctx args ->
      iv (tcp_recv t ctx (ti args.(0)) args.(1) (ti args.(2)) (ti args.(3))));
  e "sock_close" (fun ctx args -> iv (sock_close t ctx (ti args.(0))));
  e "sock_futex" (fun _ctx args ->
      let id = ti args.(0) in
      if id >= 0 && id < max_sockets then ro_word_cap t id else Cap.null);
  t

(* Client wrappers *)

let iv = Interp.int_value
let ti = Interp.to_int

let call_int ctx import args =
  match Kernel.call1 ctx ~import args with
  | Ok v -> ti v
  | Error Kernel.Compartment_poisoned -> err_closed
  | Error _ -> err_invalid

let client_imports = Firmware.client_imports (firmware_compartment ())

let c_rx_step ctx ~timeout = call_int ctx "tcpip.rx_step" [ iv timeout ]
let c_net_start ctx = call_int ctx "tcpip.net_start" []
let c_udp_open ctx = call_int ctx "tcpip.udp_open" []

let c_udp_sendto ctx ~sock ~ip ~port ~buf ~len =
  call_int ctx "tcpip.udp_sendto" [ iv sock; iv ip; iv port; buf; iv len ]

let c_udp_recv ctx ~sock ~buf ~maxlen ~timeout =
  call_int ctx "tcpip.udp_recv" [ iv sock; buf; iv maxlen; iv timeout ]

let c_tcp_open ctx = call_int ctx "tcpip.tcp_open" []

let c_tcp_connect ctx ~sock ~ip ~port ~timeout =
  call_int ctx "tcpip.tcp_connect" [ iv sock; iv ip; iv port; iv timeout ]

let c_tcp_send ctx ~sock ~buf ~len = call_int ctx "tcpip.tcp_send" [ iv sock; buf; iv len ]

let c_tcp_recv ctx ~sock ~buf ~maxlen ~timeout =
  call_int ctx "tcpip.tcp_recv" [ iv sock; buf; iv maxlen; iv timeout ]

let c_sock_close ctx ~sock = call_int ctx "tcpip.sock_close" [ iv sock ]
let c_shutdown ctx = call_int ctx "tcpip.shutdown" []
