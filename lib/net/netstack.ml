(* The upper network compartments of Fig. 5: NetAPI (hardened socket
   wrapper with opaque handles), DNS resolver, SNTP, TLS and MQTT.
   Each is a separate compartment with its own imports, so the audit
   report shows exactly who can reach what. *)

module Cap = Capability
module P = Packet

let iv = Interp.int_value
let ti = Interp.to_int

(* Read a string argument passed as (capability, length). *)
let arg_string ctx cap len =
  let m = Kernel.machine ctx.Kernel.kernel in
  if len < 0 || len > 256 then ""
  else Membuf.to_string m ~auth:cap ~len

(* The framed receive of TLS and MQTT.  [take ()] removes the next whole
   unit (a record, a packet) from the session's stream once it holds
   one; until then [pull remaining] reads more of the stream, waiting at
   most [remaining] cycles, and returns how many bytes arrived.  The
   deadline is fixed on entry; a pull of no bytes ends the receive with
   the pull's result as its error code. *)
let recv_framed machine ~timeout ~take ~pull =
  let deadline = Machine.cycles machine + max timeout 1 in
  let rec loop () =
    match take () with
    | Some unit -> Ok unit
    | None ->
        let remaining = deadline - Machine.cycles machine in
        if remaining <= 0 then Error Tcpip.err_timeout
        else
          let n = pull remaining in
          if n > 0 then loop () else Error n
  in
  loop ()

(* NetAPI *)

module Netapi = struct
  let comp_name = "netapi"

  let firmware_compartment () =
    Firmware.compartment comp_name ~code_loc:430 ~globals_size:16
      ~entries:
        [
          Firmware.entry "start" ~arity:0 ~min_stack:512;
          Firmware.entry "rx_loop" ~arity:0 ~min_stack:1024;
          Firmware.entry "stop" ~arity:0 ~min_stack:64;
          Firmware.entry "socket_connect_tcp" ~arity:4 ~min_stack:512;
          Firmware.entry "socket_send" ~arity:3 ~min_stack:512;
          Firmware.entry "socket_recv" ~arity:4 ~min_stack:512;
          Firmware.entry "socket_close" ~arity:2 ~min_stack:512;
        ]
      ~imports:
        (Tcpip.client_imports @ Allocator.client_imports @ Scheduler.client_imports
        @ [ Firmware.Call { comp = "dns"; entry = "resolve" } ])

  (* A socket handle holds the TCP/IP stack's socket number. *)
  type t = {
    handles : Sealed_handle.t;
    mutable running : bool;
    mutable loop_rounds : int;
  }

  let install kernel =
    let t =
      { handles = Sealed_handle.create (Kernel.machine kernel); running = true;
        loop_rounds = 0 }
    in
    let e name f = Kernel.implement1 kernel ~comp:comp_name ~entry:name f in
    e "start" (fun ctx _ -> iv (Tcpip.c_net_start ctx));
    e "stop" (fun ctx _ ->
        t.running <- false;
        ignore (Tcpip.c_shutdown ctx);
        iv 0);
    (* The network manager loop: pumps the TCP/IP stack's receive path
       and rides out its micro-reboots (the stack's error handler resets
       it; this loop simply keeps pumping). *)
    e "rx_loop" (fun ctx _ ->
        while t.running do
          t.loop_rounds <- t.loop_rounds + 1;
          match Tcpip.c_rx_step ctx ~timeout:200_000 with
          | n when n >= 0 -> ()
          | _ ->
              (* Stack crashed or is rebooting: give it a moment. *)
              Kernel.sleep ctx 50_000
        done;
        iv 0);
    e "socket_connect_tcp" (fun ctx args ->
        let alloc_cap = args.(0) in
        let name = arg_string ctx args.(1) (ti args.(2)) in
        let port = ti args.(3) in
        (* Resolve (a dotted quad is parsed locally; otherwise DNS). *)
        let ip =
          match
            String.split_on_char '.' name |> List.map int_of_string_opt
          with
          | [ Some a; Some b; Some c; Some d ]
            when List.for_all (fun x -> x >= 0 && x < 256) [ a; b; c; d ] ->
              P.ipv4_of_quad a b c d
          | _ | (exception _) -> (
              match Kernel.call ctx ~import:"dns.resolve" [ args.(1); iv (ti args.(2)) ] with
              | Ok (v, _) -> ti v
              | Error _ -> 0)
        in
        if ip <= 0 then iv Tcpip.err_invalid
        else
          let sock = Tcpip.c_tcp_open ctx in
          if sock < 0 then iv Tcpip.err_nomem
          else if Tcpip.c_tcp_connect ctx ~sock ~ip ~port ~timeout:90_000_000 < 0 then begin
            ignore (Tcpip.c_sock_close ctx ~sock);
            iv Tcpip.err_timeout
          end
          else
            match Sealed_handle.mint t.handles ctx ~alloc_cap sock with
            | Some handle -> handle
            | None ->
                ignore (Tcpip.c_sock_close ctx ~sock);
                iv Tcpip.err_nomem);
    e "socket_send" (fun ctx args ->
        match Sealed_handle.open_ t.handles ctx args.(0) with
        | None -> iv Tcpip.err_invalid
        | Some sock ->
            let len = ti args.(2) in
            if
              not
                (Hardening.check_pointer ctx ~perms:(Perm.Set.of_list [ Perm.Load ])
                   ~min_length:len args.(1))
            then iv Tcpip.err_invalid
            else begin
              Hardening.claim_arg ctx args.(1);
              iv (Tcpip.c_tcp_send ctx ~sock ~buf:args.(1) ~len)
            end);
    e "socket_recv" (fun ctx args ->
        match Sealed_handle.open_ t.handles ctx args.(0) with
        | None -> iv Tcpip.err_invalid
        | Some sock ->
            let maxlen = ti args.(2) in
            if
              not
                (Hardening.check_pointer ctx ~perms:(Perm.Set.of_list [ Perm.Store ])
                   ~min_length:maxlen args.(1))
            then iv Tcpip.err_invalid
            else iv (Tcpip.c_tcp_recv ctx ~sock ~buf:args.(1) ~maxlen ~timeout:(ti args.(3))));
    e "socket_close" (fun ctx args ->
        match Sealed_handle.open_ t.handles ctx args.(1) with
        | None -> iv Tcpip.err_invalid
        | Some sock ->
            ignore (Tcpip.c_sock_close ctx ~sock);
            ignore (Sealed_handle.release t.handles ctx ~alloc_cap:args.(0) args.(1));
            iv 0)

  let client_imports = Firmware.client_imports (firmware_compartment ())
end

(* DNS resolver *)

module Dns = struct
  let comp_name = "dns"

  let firmware_compartment () =
    Firmware.compartment comp_name ~code_loc:190 ~globals_size:8
      ~entries:[ Firmware.entry "resolve" ~arity:2 ~min_stack:512 ]
      ~imports:(Tcpip.client_imports @ Allocator.client_imports
               @ [ Firmware.Static_sealed { target = "dns_quota" } ])

  let quota_object = Allocator.alloc_capability ~name:"dns_quota" ~quota:768

  type t = { mutable sock : int; mutable buf : Kernel.value; mutable next_id : int }

  let quota ctx = Kernel.import_cap ctx.Kernel.kernel ~comp:comp_name "sealed:dns_quota"

  let ensure t ctx =
    if t.sock < 0 then t.sock <- Tcpip.c_udp_open ctx;
    if not (Cap.tag t.buf) then
      match Allocator.allocate ctx ~alloc_cap:(quota ctx) 512 with
      | Ok c -> t.buf <- c
      | Error _ -> ()

  let install kernel =
    let t = { sock = -1; buf = Cap.null; next_id = 1 } in
    Kernel.implement1 kernel ~comp:comp_name ~entry:"resolve" (fun ctx args ->
        let name = arg_string ctx args.(0) (ti args.(1)) in
        let m = Kernel.machine ctx.Kernel.kernel in
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        let query = P.encode_dns (P.Dns_query { dns_id = id; dns_name = name }) in
        (* Retryable (§3.2.6): a TCP/IP micro-reboot invalidates our
           socket, so failures drop it and reopen on the next attempt. *)
        let rec attempt tries =
          if tries = 0 then 0
          else begin
            ensure t ctx;
            if t.sock < 0 || not (Cap.tag t.buf) then 0
            else begin
              Membuf.of_string m ~auth:t.buf query;
              let sent =
                Tcpip.c_udp_sendto ctx ~sock:t.sock ~ip:Netsim.dns_ip ~port:P.dns_port
                  ~buf:t.buf ~len:(String.length query)
              in
              if sent < 0 then begin
                t.sock <- -1;
                attempt (tries - 1)
              end
              else
                let n =
                  Tcpip.c_udp_recv ctx ~sock:t.sock ~buf:t.buf ~maxlen:512 ~timeout:30_000_000
                in
                if n <= 0 then begin
                  if n = Tcpip.err_invalid || n = Tcpip.err_closed then t.sock <- -1;
                  attempt (tries - 1)
                end
                else
                  match P.decode_dns (Membuf.to_string m ~auth:t.buf ~len:n) with
                  | Some (P.Dns_answer { dns_id; dns_ip = Some ip; _ }) when dns_id = id -> ip
                  | Some _ | None -> attempt (tries - 1)
            end
          end
        in
        iv (attempt 4))
end

(* SNTP *)

module Sntp = struct
  let comp_name = "sntp"

  let firmware_compartment () =
    Firmware.compartment comp_name ~code_loc:110 ~globals_size:8
      ~entries:
        [
          Firmware.entry "sync" ~arity:0 ~min_stack:512;
          Firmware.entry "now" ~arity:0 ~min_stack:64;
        ]
      ~imports:(Tcpip.client_imports @ Allocator.client_imports
               @ [ Firmware.Static_sealed { target = "sntp_quota" } ])

  let quota_object = Allocator.alloc_capability ~name:"sntp_quota" ~quota:256

  type t = { mutable sock : int; mutable buf : Kernel.value; mutable offset : int option }

  let quota ctx = Kernel.import_cap ctx.Kernel.kernel ~comp:comp_name "sealed:sntp_quota"

  let install kernel =
    let t = { sock = -1; buf = Cap.null; offset = None } in
    let machine = Kernel.machine kernel in
    Kernel.implement1 kernel ~comp:comp_name ~entry:"sync" (fun ctx _ ->
        if not (Cap.tag t.buf) then
          (match Allocator.allocate ctx ~alloc_cap:(quota ctx) 64 with
          | Ok c -> t.buf <- c
          | Error _ -> ());
        (* Retryable (§3.2.6): a TCP/IP micro-reboot invalidates the
           socket; drop it and reopen on the next attempt. *)
        let rec attempt tries =
          if tries = 0 || not (Cap.tag t.buf) then 0
          else begin
            if t.sock < 0 then t.sock <- Tcpip.c_udp_open ctx;
            if t.sock < 0 then 0
            else begin
              let m = machine in
              Membuf.of_string m ~auth:t.buf (P.encode_sntp P.Sntp_request);
              let sent =
                Tcpip.c_udp_sendto ctx ~sock:t.sock ~ip:Netsim.ntp_ip ~port:P.sntp_port
                  ~buf:t.buf ~len:1
              in
              if sent < 0 then begin
                t.sock <- -1;
                attempt (tries - 1)
              end
              else begin
                (* NTP replies can be slow (Fig. 7's second phase). *)
                let n =
                  Tcpip.c_udp_recv ctx ~sock:t.sock ~buf:t.buf ~maxlen:64
                    ~timeout:400_000_000
                in
                if n <= 0 then begin
                  if n = Tcpip.err_invalid || n = Tcpip.err_closed then t.sock <- -1;
                  0
                end
                else
                  match P.decode_sntp (Membuf.to_string m ~auth:t.buf ~len:n) with
                  | Some (P.Sntp_reply { sntp_seconds }) ->
                      t.offset <-
                        Some
                          (sntp_seconds
                          - (Machine.cycles m / (Machine.clock_mhz * 1_000_000)));
                      sntp_seconds
                  | Some P.Sntp_request | None -> 0
              end
            end
          end
        in
        iv (attempt 2));
    Kernel.implement1 kernel ~comp:comp_name ~entry:"now" (fun _ctx _ ->
        match t.offset with
        | None -> iv 0
        | Some off -> iv (off + (Machine.cycles machine / (Machine.clock_mhz * 1_000_000))))
end

(* TLS *)

module Tls = struct
  let comp_name = "tls"

  let firmware_compartment () =
    Firmware.compartment comp_name ~code_loc:640 ~globals_size:16 ~error_handler:true
      ~entries:
        [
          Firmware.entry "connect" ~arity:4 ~min_stack:1024;
          Firmware.entry "send" ~arity:3 ~min_stack:1024;
          Firmware.entry "recv" ~arity:4 ~min_stack:1024;
          Firmware.entry "close" ~arity:2 ~min_stack:512;
        ]
      ~imports:(Netapi.client_imports @ Allocator.client_imports)

  type session = {
    socket : Kernel.value;  (** netapi opaque handle *)
    mutable tls : Tls_lite.conn option;
    mutable stream : string;
    io_buf : Kernel.value;  (** caller-quota scratch *)
  }

  type t = {
    handles : Sealed_handle.t;
    sessions : (int, session) Hashtbl.t;
    mutable next_id : int;
    handshake_cycles : int;
        (** per-stack modelled key-agreement cost, so concurrently live
            simulations can use different profiles *)
  }

  let open_handle t ctx handle =
    Option.bind (Sealed_handle.open_ t.handles ctx handle) (fun id ->
        Option.map (fun s -> (id, s)) (Hashtbl.find_opt t.sessions id))

  (* Pull bytes from the socket until [need] more bytes are available. *)
  let fill ctx session ~machine ~timeout =
    let n =
      match
        Kernel.call ctx ~import:"netapi.socket_recv"
          [ session.socket; session.io_buf; iv 600; iv timeout ]
      with
      | Ok (v, _) -> ti v
      | Error _ -> Tcpip.err_closed
    in
    if n > 0 then begin
      session.stream <-
        session.stream ^ Membuf.to_string machine ~auth:session.io_buf ~len:n;
      n
    end
    else n

  let recv_record ctx session ~machine ~timeout =
    recv_framed machine ~timeout
      ~take:(fun () ->
        Option.map
          (fun (record, rest) ->
            session.stream <- rest;
            record)
          (Tls_lite.take_record session.stream))
      ~pull:(fun remaining ->
        (* A read that ends empty is this receive's timeout. *)
        match fill ctx session ~machine ~timeout:remaining with
        | 0 -> Tcpip.err_timeout
        | n -> n)

  let install ?(handshake_cycles = Tls_lite.default_handshake_cycles) kernel =
    let machine = Kernel.machine kernel in
    let t =
      { handles = Sealed_handle.create machine; sessions = Hashtbl.create 8;
        next_id = 1; handshake_cycles }
    in
    let e name f = Kernel.implement1 kernel ~comp:comp_name ~entry:name f in
    Kernel.set_error_handler kernel ~comp:comp_name (fun _ctx _fi -> `Unwind);
    e "connect" (fun ctx args ->
        let alloc_cap = args.(0) in
        (* Open the TCP socket through NetAPI with the caller's quota. *)
        match
          Kernel.call ctx ~import:"netapi.socket_connect_tcp"
            [ alloc_cap; args.(1); iv (ti args.(2)); iv (ti args.(3)) ]
        with
        | Error _ -> iv Tcpip.err_closed
        | Ok (socket, _) when not (Cap.tag socket) -> socket (* error code through *)
        | Ok (socket, _) -> (
            (* Every failure from here on hands back what the connect
               charged to the caller: the socket, then the buffer. *)
            let close_socket () =
              ignore (Kernel.call ctx ~import:"netapi.socket_close" [ alloc_cap; socket ])
            in
            match Allocator.allocate ctx ~alloc_cap 640 with
            | Error _ ->
                close_socket ();
                iv Tcpip.err_nomem
            | Ok io_buf -> (
                let fail code =
                  close_socket ();
                  ignore (Allocator.free ctx ~alloc_cap io_buf);
                  iv code
                in
                let session = { socket; tls = None; stream = ""; io_buf } in
                (* Key agreement: the expensive part (no accelerator).
                   Charged in chunks: crypto code is ordinary preemptible
                   compartment code, so the timer keeps firing. *)
                let rec burn n =
                  if n > 0 then begin
                    Machine.tick machine (min 1_000_000 n);
                    burn (n - 1_000_000)
                  end
                in
                burn t.handshake_cycles;
                let secret = 13577 + t.next_id in
                let nonce = 0xc11e47 + t.next_id in
                let hello = Tls_lite.client_hello ~nonce ~secret in
                Membuf.of_string machine ~auth:session.io_buf hello;
                ignore
                  (Kernel.call ctx ~import:"netapi.socket_send"
                     [ session.socket; session.io_buf; iv (String.length hello) ]);
                (* Server hello is 13 bytes.  A read that times out is
                   retried until the deadline; a closed socket ends the
                   gather at once. *)
                let rec gather deadline =
                  if String.length session.stream >= 13 then true
                  else
                    let remaining = deadline - Machine.cycles machine in
                    if remaining <= 0 then false
                    else
                      let n = fill ctx session ~machine ~timeout:(min 2_000_000 remaining) in
                      (n > 0 || n = Tcpip.err_timeout) && gather deadline
                in
                if not (gather (Machine.cycles machine + 60_000_000)) then
                  fail Tcpip.err_timeout
                else
                  let sh = String.sub session.stream 0 13 in
                  session.stream <-
                    String.sub session.stream 13 (String.length session.stream - 13);
                  match Tls_lite.client_process_server_hello ~secret ~nonce sh with
                  | Error _ -> fail Tcpip.err_closed
                  | Ok conn -> (
                      session.tls <- Some conn;
                      let id = t.next_id in
                      t.next_id <- id + 1;
                      Hashtbl.replace t.sessions id session;
                      match Sealed_handle.mint t.handles ctx ~alloc_cap id with
                      | Some handle -> handle
                      | None ->
                          Hashtbl.remove t.sessions id;
                          fail Tcpip.err_nomem))));
    e "send" (fun ctx args ->
        match open_handle t ctx args.(0) with
        | None -> iv Tcpip.err_invalid
        | Some (_, session) -> (
            match session.tls with
            | None -> iv Tcpip.err_closed
            | Some conn ->
                let len = min (ti args.(2)) 512 in
                let plain = Membuf.to_string machine ~auth:args.(1) ~len in
                Machine.tick machine (Tls_lite.per_byte_cycles * len);
                let record = Tls_lite.seal conn plain in
                Membuf.of_string machine ~auth:session.io_buf record;
                let r =
                  match
                    Kernel.call ctx ~import:"netapi.socket_send"
                      [ session.socket; session.io_buf; iv (String.length record) ]
                  with
                  | Ok (v, _) -> ti v
                  | Error _ -> Tcpip.err_closed
                in
                if r < 0 then iv r else iv len));
    e "recv" (fun ctx args ->
        match open_handle t ctx args.(0) with
        | None -> iv Tcpip.err_invalid
        | Some (_, session) -> (
            match session.tls with
            | None -> iv Tcpip.err_closed
            | Some conn -> (
                match recv_record ctx session ~machine ~timeout:(ti args.(3)) with
                | Error e -> iv e
                | Ok record -> (
                    Machine.tick machine (Tls_lite.per_byte_cycles * String.length record);
                    match Tls_lite.open_ conn record with
                    | Error _ -> iv Tcpip.err_closed
                    | Ok plain ->
                        let n = min (String.length plain) (ti args.(2)) in
                        Membuf.of_string machine ~auth:args.(1) (String.sub plain 0 n);
                        iv n))));
    e "close" (fun ctx args ->
        match open_handle t ctx args.(1) with
        | None -> iv Tcpip.err_invalid
        | Some (id, session) ->
            ignore
              (Kernel.call ctx ~import:"netapi.socket_close" [ args.(0); session.socket ]);
            ignore (Allocator.free ctx ~alloc_cap:args.(0) session.io_buf);
            ignore (Sealed_handle.release t.handles ctx ~alloc_cap:args.(0) args.(1));
            Hashtbl.remove t.sessions id;
            iv 0)

  let client_imports = Firmware.client_imports (firmware_compartment ())
end

(* MQTT *)

module Mqtt = struct
  let comp_name = "mqtt"

  let firmware_compartment () =
    Firmware.compartment comp_name ~code_loc:360 ~globals_size:16
      ~entries:
        [
          Firmware.entry "connect" ~arity:4 ~min_stack:1024;
          Firmware.entry "subscribe" ~arity:3 ~min_stack:1024;
          Firmware.entry "await" ~arity:4 ~min_stack:1024;
          Firmware.entry "ping" ~arity:1 ~min_stack:1024;
          Firmware.entry "disconnect" ~arity:2 ~min_stack:1024;
        ]
      ~imports:(Tls.client_imports @ Allocator.client_imports)

  type session = {
    tls_handle : Kernel.value;
    mq_buf : Kernel.value;
    mutable pending : string;  (** decoded-but-unconsumed MQTT bytes *)
    mutable next_sub : int;
  }

  type t = {
    handles : Sealed_handle.t;
    sessions : (int, session) Hashtbl.t;
    mutable next_id : int;
  }

  let open_handle t ctx handle =
    Option.bind (Sealed_handle.open_ t.handles ctx handle) (Hashtbl.find_opt t.sessions)

  let send_packet ctx machine session pkt =
    let s = P.encode_mqtt pkt in
    Membuf.of_string machine ~auth:session.mq_buf s;
    match
      Kernel.call ctx ~import:"tls.send"
        [ session.tls_handle; session.mq_buf; iv (String.length s) ]
    with
    | Ok (v, _) -> ti v
    | Error _ -> Tcpip.err_closed

  (* Receive the next MQTT packet over TLS records. *)
  let recv_packet ctx machine session ~timeout =
    recv_framed machine ~timeout
      ~take:(fun () ->
        let pkt, rest = P.take_mqtt session.pending in
        session.pending <- rest;
        pkt)
      ~pull:(fun remaining ->
        let n =
          match
            Kernel.call ctx ~import:"tls.recv"
              [ session.tls_handle; session.mq_buf; iv 600; iv remaining ]
          with
          | Ok (v, _) -> ti v
          | Error _ -> Tcpip.err_closed
        in
        if n > 0 then
          session.pending <-
            session.pending ^ Membuf.to_string machine ~auth:session.mq_buf ~len:n;
        n)

  let install kernel =
    let machine = Kernel.machine kernel in
    let t =
      { handles = Sealed_handle.create machine; sessions = Hashtbl.create 8; next_id = 1 }
    in
    let e name f = Kernel.implement1 kernel ~comp:comp_name ~entry:name f in
    e "connect" (fun ctx args ->
        let alloc_cap = args.(0) in
        match
          Kernel.call ctx ~import:"tls.connect"
            [ alloc_cap; args.(1); iv (ti args.(2)); iv (ti args.(3)) ]
        with
        | Error _ -> iv Tcpip.err_closed
        | Ok (h, _) when not (Cap.tag h) -> h
        | Ok (tls_handle, _) -> (
            (* Every failure from here on hands back what the connect
               charged to the caller: the TLS session, then the buffer. *)
            let close_tls () =
              ignore (Kernel.call ctx ~import:"tls.close" [ alloc_cap; tls_handle ])
            in
            match Allocator.allocate ctx ~alloc_cap 640 with
            | Error _ ->
                close_tls ();
                iv Tcpip.err_nomem
            | Ok mq_buf -> (
                let fail code =
                  close_tls ();
                  ignore (Allocator.free ctx ~alloc_cap mq_buf);
                  iv code
                in
                let session = { tls_handle; mq_buf; pending = ""; next_sub = 1 } in
                if send_packet ctx machine session (P.Connect "cheriot-device") < 0 then
                  fail Tcpip.err_closed
                else
                  match recv_packet ctx machine session ~timeout:60_000_000 with
                  | Ok P.Connack -> (
                      let id = t.next_id in
                      t.next_id <- id + 1;
                      Hashtbl.replace t.sessions id session;
                      match Sealed_handle.mint t.handles ctx ~alloc_cap id with
                      | Some handle -> handle
                      | None ->
                          Hashtbl.remove t.sessions id;
                          fail Tcpip.err_nomem)
                  | Ok _ | Error _ -> fail Tcpip.err_closed)));
    e "subscribe" (fun ctx args ->
        match open_handle t ctx args.(0) with
        | None -> iv Tcpip.err_invalid
        | Some session -> (
            let topic = arg_string ctx args.(1) (ti args.(2)) in
            let sub_id = session.next_sub in
            session.next_sub <- sub_id + 1;
            if send_packet ctx machine session (P.Subscribe { sub_id; topic }) < 0 then
              iv Tcpip.err_closed
            else
              match recv_packet ctx machine session ~timeout:60_000_000 with
              | Ok (P.Suback { sub_id = sid }) when sid = sub_id -> iv 0
              | Ok _ | Error _ -> iv Tcpip.err_closed));
    e "await" (fun ctx args ->
        match open_handle t ctx args.(0) with
        | None -> iv Tcpip.err_invalid
        | Some session -> (
            let rec loop () =
              match recv_packet ctx machine session ~timeout:(ti args.(3)) with
              | Ok (P.Publish { message; _ }) ->
                  let n = min (String.length message) (ti args.(2)) in
                  Membuf.of_string machine ~auth:args.(1) (String.sub message 0 n);
                  iv n
              | Ok (P.Pingresp | P.Connack | P.Suback _) -> loop ()
              | Ok _ -> iv Tcpip.err_closed
              | Error e -> iv e
            in
            loop ()));
    e "ping" (fun ctx args ->
        match open_handle t ctx args.(0) with
        | None -> iv Tcpip.err_invalid
        | Some session ->
            if send_packet ctx machine session P.Pingreq < 0 then iv Tcpip.err_closed
            else iv 0);
    e "disconnect" (fun ctx args ->
        match open_handle t ctx args.(1) with
        | None -> iv Tcpip.err_invalid
        | Some session ->
            ignore (send_packet ctx machine session P.Disconnect);
            ignore
              (Kernel.call ctx ~import:"tls.close" [ args.(0); session.tls_handle ]);
            ignore (Allocator.free ctx ~alloc_cap:args.(0) session.mq_buf);
            iv 0)

  let client_imports = Firmware.client_imports (firmware_compartment ())
end

(* Bundle: everything an image needs to run the full stack. *)

let compartments () =
  [
    Firewall.firmware_compartment ();
    Tcpip.firmware_compartment ();
    Netapi.firmware_compartment ();
    Dns.firmware_compartment ();
    Sntp.firmware_compartment ();
    Tls.firmware_compartment ();
    Mqtt.firmware_compartment ();
  ]

let sealed_objects = [ Tcpip.quota_object; Dns.quota_object; Sntp.quota_object ]

let manager_thread =
  Firmware.thread ~name:"net_rx" ~comp:"netapi" ~entry:"rx_loop" ~priority:2
    ~stack_size:4096 ~trusted_stack_frames:24 ()

(* Top of the stack down: the order every image has installed in, which
   is also the order their snapshot captures register in. *)
let install ?handshake_cycles kernel =
  Mqtt.install kernel;
  Tls.install ?handshake_cycles kernel;
  Sntp.install kernel;
  Dns.install kernel;
  Netapi.install kernel;
  Tcpip.install kernel;
  Firewall.install kernel

