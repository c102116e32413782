(* Toy DH: p = 2^31 - 1 (Mersenne), g = 7. *)
let p = 0x7fffffff
let g = 7

let default_handshake_cycles = 9_000_000
let per_byte_cycles = 18

let modexp base e =
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then acc * base mod p else acc in
      go acc (base * base mod p) (e lsr 1)
  in
  go 1 (base mod p) e

(* FNV-1a over a string, mixed with an int key. *)
let fnv key s =
  let h = ref (0x811c9dc5 lxor (key land 0xffffffff)) in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

type conn = { key : int; mutable send_ctr : int; mutable recv_ctr : int }

let send_counter c = c.send_ctr
let recv_counter c = c.recv_ctr

let set_counters c ~send ~recv =
  c.send_ctr <- send;
  c.recv_ctr <- recv

let derive ~secret ~peer_pub ~nc ~ns =
  let shared = modexp peer_pub secret in
  fnv shared (Printf.sprintf "%d|%d" nc ns)

(* Handshake messages: tag byte, nonce u32, public u32. *)

let u32s v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (v land 0xff));
  Bytes.to_string b

let get32 s i =
  (Char.code s.[i] lsl 24) lor (Char.code s.[i + 1] lsl 16)
  lor (Char.code s.[i + 2] lsl 8)
  lor Char.code s.[i + 3]

let client_hello ~nonce ~secret = "\x01" ^ u32s nonce ^ u32s (modexp g secret)

let server_process_hello ~secret ~nonce msg =
  if String.length msg < 9 || msg.[0] <> '\x01' then Error "bad ClientHello"
  else
    let nc = get32 msg 1 and client_pub = get32 msg 5 in
    let key = derive ~secret ~peer_pub:client_pub ~nc ~ns:nonce in
    let hello = "\x02" ^ u32s nonce ^ u32s (modexp g secret) ^ u32s (fnv key "finished") in
    Ok ({ key; send_ctr = 0; recv_ctr = 0 }, hello)

let client_process_server_hello ~secret ~nonce msg =
  if String.length msg < 13 || msg.[0] <> '\x02' then Error "bad ServerHello"
  else
    let ns = get32 msg 1 and server_pub = get32 msg 5 and mac = get32 msg 9 in
    let key = derive ~secret ~peer_pub:server_pub ~nc:nonce ~ns in
    if fnv key "finished" <> mac then Error "handshake MAC mismatch"
    else Ok { key; send_ctr = 0; recv_ctr = 0 }

(* Record layer: [len u16][ciphertext][tag u32]; keystream from
   xorshift32 seeded by key + counter. *)

let keystream key ctr n =
  let state = ref ((key lxor (ctr * 0x9e3779b9)) land 0xffffffff) in
  if !state = 0 then state := 0x1234567;
  String.init n (fun _ ->
      let x = !state in
      let x = x lxor (x lsl 13) land 0xffffffff in
      let x = x lxor (x lsr 17) in
      let x = x lxor (x lsl 5) land 0xffffffff in
      state := x;
      Char.chr (x land 0xff))

let xor_str a b = String.init (String.length a) (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let seal conn plain =
  let ks = keystream conn.key conn.send_ctr (String.length plain) in
  let cipher = xor_str plain ks in
  let tag = fnv (conn.key + conn.send_ctr) cipher in
  conn.send_ctr <- conn.send_ctr + 1;
  let len = String.length cipher + 4 in
  String.init 2 (fun i -> Char.chr ((len lsr (8 * (1 - i))) land 0xff))
  ^ cipher ^ u32s tag

let take_record s =
  let n = String.length s in
  if n < 2 then None
  else
    let size = 2 + ((Char.code s.[0] lsl 8) lor Char.code s.[1]) in
    if n < size then None else Some (String.sub s 0 size, String.sub s size (n - size))

let open_ conn s =
  if String.length s < 6 then Error "short record"
  else
    let len = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
    if String.length s < 2 + len then Error "incomplete record"
    else
      let cipher = String.sub s 2 (len - 4) in
      let tag = get32 s (2 + len - 4) in
      if fnv (conn.key + conn.recv_ctr) cipher <> tag then Error "record MAC mismatch"
      else begin
        let ks = keystream conn.key conn.recv_ctr (String.length cipher) in
        conn.recv_ctr <- conn.recv_ctr + 1;
        Ok (xor_str cipher ks)
      end
