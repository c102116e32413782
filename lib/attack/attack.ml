(* Directed attack campaigns run differentially on the CHERIoT machine
   and the MPU baseline (ROADMAP item 5).

   Each family runs the same attacker story on both models, from the
   same seed, and an oracle classifies the aftermath from
   architecturally observable state only: trap records (CHERI crash
   dumps / MPU region faults), the victim's planted secret and heap
   canary read back through privileged physical accessors, and the
   attacker-observable surfaces (the attacker's own memory and the
   network reply ring).  No verdict ever derives from attacker-side
   bookkeeping — see the oracle-soundness invariant in DESIGN.md.

   CHERIoT scenarios fork from a shared post-boot Machine.snapshot per
   farm chunk (the boot image is seed-independent), so every outcome is
   a pure function of (family, model, seed, armed) and the matrix is
   byte-identical for every --jobs value. *)

module Cap = Capability
module F = Firmware
module B = Mpu_baseline

let iv = Interp.int_value

type family = Uaf_reachback | Type_confusion | Frame_overflow | Secret_exfil
type model = Cheriot | Mpu
type verdict = Benign | Trapped | Contained | Corrupted_neighbour | Owned

let families = [ Uaf_reachback; Type_confusion; Frame_overflow; Secret_exfil ]
let models = [ Cheriot; Mpu ]
let verdicts = [ Benign; Trapped; Contained; Corrupted_neighbour; Owned ]

let family_name = function
  | Uaf_reachback -> "uaf-reachback"
  | Type_confusion -> "type-confusion"
  | Frame_overflow -> "frame-overflow"
  | Secret_exfil -> "secret-exfil"

let family_of_name s = List.find_opt (fun f -> family_name f = s) families
let model_name = function Cheriot -> "cheriot" | Mpu -> "mpu"
let model_of_name s = List.find_opt (fun m -> model_name m = s) models

let verdict_name = function
  | Benign -> "benign"
  | Trapped -> "trapped"
  | Contained -> "contained"
  | Corrupted_neighbour -> "corrupted"
  | Owned -> "owned"

let severity = function
  | Benign -> 0
  | Trapped -> 1
  | Contained -> 2
  | Corrupted_neighbour -> 3
  | Owned -> 4

type outcome = {
  at_family : family;
  at_model : model;
  at_seed : int;
  at_armed : bool;
  at_verdict : verdict;
  at_evidence : string list;
  at_cycles : int;
  at_dumps : Forensics.dump list;
  at_journal : string list;
  at_metrics : Agg.t;
}

(* The victim's 8-byte secret (a TLS session key stand-in) and its heap
   canary pattern — identical values on both models so the oracle and
   the goldens line up. *)

let secret_w0 = 0x5EC2E7A5
let secret_w1 = 0x6B88D942

let secret_byte i =
  let w = if i < 4 then secret_w0 else secret_w1 in
  (w lsr (8 * (i mod 4))) land 0xff

let canary_word i = 0xC0DE0000 lor (i * 0x101)
let session_word = 0x600DDA7A

(* The single classification rule, shared by both models.  A leak
   dominates (the attacker got the secret even if something also
   trapped later); corruption beats a mere trap; an armed run with no
   observable effect is contained; only controls are benign. *)
let classify ~armed ~leaked ~corrupted ~trapped =
  if leaked then Owned
  else if corrupted then Corrupted_neighbour
  else if trapped then Trapped
  else if armed then Contained
  else Benign

(* The malformed-frame family parameters, drawn identically on both
   models from the same seed: armed frames claim far more payload than
   they carry (and than any 64-byte reassembly buffer), disarmed frames
   are honest. *)
let frame_payload ~armed wrng =
  let data_len = 8 + Random.State.int wrng 24 in
  let data = String.make data_len 'A' in
  let claim =
    if armed then 80 + (16 * Random.State.int wrng 16) else data_len
  in
  (claim, data)

(* ------------------------------------------------------------------ *)
(* CHERIoT: four compartments on the full simulator.                  *)
(* ------------------------------------------------------------------ *)

let atk_quota = 8192
let vic_quota = 8192
let net_quota = 8192
let rx_buf_size = 64 (* netd's exactly-bounded reassembly buffer *)

let firmware () =
  System.image ~name:"attack-lab"
    ~sealed_objects:
      [
        Allocator.alloc_capability ~name:"atkq" ~quota:atk_quota;
        Allocator.alloc_capability ~name:"vicq" ~quota:vic_quota;
        Allocator.alloc_capability ~name:"netq" ~quota:net_quota;
      ]
    ~threads:
      [
        F.thread ~name:"driver" ~comp:"driver" ~entry:"main" ~priority:2
          ~stack_size:4096 ~trusted_stack_frames:16 ();
      ]
    [
      F.compartment "driver" ~globals_size:32
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:1024 ]
        ~imports:
          (System.standard_imports
          @ [
              F.Call { comp = "victim"; entry = "prime" };
              F.Call { comp = "attacker"; entry = "attack" };
              F.Call { comp = "netd"; entry = "pump" };
            ]);
      F.compartment "attacker" ~globals_size:128
        ~entries:[ F.entry "attack" ~arity:1 ~min_stack:1024 ]
        ~imports:
          (System.standard_imports
          @ [
              F.Static_sealed { target = "atkq" };
              F.Call { comp = "victim"; entry = "serve" };
            ]);
      F.compartment "victim" ~globals_size:64 ~error_handler:true
        ~entries:
          [
            F.entry "prime" ~arity:0 ~min_stack:512;
            F.entry "serve" ~arity:1 ~min_stack:512;
          ]
        ~imports:
          (System.standard_imports @ [ F.Static_sealed { target = "vicq" } ]);
      F.compartment "netd" ~globals_size:32 ~error_handler:true
        ~entries:[ F.entry "pump" ~arity:0 ~min_stack:512 ]
        ~imports:
          (System.standard_imports
          @ [
              F.Static_sealed { target = "netq" };
              F.Mmio { device = Netsim.device_name };
            ]);
    ]

type image = {
  ai_machine : Machine.t;
  ai_frn : Forensics.t;
  ai_net : Netsim.t;
  ai_sys : System.t;
}

let build_image () =
  let machine = Machine.create () in
  let frn = Forensics.create () in
  Machine.set_forensics machine (Some frn);
  let net = Netsim.attach ~latency:4_000 machine in
  match System.boot ~machine (firmware ()) with
  | Error e -> failwith ("attack: boot failed: " ^ e)
  | Ok sys -> { ai_machine = machine; ai_frn = frn; ai_net = net; ai_sys = sys }

let run_cheriot img ~family ~armed ~seed =
  let machine = img.ai_machine in
  let sys = img.ai_sys in
  let k = sys.System.kernel in
  let wrng = Random.State.make [| seed; 0x41747263 |] in
  let journal = Replay.record machine in
  let vic_layout = Loader.find_comp (Kernel.loader k) "victim" in
  let atk_layout = Loader.find_comp (Kernel.loader k) "attacker" in
  let vic_secret_addr = vic_layout.Loader.lc_globals_base + 16 in
  let atk_base = (atk_layout.Loader.lc_globals_base + 7) / 8 * 8 in
  let stash_addr = atk_base in
  let exfil_base = atk_base + 32 in
  let evidence = ref [] in
  let ev fmt = Printf.ksprintf (fun s -> evidence := !evidence @ [ s ]) fmt in
  let vic_key = ref Cap.null in
  let vic_canary = ref Cap.null in
  (* --- the victim --- *)
  let vicq () = Kernel.import_cap k ~comp:"victim" "sealed:vicq" in
  Kernel.implement1 k ~comp:"victim" ~entry:"prime" (fun ctx _ ->
      Machine.store machine ~auth:ctx.Kernel.cgp ~addr:vic_secret_addr ~size:4
        secret_w0;
      Machine.store machine ~auth:ctx.Kernel.cgp ~addr:(vic_secret_addr + 4)
        ~size:4 secret_w1;
      (match Allocator.allocate ctx ~alloc_cap:(vicq ()) 32 with
      | Ok c ->
          vic_canary := c;
          for i = 0 to 7 do
            Machine.store machine ~auth:c ~addr:(Cap.base c + (4 * i)) ~size:4
              (canary_word i)
          done
      | Error _ -> ());
      (match Allocator.token_key_new ctx with
      | Ok key -> vic_key := key
      | Error _ -> ());
      (* A legitimately typed session object for the benign path. *)
      match
        Allocator.allocate_sealed ctx ~alloc_cap:(vicq ()) ~key:!vic_key 16
      with
      | Ok session ->
          (match Allocator.token_unseal ctx ~key:!vic_key session with
          | Ok p ->
              Machine.store machine ~auth:p ~addr:(Cap.base p) ~size:4
                session_word
          | Error _ -> ());
          session
      | Error _ -> iv 0);
  (match family with
  | Type_confusion ->
      (* The service unseals caller-supplied handles with its own key:
         the CHERIoT defence against confused deputies (§3.2.1). *)
      Kernel.implement1 k ~comp:"victim" ~entry:"serve" (fun ctx args ->
          match Allocator.token_unseal ctx ~key:!vic_key args.(0) with
          | Ok p -> iv (Machine.load machine ~auth:p ~addr:(Cap.base p) ~size:4)
          | Error _ -> iv (-1))
  | Secret_exfil ->
      (* The service handles the secret in a stack temporary; the
         switcher zeroes the window on return (§3.2.5). *)
      Kernel.implement1 k ~comp:"victim" ~entry:"serve" (fun ctx _ ->
          let _ctx', tmp = Kernel.stack_alloc ctx 32 in
          Machine.store machine ~auth:tmp ~addr:(Cap.base tmp) ~size:4 secret_w0;
          Machine.store machine ~auth:tmp ~addr:(Cap.base tmp + 4) ~size:4
            secret_w1;
          iv 0)
  | Uaf_reachback | Frame_overflow ->
      Kernel.implement1 k ~comp:"victim" ~entry:"serve" (fun _ctx _ -> iv 0));
  (* --- netd: the vulnerable frame parser (trusts the claimed length) --- *)
  Kernel.implement1 k ~comp:"netd" ~entry:"pump" (fun ctx _ ->
      let netq = Kernel.import_cap k ~comp:"netd" "sealed:netq" in
      let mmio =
        Kernel.import_cap k ~comp:"netd" ("mmio:" ^ Netsim.device_name)
      in
      let handled = ref 0 in
      let continue = ref true in
      while !continue && !handled < 4 do
        if Netsim.rx_status machine mmio = 0 then continue := false
        else begin
          let claim = Netsim.rx_load machine mmio ~off:Netsim.tlv_claim_off ~size:4 in
          (match Allocator.allocate ctx ~alloc_cap:netq rx_buf_size with
          | Ok buf ->
              (* Reassembly copy that trusts the claim: on CHERIoT the
                 exactly-bounded buffer capability traps the overflow. *)
              for i = 0 to claim - 1 do
                let v =
                  Netsim.rx_load machine mmio ~off:(Netsim.tlv_data_off + i) ~size:1
                in
                Machine.store machine ~auth:buf ~addr:(Cap.base buf + i) ~size:1
                  v
              done;
              ignore (Allocator.free ctx ~alloc_cap:netq buf)
          | Error _ -> ());
          Netsim.rx_consume machine mmio;
          incr handled
        end
      done;
      iv !handled);
  (* --- the attacker --- *)
  let atkq () = Kernel.import_cap k ~comp:"attacker" "sealed:atkq" in
  Kernel.implement1 k ~comp:"attacker" ~entry:"attack" (fun ctx args ->
      let session = args.(0) in
      match family with
      | Frame_overflow -> iv 0 (* the frame itself is the attack *)
      | Uaf_reachback -> (
          let q = atkq () in
          match Allocator.allocate ctx ~alloc_cap:q 48 with
          | Error _ -> iv (-1)
          | Ok p ->
              Machine.store machine ~auth:p ~addr:(Cap.base p) ~size:4
                0x41414141;
              if not armed then begin
                (* control: free it and use a fresh allocation instead *)
                ignore (Allocator.free ctx ~alloc_cap:q p);
                match Allocator.allocate ctx ~alloc_cap:q 48 with
                | Ok p2 ->
                    let v =
                      Machine.load machine ~auth:p2 ~addr:(Cap.base p2) ~size:4
                    in
                    ignore (Allocator.free ctx ~alloc_cap:q p2);
                    iv v
                | Error _ -> iv (-1)
              end
              else if seed mod 2 = 0 then begin
                (* reach back through the dangling register-held copy *)
                ignore (Allocator.free ctx ~alloc_cap:q p);
                iv (Machine.load machine ~auth:p ~addr:(Cap.base p) ~size:4)
              end
              else begin
                (* stash in globals, free, reload across the load
                   filter, then reach back through the reloaded copy *)
                Machine.store_cap machine ~auth:ctx.Kernel.cgp ~addr:stash_addr
                  p;
                ignore (Allocator.free ctx ~alloc_cap:q p);
                let p' =
                  Machine.load_cap machine ~auth:ctx.Kernel.cgp
                    ~addr:stash_addr
                in
                iv (Machine.load machine ~auth:p' ~addr:(Cap.base p') ~size:4)
              end)
      | Type_confusion -> (
          if not armed then
            (* control: present the correctly typed session object *)
            match Kernel.call1 ctx ~import:"victim.serve" [ session ] with
            | Ok v -> v
            | Error _ -> iv (-1)
          else
            match seed mod 3 with
            | 0 ->
                (* dereference the sealed capability directly *)
                let q = atkq () in
                iv (Machine.load machine ~auth:q ~addr:(Cap.base q) ~size:4)
            | 1 -> (
                (* wrong virtual type: our own quota capability *)
                match Kernel.call1 ctx ~import:"victim.serve" [ atkq () ] with
                | Ok v -> v
                | Error _ -> iv (-2))
            | _ -> (
                (* forged integer "handle" *)
                match
                  Kernel.call1 ctx ~import:"victim.serve"
                    [ iv (0xdead0 + (seed land 0xf)) ]
                with
                | Ok v -> v
                | Error _ -> iv (-2)))
      | Secret_exfil ->
          if seed mod 2 = 0 then begin
            (* rummage the shared call stack after the victim used it *)
            ignore (Kernel.call1 ctx ~import:"victim.serve" [ session ]);
            if not armed then iv 0
            else begin
              let csp = ctx.Kernel.csp in
              let cur = Cap.address csp land lnot 3 in
              let lo = max (Cap.base csp) (cur - 512) in
              let lo = (lo + 3) / 4 * 4 in
              let hits = ref [] in
              let a = ref lo in
              while !a + 4 <= cur do
                let v = Machine.load machine ~auth:csp ~addr:!a ~size:4 in
                if v = secret_w0 || v = secret_w1 then hits := !hits @ [ v ];
                a := !a + 4
              done;
              List.iteri
                (fun i v ->
                  if i < 8 then
                    Machine.store machine ~auth:ctx.Kernel.cgp
                      ~addr:(exfil_base + (4 * i))
                      ~size:4 v)
                !hits;
              iv (List.length !hits)
            end
          end
          else begin
            (* out-of-bounds read past an exactly-bounded allocation *)
            let q = atkq () in
            match Allocator.allocate ctx ~alloc_cap:q 40 with
            | Error _ -> iv (-1)
            | Ok p ->
                let off = if armed then 48 else 0 in
                let v =
                  Machine.load machine ~auth:p ~addr:(Cap.base p + off) ~size:4
                in
                ignore (Allocator.free ctx ~alloc_cap:q p);
                iv v
          end);
  (* --- the driver thread: prime the victim, deliver the attack --- *)
  Kernel.implement1 k ~comp:"driver" ~entry:"main" (fun ctx _ ->
      let session =
        match Kernel.call1 ctx ~import:"victim.prime" [] with
        | Ok s -> s
        | Error _ -> iv 0
      in
      (match family with
      | Frame_overflow ->
          (* The attacker is remote: the malformed frame is the attack
             input, delivered through the normal (journaled) path. *)
          let claim, data = frame_payload ~armed wrng in
          Netsim.inject_frame_at img.ai_net
            ~cycles:(Machine.cycles machine + 2_000)
            ~frame:(Netsim.tlv_frame ~claim ~data);
          Kernel.sleep ctx 20_000;
          ignore (Kernel.call1 ctx ~import:"netd.pump" [])
      | Uaf_reachback | Type_confusion | Secret_exfil ->
          ignore (Kernel.call1 ctx ~import:"attacker.attack" [ session ]));
      Cap.null);
  (try System.run ~until_cycles:50_000_000 sys
   with Failure msg -> ev "run aborted: %s" msg);
  Replay.finish journal;
  (* --- the oracle: architecturally observable state only --- *)
  let mem = Machine.mem machine in
  let leaked = ref false in
  for i = 0 to 7 do
    let v = Memory.load_priv mem ~addr:(exfil_base + (4 * i)) ~size:4 in
    if v = secret_w0 || v = secret_w1 then begin
      if not !leaked then
        ev "secret word 0x%08x found in attacker memory at exfil+%d" v (4 * i);
      leaked := true
    end
  done;
  let corrupted = ref false in
  if Cap.tag !vic_canary then
    for i = 0 to 7 do
      let v =
        Memory.load_priv mem ~addr:(Cap.base !vic_canary + (4 * i)) ~size:4
      in
      if v <> canary_word i then begin
        if not !corrupted then
          ev "victim heap canary word %d is 0x%08x, expected 0x%08x" i v
            (canary_word i);
        corrupted := true
      end
    done;
  let s0 = Memory.load_priv mem ~addr:vic_secret_addr ~size:4 in
  let s1 = Memory.load_priv mem ~addr:(vic_secret_addr + 4) ~size:4 in
  if s0 <> secret_w0 || s1 <> secret_w1 then begin
    ev "victim secret overwritten (0x%08x 0x%08x)" s0 s1;
    corrupted := true
  end;
  let dumps = Forensics.dumps img.ai_frn in
  List.iter (fun d -> ev "dump: %s" (Forensics.dump_brief d)) dumps;
  let verdict =
    classify ~armed ~leaked:!leaked ~corrupted:!corrupted
      ~trapped:(dumps <> [])
  in
  {
    at_family = family;
    at_model = Cheriot;
    at_seed = seed;
    at_armed = armed;
    at_verdict = verdict;
    at_evidence = !evidence;
    at_cycles = Machine.cycles machine;
    at_dumps = dumps;
    at_journal = List.map Replay.entry_to_string (Replay.recorded journal);
    at_metrics = Agg.of_forensics img.ai_frn ~cycles:(Machine.cycles machine);
  }

(* One shared post-boot image (and one snapshot) per chunk: the image
   is seed-independent, so forking is trivially byte-identical to a
   fresh boot. *)
let run_cheriot_chunk ~armed tasks =
  match tasks with
  | [] -> []
  | _ ->
      let img = build_image () in
      let snap = Machine.snapshot img.ai_machine in
      List.map
        (fun (family, seed) ->
          Machine.restore img.ai_machine snap;
          run_cheriot img ~family ~armed ~seed)
        tasks

(* ------------------------------------------------------------------ *)
(* MPU baseline: the same stories on flat memory with 8 regions.      *)
(* ------------------------------------------------------------------ *)

type mpu_world = {
  w : B.t;
  attacker : B.task;
  victim : B.task;
  netd : B.task;
  a0 : int;  (** the attacker's own buffer *)
  rx : int;  (** the shared frame ring (request in, reply out) *)
  parse : int;  (** netd's reassembly buffer *)
  canary : int;
  secret : int;
  stack : int;  (** the shared call stack *)
}

let mpu_world () =
  let w = B.create () in
  let a0 = B.malloc w 64 in
  let rx = B.malloc w 256 in
  let parse = B.malloc w rx_buf_size in
  let canary = B.malloc w 64 in
  let secret = B.malloc w 64 in
  let stack = B.malloc w 128 in
  let attacker = B.create_task () in
  let victim = B.create_task () in
  let netd = B.create_task () in
  (* Region-granular protection cannot describe per-object bounds: the
     services get whole-memory regions (as shipped firmware does), the
     attacker gets its own buffer plus the shared call stack. *)
  ignore (B.grant w victim ~addr:0 ~len:(B.mem_size w) ~writable:true);
  ignore (B.grant w netd ~addr:0 ~len:(B.mem_size w) ~writable:true);
  ignore (B.grant w attacker ~addr:a0 ~len:64 ~writable:true);
  ignore (B.grant w attacker ~addr:stack ~len:128 ~writable:true);
  for i = 0 to 7 do
    B.store_priv w ~addr:(secret + i) (secret_byte i)
  done;
  for i = 0 to 7 do
    let word = canary_word i in
    for j = 0 to 3 do
      B.store_priv w ~addr:(canary + (4 * i) + j) ((word lsr (8 * j)) land 0xff)
    done
  done;
  { w; attacker; victim; netd; a0; rx; parse; canary; secret; stack }

let run_mpu ~family ~armed ~seed =
  let wd = mpu_world () in
  let w = wd.w in
  let wrng = Random.State.make [| seed; 0x41747263 |] in
  let evidence = ref [] in
  let ev fmt = Printf.ksprintf (fun s -> evidence := !evidence @ [ s ]) fmt in
  let trapped = ref false in
  let attempt f =
    try f ()
    with Failure m when m = "mpu fault" ->
      trapped := true;
      ev "mpu region fault stopped the access"
  in
  (* Victim services that trust caller-supplied address handles. *)
  let serve_lookup handle =
    B.domain_call w ~from:wd.attacker ~into:wd.victim (fun () ->
        for i = 0 to 7 do
          B.store w wd.victim ~addr:(wd.a0 + 8 + i)
            (B.load w wd.victim ~addr:(handle + i))
        done)
  in
  let serve_update handle =
    B.domain_call w ~from:wd.attacker ~into:wd.victim (fun () ->
        for i = 0 to 7 do
          B.store w wd.victim ~addr:(handle + i) 0x41
        done)
  in
  let session_at = ref None in
  (match family with
  | Uaf_reachback ->
      let p = B.malloc w 48 in
      let r = B.grant w wd.attacker ~addr:p ~len:48 ~writable:true in
      ev "mpu region [%d,%d) granted for the 48-byte object (+%d bytes)"
        r.B.r_base (r.B.r_base + r.B.r_size)
        (r.B.r_size - 48);
      B.store w wd.attacker ~addr:p 0x41;
      B.free w p;
      (* No quarantine: the victim's next allocation reuses the chunk
         immediately, inside the attacker's still-live region. *)
      let s =
        B.domain_call w ~from:wd.attacker ~into:wd.victim (fun () ->
            let s = B.malloc w 48 in
            for i = 0 to 7 do
              B.store w wd.victim ~addr:(s + i)
                (B.load_priv w ~addr:(wd.secret + i))
            done;
            s)
      in
      session_at := Some s;
      if armed then
        if seed mod 2 = 0 then
          attempt (fun () ->
              (* dangling read of the reused chunk *)
              for i = 0 to 7 do
                B.store w wd.attacker ~addr:(wd.a0 + i)
                  (B.load w wd.attacker ~addr:(p + i))
              done)
        else
          attempt (fun () ->
              (* dangling write corrupts the victim's reused object *)
              for i = 0 to 7 do
                B.store w wd.attacker ~addr:(p + i) 0x5a
              done)
  | Type_confusion ->
      let legit = B.malloc w 16 in
      B.domain_call w ~from:wd.attacker ~into:wd.victim (fun () ->
          for j = 0 to 3 do
            B.store w wd.victim ~addr:(legit + j)
              ((session_word lsr (8 * j)) land 0xff)
          done);
      if not armed then attempt (fun () -> serve_lookup legit)
      else if seed mod 2 = 0 then
        (* the service dereferences the handle for us: read the secret *)
        attempt (fun () -> serve_lookup wd.secret)
      else
        (* ... or write through it: smash the victim's canary *)
        attempt (fun () -> serve_update wd.canary)
  | Frame_overflow ->
      let claim, data = frame_payload ~armed wrng in
      let frame = Netsim.tlv_frame ~claim ~data in
      (* DMA lands the frame in the shared ring. *)
      String.iteri
        (fun i c -> if wd.rx + i < wd.parse then
            B.store_priv w ~addr:(wd.rx + i) (Char.code c))
        frame;
      attempt (fun () ->
          B.domain_call w ~from:wd.attacker ~into:wd.netd (fun () ->
              (* the parser trusts the claimed length *)
              let claim_in =
                let b i =
                  B.load w wd.netd ~addr:(wd.rx + Netsim.tlv_claim_off + i)
                in
                b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
              in
              if seed mod 2 = 0 then
                (* reassembly copy: write overflow out of parse[] *)
                for i = 0 to claim_in - 1 do
                  B.store w wd.netd ~addr:(wd.parse + i)
                    (B.load w wd.netd ~addr:(wd.rx + Netsim.tlv_data_off + i))
                done
              else
                (* echo claim bytes back: read overflow leaks into the
                   reply ring (the Heartbleed shape) *)
                for i = 0 to claim_in - 1 do
                  B.store w wd.netd ~addr:(wd.rx + i)
                    (B.load w wd.netd ~addr:(wd.parse + i))
                done))
  | Secret_exfil ->
      if seed mod 2 = 0 then begin
        (* the victim service handles the secret in a stack temporary
           and returns without zeroing *)
        B.domain_call w ~from:wd.attacker ~into:wd.victim (fun () ->
            for i = 0 to 7 do
              B.store w wd.victim ~addr:(wd.stack + 40 + i)
                (B.load_priv w ~addr:(wd.secret + i))
            done);
        if armed then
          attempt (fun () ->
              (* rummage the shared stack for the key schedule *)
              let hit = ref None in
              for a = wd.stack to wd.stack + 120 do
                if !hit = None then begin
                  let all = ref true in
                  for i = 0 to 7 do
                    if B.load w wd.attacker ~addr:(a + i) <> secret_byte i then
                      all := false
                  done;
                  if !all then hit := Some a
                end
              done;
              match !hit with
              | Some a ->
                  for i = 0 to 7 do
                    B.store w wd.attacker ~addr:(wd.a0 + i)
                      (B.load w wd.attacker ~addr:(a + i))
                  done
              | None -> ())
      end
      else if armed then begin
        (* region rounding: ask to share the 256-byte rx ring, receive
           a power-of-two region that swallows the neighbours *)
        let r = B.grant w wd.attacker ~addr:wd.rx ~len:256 ~writable:false in
        ev "mpu rounded the rx grant to [%d,%d) (+%d bytes over-privilege)"
          r.B.r_base (r.B.r_base + r.B.r_size) (r.B.r_size - 256);
        attempt (fun () ->
            for i = 0 to 7 do
              B.store w wd.attacker ~addr:(wd.a0 + i)
                (B.load w wd.attacker ~addr:(wd.secret + i))
            done)
      end
      else
        (* control: read only our own buffer *)
        attempt (fun () -> ignore (B.load w wd.attacker ~addr:wd.a0)));
  (* --- the oracle: same rule, baseline observables --- *)
  let window_has_secret lo len =
    let found = ref None in
    for a = lo to lo + len - 8 do
      if !found = None then begin
        let all = ref true in
        for i = 0 to 7 do
          if B.load_priv w ~addr:(a + i) <> secret_byte i then all := false
        done;
        if !all then found := Some a
      end
    done;
    !found
  in
  let leaked = ref false in
  (match window_has_secret wd.a0 64 with
  | Some a ->
      ev "secret found in attacker memory at a0+%d" (a - wd.a0);
      leaked := true
  | None -> ());
  (match family with
  | Frame_overflow -> (
      (* replies in the shared ring are attacker-observable *)
      match window_has_secret wd.rx 256 with
      | Some a ->
          ev "secret echoed into the reply ring at rx+%d" (a - wd.rx);
          leaked := true
      | None -> ())
  | _ -> ());
  let corrupted = ref false in
  for i = 0 to 7 do
    let word = canary_word i in
    for j = 0 to 3 do
      let v = B.load_priv w ~addr:(wd.canary + (4 * i) + j) in
      if v <> (word lsr (8 * j)) land 0xff then begin
        if not !corrupted then
          ev "victim heap canary corrupted at canary+%d" ((4 * i) + j);
        corrupted := true
      end
    done
  done;
  for i = 0 to 7 do
    if B.load_priv w ~addr:(wd.secret + i) <> secret_byte i then begin
      if not !corrupted then ev "victim secret overwritten at secret+%d" i;
      corrupted := true
    end
  done;
  (match !session_at with
  | Some s ->
      let intact = ref true in
      for i = 0 to 7 do
        if B.load_priv w ~addr:(s + i) <> secret_byte i then intact := false
      done;
      if not !intact then begin
        ev "victim session object corrupted through the dangling pointer";
        corrupted := true
      end
  | None -> ());
  let verdict =
    classify ~armed ~leaked:!leaked ~corrupted:!corrupted ~trapped:!trapped
  in
  {
    at_family = family;
    at_model = Mpu;
    at_seed = seed;
    at_armed = armed;
    at_verdict = verdict;
    at_evidence = !evidence;
    at_cycles = B.cycles w;
    at_dumps = [];
    at_journal = [];
    at_metrics = Agg.empty ();
  }

(* ------------------------------------------------------------------ *)
(* The matrix                                                         *)
(* ------------------------------------------------------------------ *)

let run_one ?(armed = true) ~family ~model ~seed () =
  match model with
  | Mpu -> run_mpu ~family ~armed ~seed
  | Cheriot -> List.hd (run_cheriot_chunk ~armed [ (family, seed) ])

let run_matrix ?(jobs = 1) ?(armed = true) ~base_seed ~n () =
  let seeds = List.init n (fun i -> base_seed + i) in
  (* Contiguous seed chunks: one shared post-boot image per chunk on
     the CHERIoT side. *)
  let chunks = Farm.chunks ~jobs seeds in
  let tasks =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun model -> List.map (fun c -> (model, family, c)) chunks)
          models)
      families
  in
  let work (model, family, seeds) =
    match model with
    | Cheriot -> run_cheriot_chunk ~armed (List.map (fun s -> (family, s)) seeds)
    | Mpu -> List.map (fun seed -> run_mpu ~family ~armed ~seed) seeds
  in
  List.concat (Farm.map_list ~jobs work tasks)

let cell outcomes ~family ~model =
  List.filter (fun o -> o.at_family = family && o.at_model = model) outcomes

let worst_verdict = function
  | [] -> Benign
  | os ->
      List.fold_left
        (fun acc o ->
          if severity o.at_verdict > severity acc then o.at_verdict else acc)
        Benign os

let containment_failures outcomes =
  List.filter (fun o -> severity o.at_verdict >= severity Corrupted_neighbour)
    outcomes

let cheriot_strictly_better outcomes =
  List.filter
    (fun family ->
      let ch = cell outcomes ~family ~model:Cheriot in
      let mp = cell outcomes ~family ~model:Mpu in
      let paired =
        List.filter_map
          (fun c ->
            List.find_opt (fun m -> m.at_seed = c.at_seed) mp
            |> Option.map (fun m -> (c, m)))
          ch
      in
      paired <> []
      && List.for_all
           (fun (c, m) -> severity c.at_verdict <= severity m.at_verdict)
           paired
      && List.exists
           (fun (c, m) -> severity c.at_verdict < severity m.at_verdict)
           paired)
    families

let render_matrix outcomes =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let seeds = List.sort_uniq compare (List.map (fun o -> o.at_seed) outcomes) in
  let lo = match seeds with s :: _ -> s | [] -> 0 in
  let hi = List.fold_left max lo seeds in
  let controls = outcomes <> [] && List.for_all (fun o -> not o.at_armed) outcomes in
  pr "attack containment matrix — %d families x %d models, seeds %d..%d%s\n\n"
    (List.length families) (List.length models) lo hi
    (if controls then " (negative controls: payload disarmed)" else "");
  pr "%-16s %-8s %7s %7s %9s %9s %6s   %s\n" "family" "model" "benign"
    "trapped" "contained" "corrupted" "owned" "worst";
  List.iter
    (fun family ->
      List.iter
        (fun model ->
          let os = cell outcomes ~family ~model in
          let count v =
            List.length (List.filter (fun o -> o.at_verdict = v) os)
          in
          pr "%-16s %-8s %7d %7d %9d %9d %6d   %s\n" (family_name family)
            (model_name model) (count Benign) (count Trapped) (count Contained)
            (count Corrupted_neighbour) (count Owned)
            (verdict_name (worst_verdict os)))
        models)
    families;
  let failures = containment_failures outcomes in
  pr "\ncontainment failures: %d (replay with bench -- attack-matrix --replay \
      <family>:<model>:<seed>)\n"
    (List.length failures);
  List.iter
    (fun o ->
      pr "  %s:%s:%d %s — %s\n" (family_name o.at_family)
        (model_name o.at_model) o.at_seed
        (verdict_name o.at_verdict)
        (match o.at_evidence with e :: _ -> e | [] -> "(no evidence line)"))
    failures;
  let better = cheriot_strictly_better outcomes in
  pr "\ncheriot strictly better than the mpu baseline: %s (%d/%d families)\n"
    (if better = [] then "(none)"
     else String.concat ", " (List.map family_name better))
    (List.length better) (List.length families);
  Buffer.contents buf

let matrix_json outcomes =
  let cell_json family model =
    let os = cell outcomes ~family ~model in
    let count v = List.length (List.filter (fun o -> o.at_verdict = v) os) in
    Json.Obj
      [
        ("family", Json.Str (family_name family));
        ("model", Json.Str (model_name model));
        ( "counts",
          Json.Obj (List.map (fun v -> (verdict_name v, Json.Int (count v))) verdicts)
        );
        ("worst", Json.Str (verdict_name (worst_verdict os)));
      ]
  in
  let failure_json o =
    Json.Obj
      [
        ("family", Json.Str (family_name o.at_family));
        ("model", Json.Str (model_name o.at_model));
        ("seed", Json.Int o.at_seed);
        ("verdict", Json.Str (verdict_name o.at_verdict));
        ("cycles", Json.Int o.at_cycles);
        ("evidence", Json.List (List.map (fun e -> Json.Str e) o.at_evidence));
        ( "dumps",
          Json.List
            (List.map (fun d -> Json.Str (Forensics.dump_brief d)) o.at_dumps)
        );
      ]
  in
  Json.Obj
    [
      ( "matrix",
        Json.List
          (List.concat_map
             (fun f -> List.map (fun m -> cell_json f m) models)
             families) );
      ( "failures",
        Json.List (List.map failure_json (containment_failures outcomes)) );
      ( "cheriot_strictly_better",
        Json.List
          (List.map
             (fun f -> Json.Str (family_name f))
             (cheriot_strictly_better outcomes)) );
    ]
