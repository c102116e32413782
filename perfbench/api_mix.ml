(* The api_mix workload: a benchmark-owned firmware whose driver thread
   issues a seeded mix of RTOS API requests, one op per request:

   - compartment calls needing 0, 256 and 1024 B of stack, and a
     shared-library call (Table 3 / Fig. 6a paths);
   - alloc/free pairs from 16 B to 64 KiB (Fig. 6b: above 16 KiB the
     pair is revoker-bound), and sealed alloc + unseal + free;
   - a futex hand-off and a message-queue round trip to a peer thread;
   - bursts of checked load / store / load_cap / store_cap.

   Each round restores the post-boot [Machine.snapshot] and runs one
   script of [requests_per_round] requests.  A script is a pure function
   of its script seed, so a round's simulated cycles and the digest of
   every request's return value are pinned per script seed.

   Because the benchmark owns every call site, each request is wrapped
   in a {!Spans} span named after the layer it enters. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

let requests_per_round = 64
let scripts_per_seed = 128
let quota_bytes = 192 * 1024
let mem_buf_bytes = 1024
let mem_burst = 64

type req =
  | Call of int * int  (** callee entry (0 = e0, 1 = e256, 2 = e1024), argument *)
  | Lib of int
  | Alloc of int  (** size in bytes *)
  | Sealed of int
  | Handoff
  | Queue of int
  | Mem of int  (** first word index of the burst *)

let call_imports = [| "callee.e0"; "callee.e256"; "callee.e1024" |]
let call_spans = [| "switcher.call_s0"; "switcher.call_s256"; "switcher.call_s1024" |]

let firmware () =
  System.image ~name:"api-mix"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"mix_quota" ~quota:quota_bytes ]
    ~threads:
      [
        F.thread ~name:"driver" ~comp:"driver" ~entry:"main" ~priority:2
          ~stack_size:4096 ();
        F.thread ~name:"peer" ~comp:"peer" ~entry:"main" ~priority:1
          ~stack_size:2048 ();
      ]
    [
      F.compartment "driver" ~globals_size:64
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:2048 ]
        ~imports:
          (System.standard_imports
          @ List.map
              (fun e -> F.Call { comp = "callee"; entry = e })
              [ "e0"; "e256"; "e1024" ]
          @ [
              F.Lib_call { lib = "lib"; entry = "id" };
              F.Static_sealed { target = "mix_quota" };
            ]);
      F.compartment "peer" ~globals_size:32
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:512 ]
        ~imports:System.standard_imports;
      F.compartment "callee" ~globals_size:32
        ~entries:
          [
            F.entry "e0" ~arity:1 ~min_stack:0;
            F.entry "e256" ~arity:1 ~min_stack:256;
            F.entry "e1024" ~arity:1 ~min_stack:1024;
          ];
      F.compartment "lib" ~kind:F.Library ~entries:[ F.entry "id" ~arity:1 ];
    ]

(* The mix, in requests out of 100.  85 are derived from the exact
   compartment-call census of the two measured workloads (`bench.exe
   census`: one paper-scale Fig. 7 run plus fault-campaign seeds
   0..199).  Their calls split into plain calls 23660, allocator calls
   35695 and scheduler (futex) calls 17832, i.e. 30.7 : 46.2 : 23.1.
   51 calls (17 per stack size; the census cannot see stack needs), 29
   small alloc/free pairs and 5 hand-offs give api_mix's own census,
   round prologues and the other 15 requests included, 31.0 : 46.6 :
   22.5 over the same classes (script seeds 0..127, queue calls left
   out).  Small sizes follow the census's allocation sizes: the log2
   buckets from 16 B to 1 KiB hold 1884, 3806, 7506, 4290, 2, 5 and 4
   allocations.  The census's context switches (0.74 per call) are not
   matched: api_mix makes 0.47.

   The other 15 are not derived: 3 each of library calls (which emit
   no event), sealed alloc+unseal (11 census calls), queue round trips
   and memory bursts (none in the census), and large pairs at the
   Fig. 6b sweep sizes 256 B .. 64 KiB, which reach the revoker-bound
   regime neither workload does.  At most one 64 KiB pair per script
   (later draws become 32 KiB): two in one round can find the heap
   fragmented by quarantine and fail with No_memory. *)
let small_sizes = [| (16, 1884); (32, 3806); (64, 7506); (128, 4290); (256, 2); (512, 5); (1024, 4) |]
let large_sizes = [| 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 |]

let script script_seed =
  let rng = Random.State.make [| script_seed; 0x61706931 |] in
  let arg () = Random.State.int rng 1_000_000 in
  let had_64k = ref false in
  let small_size () =
    let total = Array.fold_left (fun a (_, w) -> a + w) 0 small_sizes in
    let rec pick i r =
      let lo, w = small_sizes.(i) in
      (* Within the bucket [lo, 2 lo), in 8-byte steps. *)
      if r < w then lo + (8 * Random.State.int rng (max 1 (lo / 8))) else pick (i + 1) (r - w)
    in
    pick 0 (Random.State.int rng total)
  in
  let large_size () =
    match large_sizes.(Random.State.int rng (Array.length large_sizes)) with
    | 65536 when !had_64k -> 32768
    | 65536 ->
        had_64k := true;
        65536
    | n -> n
  in
  Array.init requests_per_round (fun _ ->
      let k = Random.State.int rng 100 in
      if k < 51 then Call (k mod 3, arg ())
      else if k < 80 then Alloc (small_size ())
      else if k < 85 then Handoff
      else if k < 88 then Lib (arg ())
      else if k < 91 then Sealed (8 + (8 * Random.State.int rng 16))
      else if k < 94 then Queue (arg ())
      else if k < 97 then Mem (Random.State.int rng (mem_buf_bytes / 4))
      else Alloc (large_size ()))

(* Round-local state shared by the driver and the peer.  [words] holds
   the request counter (+0) and the response counter (+4). *)
type shared = {
  buf : Cap.t;
  words : Cap.t;
  resp : Cap.t;
  elem : Cap.t;
  pbuf : Cap.t;
  key : Cap.t;
  q_req : Cap.t;
  q_resp : Cap.t;
}

type cmd = Stop | Wake | Echo

type t = {
  machine : Machine.t;
  sys : System.t;
  spans : Spans.t;
  mutable snap : Machine.snapshot_handle option;
  mutable script : req array;
  mutable on_op : int -> unit;  (** receives each request's host ns *)
  mutable digest : int;
  mutable shared : shared option;
  mutable cmd : cmd;
  mutable t_wake : int;
  (* Counters accumulated only while spans are enabled. *)
  call_instrs : int array;
  calls : int array;
  mutable handoff_ns : int;
  mutable handoffs : int;
  (* Always accumulated. *)
  mutable failed_allocs : int;
}

let kernel t = t.sys.System.kernel
let span t = Spans.with_span t.spans

let mix h v = (h lxor (v land max_int)) * 0x100000001b3 land max_int

let load t cap off = Machine.load t.machine ~auth:cap ~addr:(Cap.address cap + off) ~size:4
let store t cap off v = Machine.store t.machine ~auth:cap ~addr:(Cap.address cap + off) ~size:4 v

let import_cap t ~comp ~slot =
  let l = Loader.find_comp (Kernel.loader (kernel t)) comp in
  Machine.load_cap t.machine ~auth:l.Loader.lc_import_cap
    ~addr:(Loader.import_slot_addr l (Loader.import_slot l slot))

let ok_exn what = function
  | Ok v -> v
  | Error _ -> failwith ("api_mix: " ^ what ^ " failed in the round prologue")

let prologue t ctx =
  let q = import_cap t ~comp:"driver" ~slot:"sealed:mix_quota" in
  let alloc n = ok_exn "allocate" (Allocator.allocate ctx ~alloc_cap:q n) in
  let buf, words, elem, pbuf, key =
    span t "alloc.prologue" (fun () ->
        let buf = alloc mem_buf_bytes in
        let words = alloc 16 in
        let elem = alloc 8 and pbuf = alloc 8 in
        (buf, words, elem, pbuf, ok_exn "token_key_new" (Allocator.token_key_new ctx)))
  in
  let q_req, q_resp =
    span t "sync.create" (fun () ->
        let mk () =
          match Queue_comp.create ctx ~alloc_cap:q ~elem_size:4 ~capacity:2 with
          | Ok h -> h
          | Error _ -> failwith "api_mix: queue create failed in the round prologue"
        in
        let a = mk () in
        (a, mk ()))
  in
  let resp = Cap.exn (Cap.with_address words (Cap.base words + 4)) in
  (q, { buf; words; resp; elem; pbuf; key; q_req; q_resp })

(* Bump the request counter under [cmd] and wake the peer. *)
let signal t ctx s cmd =
  t.cmd <- cmd;
  store t s.words 0 (load t s.words 0 + 1);
  span t "sched.wake" (fun () ->
      ignore (Scheduler.futex_wake ctx ~word:s.words ~count:1))

let rec wait_change t ctx word before =
  if load t word 0 = before then begin
    ignore (Scheduler.futex_wait ctx ~word ~expected:before ());
    wait_change t ctx word before
  end

let exec t ctx q s = function
  | Call (i, a) ->
      let interp = Kernel.interp (kernel t) in
      let i0 = Interp.instret interp in
      let r = span t call_spans.(i) (fun () -> Kernel.call1 ctx ~import:call_imports.(i) [ iv a ]) in
      if t.spans.Spans.on then begin
        t.call_instrs.(i) <- t.call_instrs.(i) + Interp.instret interp - i0;
        t.calls.(i) <- t.calls.(i) + 1
      end;
      (match r with Ok v -> ti v | Error _ -> -1)
  | Lib a ->
      span t "core.lib_call" (fun () ->
          ti (fst (Kernel.lib_call ctx ~import:"lib.id" [ iv a ])))
  | Alloc size ->
      span t (if size > 16384 then "alloc.pair_large" else "alloc.pair_small")
        (fun () ->
          match Allocator.allocate ctx ~alloc_cap:q size with
          | Ok c ->
              store t c 0 size;
              let v = Cap.base c lxor (Cap.length c lsl 20) in
              (match Allocator.free ctx ~alloc_cap:q c with
              | Ok () -> v
              | Error e ->
                  t.failed_allocs <- t.failed_allocs + 1;
                  -1000 - Allocator.err_code e)
          | Error e ->
              t.failed_allocs <- t.failed_allocs + 1;
              -Allocator.err_code e)
  | Sealed size ->
      span t "alloc.sealed" (fun () ->
          match Allocator.allocate_sealed ctx ~alloc_cap:q ~key:s.key size with
          | Error e ->
              t.failed_allocs <- t.failed_allocs + 1;
              -Allocator.err_code e
          | Ok sobj ->
              let v =
                match Allocator.token_unseal ctx ~key:s.key sobj with
                | Ok p -> Cap.length p
                | Error e -> -100 - Allocator.err_code e
              in
              (match Allocator.free_sealed ctx ~alloc_cap:q ~key:s.key sobj with
              | Ok () -> v
              | Error e ->
                  t.failed_allocs <- t.failed_allocs + 1;
                  -1000 - Allocator.err_code e))
  | Handoff ->
      let before = load t s.resp 0 in
      t.t_wake <- Spans.now_ns ();
      signal t ctx s Wake;
      span t "sched.wait" (fun () -> wait_change t ctx s.resp before);
      load t s.resp 0
  | Queue v ->
      store t s.elem 0 v;
      span t "sync.queue_roundtrip" (fun () ->
          signal t ctx s Echo;
          match Queue_comp.send ctx ~handle:s.q_req s.elem () with
          | Error _ -> -1
          | Ok () -> (
              match Queue_comp.recv ctx ~handle:s.q_resp ~into:s.elem () with
              | Error _ -> -2
              | Ok () -> load t s.elem 0))
  | Mem first ->
      let m = t.machine and b = Cap.base s.buf in
      let word i = b + (4 * ((first + i) land ((mem_buf_bytes / 4) - 1))) in
      let slot i = b + (8 * ((first + i) land ((mem_buf_bytes / 8) - 1))) in
      span t "mem.store" (fun () ->
          for i = 0 to mem_burst - 1 do
            Machine.store m ~auth:s.buf ~addr:(word i) ~size:4 (first + i)
          done);
      let sum =
        span t "mem.load" (fun () ->
            let acc = ref 0 in
            for i = 0 to mem_burst - 1 do
              acc := !acc + Machine.load m ~auth:s.buf ~addr:(word (i * 3)) ~size:4
            done;
            !acc)
      in
      span t "mem.store_cap" (fun () ->
          for i = 0 to mem_burst - 1 do
            Machine.store_cap m ~auth:s.buf ~addr:(slot (i * 2)) s.buf
          done);
      let tags =
        span t "mem.load_cap" (fun () ->
            let n = ref 0 in
            for i = 0 to mem_burst - 1 do
              if Cap.tag (Machine.load_cap m ~auth:s.buf ~addr:(slot i)) then incr n
            done;
            !n)
      in
      sum + (tags lsl 32)

let driver t ctx _ =
  let q, s = prologue t ctx in
  t.shared <- Some s;
  Array.iter
    (fun r ->
      let t0 = Spans.now_ns () in
      let v = exec t ctx q s r in
      t.on_op (Spans.now_ns () - t0);
      t.digest <- mix t.digest v)
    t.script;
  signal t ctx s Stop;
  Cap.null

let peer t ctx _ =
  let rec shared () =
    match t.shared with
    | Some s -> s
    | None ->
        Kernel.yield ctx;
        shared ()
  in
  let s = shared () in
  let rec loop seen =
    let r = load t s.words 0 in
    if r = seen then begin
      ignore (Scheduler.futex_wait ctx ~word:s.words ~expected:r ());
      loop seen
    end
    else
      match t.cmd with
      | Stop -> ()
      | Wake ->
          if t.spans.Spans.on then begin
            t.handoff_ns <- t.handoff_ns + (Spans.now_ns () - t.t_wake);
            t.handoffs <- t.handoffs + 1
          end;
          store t s.resp 0 r;
          span t "sched.wake" (fun () ->
              ignore (Scheduler.futex_wake ctx ~word:s.resp ~count:1));
          loop r
      | Echo ->
          span t "sync.peer_echo" (fun () ->
              ignore (Queue_comp.recv ctx ~handle:s.q_req ~into:s.pbuf ());
              store t s.pbuf 0 (load t s.pbuf 0 + 1);
              ignore (Queue_comp.send ctx ~handle:s.q_resp s.pbuf ()));
          loop r
  in
  loop 0;
  Cap.null

let implement t =
  let k = kernel t in
  List.iter
    (fun e ->
      Kernel.implement1 k ~comp:"callee" ~entry:e (fun _ args ->
          span t "app.callee" (fun () -> args.(0))))
    [ "e0"; "e256"; "e1024" ];
  Kernel.implement1 k ~comp:"lib" ~entry:"id" (fun _ args -> args.(0));
  Kernel.implement1 k ~comp:"driver" ~entry:"main" (driver t);
  Kernel.implement1 k ~comp:"peer" ~entry:"main" (peer t)

(* Create the machine, boot the image, implement every entry and take
   the post-boot snapshot each round restores.  [trace] attaches an Obs
   ring before boot (the exact-count pass). *)
let create ?trace spans =
  let machine = Machine.create () in
  Option.iter (fun o -> Machine.set_trace machine (Some o)) trace;
  let sys =
    Spans.with_span spans "loader.boot" (fun () ->
        match System.boot ~machine (firmware ()) with
        | Ok sys -> sys
        | Error e -> failwith ("api_mix: boot failed: " ^ e))
  in
  let t =
    {
      machine;
      sys;
      spans;
      snap = None;
      script = [||];
      on_op = ignore;
      digest = 0;
      shared = None;
      cmd = Stop;
      t_wake = 0;
      call_instrs = Array.make 3 0;
      calls = Array.make 3 0;
      handoff_ns = 0;
      handoffs = 0;
      failed_allocs = 0;
    }
  in
  implement t;
  t.snap <- Some (Machine.snapshot machine);
  t

type round = {
  r_cycles : int;  (** simulated cycles at the end of the round *)
  r_digest : int;  (** digest of every request's return value *)
  r_instret : int;  (** interpreted instructions in the round *)
  r_switches : int;  (** kernel context switches in the round *)
  r_sweeps : int;  (** revoker sweeps completed in the round *)
}

let run_round t script =
  let m = t.machine and k = kernel t in
  span t "machine.restore" (fun () -> Machine.restore m (Option.get t.snap));
  t.script <- script;
  t.digest <- 0;
  t.shared <- None;
  t.cmd <- Stop;
  let i0 = Interp.instret (Kernel.interp k)
  and s0 = Kernel.context_switches k
  and e0 = Machine.revoker_epoch m in
  span t "core.run" (fun () -> System.run ~until_cycles:2_000_000_000 t.sys);
  {
    r_cycles = Machine.cycles m;
    r_digest = t.digest;
    r_instret = Interp.instret (Kernel.interp k) - i0;
    r_switches = Kernel.context_switches k - s0;
    r_sweeps = Machine.revoker_epoch m - e0;
  }
