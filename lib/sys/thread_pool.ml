module Cap = Capability

let comp_name = "pool"

(* Import names, built once: the kernel memoises import slots by the
   name string's identity. *)
let post_import = comp_name ^ ".post"
let shutdown_import = comp_name ^ ".pool_shutdown"

let firmware_compartment () =
  Firmware.compartment comp_name ~code_loc:140 ~globals_size:8
    ~entries:
      [
        Firmware.entry "post" ~arity:2 ~min_stack:256;
        Firmware.entry "worker" ~arity:0 ~min_stack:1024;
        Firmware.entry "pool_shutdown" ~arity:0 ~min_stack:64;
      ]
    ~imports:Scheduler.client_imports

let worker_thread ~name () =
  Firmware.thread ~name ~comp:comp_name ~entry:"worker" ~priority:1 ~stack_size:2048 ()

let client_imports =
  [
    Firmware.Call { comp = comp_name; entry = "post" };
    Firmware.Call { comp = comp_name; entry = "pool_shutdown" };
  ]

type t = {
  machine : Machine.t;
  cgp : Cap.t;
  word_addr : int;
  mutable jobs : (int * int) list;  (** pending (job, arg), oldest first *)
  handlers : (int, Kernel.ctx -> int -> unit) Hashtbl.t;
  mutable running : bool;
  mutable done_count : int;
}

let word t =
  Cap.exn (Cap.set_bounds (Cap.exn (Cap.with_address t.cgp t.word_addr)) ~length:4)

let bump_and_wake t ctx =
  let w = word t in
  let v = Machine.load t.machine ~auth:w ~addr:t.word_addr ~size:4 in
  Machine.store t.machine ~auth:w ~addr:t.word_addr ~size:4 ((v + 1) land 0xffffff);
  ignore (Scheduler.futex_wake ctx ~word:w ~count:max_int)

let register t ~job f = Hashtbl.replace t.handlers job f
let completed t = t.done_count

(* Pending jobs beyond this are refused. *)
let queue_depth = 16

let install kernel =
  let layout = Loader.find_comp (Kernel.loader kernel) comp_name in
  let t =
    {
      machine = Kernel.machine kernel;
      cgp = layout.Loader.lc_cgp;
      word_addr = layout.Loader.lc_globals_base;
      jobs = [];
      handlers = Hashtbl.create 8;
      running = true;
      done_count = 0;
    }
  in
  let iv = Interp.int_value and ti = Interp.to_int in
  Kernel.implement1 kernel ~comp:comp_name ~entry:"post" (fun ctx args ->
      let job = ti args.(0) and arg = ti args.(1) in
      if (not t.running) || List.length t.jobs >= queue_depth
         || not (Hashtbl.mem t.handlers job)
      then iv (-1)
      else begin
        t.jobs <- t.jobs @ [ (job, arg) ];
        bump_and_wake t ctx;
        iv 0
      end);
  Kernel.implement1 kernel ~comp:comp_name ~entry:"pool_shutdown" (fun ctx _ ->
      t.running <- false;
      bump_and_wake t ctx;
      iv 0);
  Kernel.implement1 kernel ~comp:comp_name ~entry:"worker" (fun ctx _ ->
      let rec loop () =
        match t.jobs with
        | (job, arg) :: rest ->
            t.jobs <- rest;
            (match Hashtbl.find_opt t.handlers job with
            | Some f -> ( try f ctx arg with Memory.Fault _ | Cap.Derivation _ -> ())
            | None -> ());
            t.done_count <- t.done_count + 1;
            loop ()
        | [] ->
            if t.running then begin
              let w = word t in
              let v = Machine.load t.machine ~auth:w ~addr:t.word_addr ~size:4 in
              if t.jobs = [] && t.running then
                ignore (Scheduler.futex_wait ctx ~word:w ~expected:v ~timeout:2_000_000 ());
              loop ()
            end
      in
      loop ();
      Cap.null);
  t

let post ctx ~job ~arg =
  match
    Kernel.call1 ctx ~import:post_import
      [ Interp.int_value job; Interp.int_value arg ]
  with
  | Ok v -> Interp.to_int v = 0
  | Error _ -> false

let shutdown ctx =
  ignore (Kernel.call1 ctx ~import:shutdown_import [])
