module Cap = Capability

let comp_name = "queue"

type err = Bad_handle | Bad_buffer | Timeout | Alloc of Allocator.err

let pp_err ppf = function
  | Bad_handle -> Fmt.string ppf "bad queue handle"
  | Bad_buffer -> Fmt.string ppf "bad element buffer"
  | Timeout -> Fmt.string ppf "timeout"
  | Alloc e -> Allocator.pp_err ppf e

let err_code = function
  | Bad_handle -> -20
  | Bad_buffer -> -21
  | Timeout -> -22
  | Alloc e -> Allocator.err_code e

let err_of_code n =
  match n with
  | -20 -> Some Bad_handle
  | -21 -> Some Bad_buffer
  | -22 -> Some Timeout
  | _ -> Option.map (fun e -> Alloc e) (Allocator.err_of_code n)

let firmware_compartment () =
  Firmware.compartment comp_name ~code_loc:210 ~globals_size:16
    ~entries:
      [
        Firmware.entry "create" ~arity:3 ~min_stack:256;
        Firmware.entry "send" ~arity:3 ~min_stack:256;
        Firmware.entry "recv" ~arity:3 ~min_stack:256;
        Firmware.entry "destroy" ~arity:2 ~min_stack:256;
        Firmware.entry "qlength" ~arity:1 ~min_stack:128;
      ]
    ~imports:(Allocator.client_imports @ Scheduler.client_imports)

let client_imports = Firmware.client_imports (firmware_compartment ())

(* A queue handle is a sealed object under the compartment's own key
   (one per install, so concurrently live kernels each mint their own)
   whose payload is the queue itself. *)
let open_handle keys ctx handle =
  Option.to_result ~none:Bad_handle (Sealed_handle.unseal keys ctx handle)

let do_create keys ctx alloc_cap elem_size capacity =
  if elem_size <= 0 || capacity <= 0 || elem_size * capacity > 65536 then
    Error Bad_buffer
  else
    let size = Sync.Queue_lib.bytes_needed ~elem_size ~capacity in
    match Sealed_handle.allocate keys ctx ~alloc_cap size with
    | Error e -> Error (Alloc e)
    | Ok handle -> (
        match open_handle keys ctx handle with
        | Error e -> Error e
        | Ok payload ->
            Sync.Queue_lib.init ctx ~buf:payload ~elem_size ~capacity;
            Ok handle)

let do_send keys ctx handle elem timeout =
  match open_handle keys ctx handle with
  | Error e -> Error e
  | Ok buf ->
      let elem_size =
        Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:buf
          ~addr:(Cap.base buf + 4) ~size:4
      in
      if
        not
          (Hardening.check_pointer ctx
             ~perms:(Perm.Set.of_list [ Perm.Load ])
             ~min_length:elem_size elem)
      then Error Bad_buffer
      else begin
        (* Pin the element against a concurrent free during the copy. *)
        Hardening.claim_arg ctx elem;
        if Sync.Queue_lib.send ctx ~buf elem ~timeout () then Ok ()
        else Error Timeout
      end

let do_recv keys ctx handle into timeout =
  match open_handle keys ctx handle with
  | Error e -> Error e
  | Ok buf ->
      let elem_size =
        Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:buf
          ~addr:(Cap.base buf + 4) ~size:4
      in
      if
        not
          (Hardening.check_pointer ctx
             ~perms:(Perm.Set.of_list [ Perm.Store ])
             ~min_length:elem_size into)
      then Error Bad_buffer
      else begin
        Hardening.claim_arg ctx into;
        if Sync.Queue_lib.recv ctx ~buf ~into ~timeout () then Ok ()
        else Error Timeout
      end

let do_destroy keys ctx alloc_cap handle =
  Result.map_error (fun e -> Alloc e) (Sealed_handle.release keys ctx ~alloc_cap handle)

let encode = function
  | Ok v -> (v, Cap.null)
  | Error e -> (Interp.int_value (err_code e), Cap.null)

let encode_unit = function
  | Ok () -> (Interp.int_value 0, Cap.null)
  | Error e -> (Interp.int_value (err_code e), Cap.null)

let install kernel =
  let keys = Sealed_handle.create (Kernel.machine kernel) in
  let ti = Interp.to_int in
  Kernel.implement kernel ~comp:comp_name ~entry:"create" (fun ctx args ->
      encode (do_create keys ctx args.(0) (ti args.(1)) (ti args.(2))));
  Kernel.implement kernel ~comp:comp_name ~entry:"send" (fun ctx args ->
      encode_unit (do_send keys ctx args.(0) args.(1) (ti args.(2))));
  Kernel.implement kernel ~comp:comp_name ~entry:"recv" (fun ctx args ->
      encode_unit (do_recv keys ctx args.(0) args.(1) (ti args.(2))));
  Kernel.implement kernel ~comp:comp_name ~entry:"destroy" (fun ctx args ->
      encode_unit (do_destroy keys ctx args.(0) args.(1)));
  Kernel.implement1 kernel ~comp:comp_name ~entry:"qlength" (fun ctx args ->
      match open_handle keys ctx args.(0) with
      | Ok buf -> Interp.int_value (Sync.Queue_lib.length ctx ~buf)
      | Error e -> Interp.int_value (err_code e))

(* Client wrappers *)

let decode_unit v =
  if Cap.tag v then Ok ()
  else
    let n = Interp.to_int v in
    if n = 0 then Ok ()
    else match err_of_code n with Some e -> Error e | None -> Ok ()

let create ctx ~alloc_cap ~elem_size ~capacity =
  match
    Kernel.call1 ctx ~import:"queue.create"
      [ alloc_cap; Interp.int_value elem_size; Interp.int_value capacity ]
  with
  | Ok v when Cap.tag v -> Ok v
  | Ok v -> (
      match err_of_code (Interp.to_int v) with
      | Some e -> Error e
      | None -> Error Bad_handle)
  | Error _ -> Error Bad_handle

let send ctx ~handle elem ?(timeout = 0) () =
  match
    Kernel.call1 ctx ~import:"queue.send" [ handle; elem; Interp.int_value timeout ]
  with
  | Ok v -> decode_unit v
  | Error _ -> Error Bad_handle

let recv ctx ~handle ~into ?(timeout = 0) () =
  match
    Kernel.call1 ctx ~import:"queue.recv" [ handle; into; Interp.int_value timeout ]
  with
  | Ok v -> decode_unit v
  | Error _ -> Error Bad_handle
