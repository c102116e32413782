module Cap = Capability

type t = { mutable key : Kernel.value }

let create machine =
  let t = { key = Cap.null } in
  Machine.on_snapshot machine (fun () ->
      let key = t.key in
      fun () -> t.key <- key);
  t

let key t ctx =
  if not (Cap.tag t.key) then begin
    match Allocator.token_key_new ctx with
    | Ok k -> t.key <- k
    | Error _ -> ()
  end;
  t.key

let allocate t ctx ~alloc_cap size =
  Allocator.allocate_sealed ctx ~alloc_cap ~key:(key t ctx) size

let unseal t ctx handle =
  Result.to_option (Allocator.token_unseal ctx ~key:(key t ctx) handle)

let release t ctx ~alloc_cap handle =
  Allocator.free_sealed ctx ~alloc_cap ~key:(key t ctx) handle

(* The id handle: an 8-byte sealed object whose first word is the id. *)

let id_bytes = 8

let mint t ctx ~alloc_cap id =
  match allocate t ctx ~alloc_cap id_bytes with
  | Error _ -> None
  | Ok handle ->
      Option.map
        (fun payload ->
          Machine.store (Kernel.machine ctx.Kernel.kernel) ~auth:payload
            ~addr:(Cap.base payload) ~size:4 id;
          handle)
        (unseal t ctx handle)

let open_ t ctx handle =
  Option.map
    (fun payload ->
      Machine.load (Kernel.machine ctx.Kernel.kernel) ~auth:payload
        ~addr:(Cap.base payload) ~size:4)
    (unseal t ctx handle)
