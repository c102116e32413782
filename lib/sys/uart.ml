module Cap = Capability

let device_name = "uart0"
let lib_name = "debug"

(* Import names, built once: the kernel memoises import slots by the
   name string's identity. *)
let log_import = lib_name ^ ".log"
let log_int_import = lib_name ^ ".log_int"

let attach machine =
  let transcript = Buffer.create 256 in
  let read ~addr ~size =
    ignore size;
    if addr = 4 then 1 (* status: always ready *) else 0
  in
  let write ~addr ~size v =
    ignore size;
    if addr = 0 then Buffer.add_char transcript (Char.chr (v land 0xff))
  in
  Machine.add_device machine ~base:0x1200_0000 ~size:16
    { Machine.Device.name = device_name; read; write };
  fun () -> Buffer.contents transcript

let firmware_library () =
  Firmware.compartment lib_name ~kind:Firmware.Library ~code_loc:90
    ~entries:
      [
        Firmware.entry "log" ~arity:2 ~min_stack:0;
        Firmware.entry "log_int" ~arity:1 ~min_stack:0;
      ]
    ~imports:[ Firmware.Mmio { device = device_name } ]

let client_imports = Firmware.client_imports (firmware_library ())

(* The library reads the UART capability from its own import table:
   device access is the library's grant, not the caller's. *)
let uart_cap kernel = Kernel.import_cap kernel ~comp:lib_name ("mmio:" ^ device_name)

let install kernel =
  let machine = Kernel.machine kernel in
  let put uart c =
    Machine.store machine ~auth:uart ~addr:(Cap.base uart) ~size:1 (Char.code c)
  in
  Kernel.implement1 kernel ~comp:lib_name ~entry:"log" (fun ctx args ->
      let len = Interp.to_int args.(1) in
      let uart = uart_cap ctx.Kernel.kernel in
      if len > 0 && len <= 512 then begin
        let s = Membuf.to_string machine ~auth:args.(0) ~len in
        String.iter (put uart) s
      end;
      Interp.int_value 0);
  Kernel.implement1 kernel ~comp:lib_name ~entry:"log_int" (fun ctx args ->
      let uart = uart_cap ctx.Kernel.kernel in
      String.iter (put uart) (string_of_int (Interp.to_int args.(0)));
      Interp.int_value 0)

let log ctx s =
  let machine = Kernel.machine ctx.Kernel.kernel in
  let ctx', buf = Kernel.stack_alloc ctx (String.length s + 8) in
  Membuf.of_string machine ~auth:buf s;
  ignore
    (Kernel.lib_call ctx' ~import:log_import
       [ buf; Interp.int_value (String.length s) ]);
  ctx'

let log_int ctx v =
  ignore (Kernel.lib_call ctx ~import:log_int_import [ Interp.int_value v ])
