module Cap = Capability

type comp_layout = {
  lc_name : string;
  lc_kind : Firmware.kind;
  lc_id : int;
  lc_code_base : int;
  lc_code_size : int;
  lc_export_base : int;
  lc_export_size : int;
  lc_import_base : int;
  lc_import_size : int;
  lc_globals_base : int;
  lc_globals_size : int;
  lc_pcc : Cap.t;
  lc_cgp : Cap.t;
  lc_import_cap : Cap.t;
  lc_entries : Firmware.entry array;
  lc_imports : (string * Firmware.import) array;
  lc_import_slots : (string, int) Hashtbl.t Lazy.t;
}

type thread_layout = {
  lt_name : string;
  lt_id : int;
  lt_priority : int;
  lt_comp : string;
  lt_entry : string;
  lt_entry_cap : Cap.t;
  lt_stack : Cap.t;
  lt_stack_base : int;
  lt_stack_size : int;
  lt_tstack : Cap.t;
  lt_tstack_base : int;
  lt_tstack_size : int;
}

type sealed_layout = {
  ls_name : string;
  ls_addr : int;
  ls_size : int;
  ls_virtual_type : int;
}

type t = {
  fw : Firmware.t;
  machine : Machine.t;
  comps : comp_layout list;
  threads : thread_layout list;
  sealed : sealed_layout list;
  virtual_types : (string * int) list;
  heap_base : int;
  heap_limit : int;
  loader_base : int;
  loader_size : int;
}

let first_virtual_type = 16
let align8 n = (n + 7) / 8 * 8
let align16 n = (n + 15) / 16 * 16

(* Import tables are readable (not writable) by their compartment, and
   must not attenuate what is loaded through them. *)
let import_read_perms =
  Perm.Set.of_list [ Perm.Load; Perm.Mem_cap; Perm.Load_global; Perm.Load_mutable ]

let trusted_stack_perms =
  Perm.Set.of_list
    [ Perm.Global; Perm.Load; Perm.Store; Perm.Mem_cap; Perm.Load_global;
      Perm.Load_mutable; Perm.Store_local ]

let posture_code = function
  | Firmware.Interrupts_enabled -> 0
  | Firmware.Interrupts_disabled -> 1

let find_comp t name = List.find (fun c -> c.lc_name = name) t.comps
let find_thread t name = List.find (fun th -> th.lt_name = name) t.threads

let entry_index (l : comp_layout) name =
  Array.find_index (fun (e : Firmware.entry) -> e.entry_name = name) l.lc_entries

let import_slot c name = Hashtbl.find (Lazy.force c.lc_import_slots) name

(* Display name -> slot index; where two slots share a name the first
   one answers, as a scan in slot order would.  Built on a compartment's
   first lookup: a boot builds none, and only compartments whose imports
   are looked up by name (every compartment-call caller) pay for one. *)
let import_slot_table imports =
  let tbl = Hashtbl.create (Array.length imports) in
  for i = Array.length imports - 1 downto 0 do
    Hashtbl.replace tbl (fst imports.(i)) i
  done;
  tbl

let import_slot_addr c slot = c.lc_import_base + (8 * slot)

(* Bytes of SRAM the loader occupies until it erases itself; they then
   join the heap. *)
let loader_size = 7680

let load fw machine interp =
  let ( let* ) = Result.bind in
  let* () = Firmware.validate fw in
  (* Install the switcher and its unsealing key. *)
  Switcher.install interp;
  let switcher_key =
    Cap.make_sealing_root ~first:Abi.otype_switcher ~last:Abi.otype_switcher
  in
  Interp.set_special interp Isa.mscratchc switcher_key;
  let mem = Machine.mem machine in
  let sram_base = Machine.sram_base machine in
  let sram_end = sram_base + Machine.sram_size machine in
  let root = Cap.make_root ~base:sram_base ~top:sram_end ~perms:Perm.Set.universe in
  let carve ~addr ~len ~perms =
    Cap.exn
      (Cap.and_perms (Cap.exn (Cap.set_bounds (Cap.with_address_exn root addr) ~length:len)) perms)
  in
  (* Assign flash code regions. *)
  let code_cursor = ref Abi.flash_base in
  let code_regions = Hashtbl.create 16 in
  List.iter
    (fun (c : Firmware.compartment) ->
      let size =
        max (Firmware.code_bytes c) (max 16 (4 * List.length c.entries))
      in
      let size = align16 size in
      Hashtbl.add code_regions c.Firmware.comp_name (!code_cursor, size);
      code_cursor := !code_cursor + size)
    fw.Firmware.compartments;
  (* Virtual sealing types: one id per distinct name, in declaration order. *)
  let virtual_types = ref [] in
  let vt_id name =
    match List.assoc_opt name !virtual_types with
    | Some id -> id
    | None ->
        let id = first_virtual_type + List.length !virtual_types in
        virtual_types := !virtual_types @ [ (name, id) ];
        id
  in
  List.iter (fun (s : Firmware.static_sealed) -> ignore (vt_id s.sealed_as)) fw.sealed_objects;
  (* SRAM layout. *)
  let cursor = ref sram_base in
  let alloc len =
    let a = !cursor in
    cursor := align8 (!cursor + len);
    a
  in
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (c : Firmware.compartment) ->
      if c.globals_size > 0 then Hashtbl.add globals c.comp_name (alloc c.globals_size))
    fw.compartments;
  let exports = Hashtbl.create 16 in
  List.iter
    (fun (c : Firmware.compartment) ->
      if c.kind = Firmware.Compartment then
        Hashtbl.add exports c.comp_name
          (alloc (Abi.export_table_size ~entries:(List.length c.entries))))
    fw.compartments;
  let imports = Hashtbl.create 16 in
  List.iter
    (fun (c : Firmware.compartment) ->
      Hashtbl.add imports c.comp_name (alloc (8 * (1 + List.length c.imports))))
    fw.compartments;
  let sealed =
    List.map
      (fun (s : Firmware.static_sealed) ->
        let size = 8 + align8 (4 * List.length s.payload) in
        let addr = alloc size in
        { ls_name = s.sobj_name; ls_addr = addr; ls_size = size;
          ls_virtual_type = vt_id s.sealed_as })
      fw.sealed_objects
  in
  let thread_regions =
    List.map
      (fun (th : Firmware.thread) ->
        let ssize = align16 th.stack_size in
        let sbase = alloc ssize in
        let tsize = align8 (Abi.ts_size ~frames:th.trusted_stack_frames) in
        let tbase = alloc tsize in
        (th, sbase, ssize, tbase, tsize))
      fw.threads
  in
  let loader_base = align8 !cursor in
  let heap_limit = sram_end in
  if loader_base + loader_size > sram_end then
    Error
      (Printf.sprintf "image does not fit in SRAM: need %d bytes, have %d"
         (loader_base + loader_size - sram_base)
         (sram_end - sram_base))
  else begin
    (* Resolve devices early so failures are reported before writes. *)
    let device_error = ref None in
    let mmio_cap device =
      match Machine.find_device machine device with
      | Some (base, size) ->
          Cap.make_root ~base ~top:(base + size)
            ~perms:(Perm.Set.of_list [ Perm.Global; Perm.Load; Perm.Store ])
      | None ->
          device_error := Some (Printf.sprintf "unknown MMIO device %s" device);
          Cap.null
    in
    (* Build per-compartment layouts (two passes: code regions known). *)
    let comp_layouts =
      List.mapi
        (fun id (c : Firmware.compartment) ->
          let code_base, code_size = Hashtbl.find code_regions c.comp_name in
          let globals_base = Option.value ~default:0 (Hashtbl.find_opt globals c.comp_name) in
          let export_base = Option.value ~default:0 (Hashtbl.find_opt exports c.comp_name) in
          let export_size =
            if c.kind = Firmware.Compartment then
              Abi.export_table_size ~entries:(List.length c.entries)
            else 0
          in
          let import_base = Hashtbl.find imports c.comp_name in
          let import_size = 8 * (1 + List.length c.imports) in
          let pcc =
            Cap.make_root ~base:code_base ~top:(code_base + code_size)
              ~perms:Perm.Set.executable
          in
          let cgp =
            if c.globals_size > 0 then
              carve ~addr:globals_base ~len:c.globals_size ~perms:Perm.Set.read_write
            else Cap.null
          in
          let import_cap =
            carve ~addr:import_base ~len:import_size ~perms:import_read_perms
          in
          let imports_named =
            Array.of_list
              (("switcher.compartment_call", Firmware.Lib_call { lib = "switcher"; entry = "compartment_call" })
              :: List.map (fun i -> (Firmware.import_name i, i)) c.imports)
          in
          {
            lc_name = c.comp_name;
            lc_kind = c.kind;
            lc_id = id;
            lc_code_base = code_base;
            lc_code_size = code_size;
            lc_export_base = export_base;
            lc_export_size = export_size;
            lc_import_base = import_base;
            lc_import_size = import_size;
            lc_globals_base = globals_base;
            lc_globals_size = c.globals_size;
            lc_pcc = pcc;
            lc_cgp = cgp;
            lc_import_cap = import_cap;
            lc_entries = Array.of_list c.entries;
            lc_imports = imports_named;
            lc_import_slots = lazy (import_slot_table imports_named);
          })
        fw.compartments
    in
    let layout_of name = List.find (fun l -> l.lc_name = name) comp_layouts in
    (* Populate export tables. *)
    List.iter
      (fun l ->
        if l.lc_kind = Firmware.Compartment then begin
          let fw_comp = Option.get (Firmware.find_compartment fw l.lc_name) in
          Memory.store_cap_priv mem ~addr:(l.lc_export_base + Abi.export_code_cap) l.lc_pcc;
          Memory.store_cap_priv mem ~addr:(l.lc_export_base + Abi.export_globals_cap) l.lc_cgp;
          Memory.store_priv mem ~addr:(l.lc_export_base + Abi.export_error_handler) ~size:4
            (if fw_comp.Firmware.has_error_handler then 1 else 0);
          Memory.store_priv mem ~addr:(l.lc_export_base + Abi.export_flags) ~size:4 0;
          Memory.store_priv mem ~addr:(l.lc_export_base + Abi.export_comp_id) ~size:4 l.lc_id;
          Array.iteri
            (fun i (e : Firmware.entry) ->
              let a = Abi.export_entry_addr ~table_base:l.lc_export_base ~index:i in
              Memory.store_priv mem ~addr:(a + Abi.entry_code_offset) ~size:4 (4 * i);
              Memory.store_priv mem ~addr:(a + Abi.entry_min_stack) ~size:4
                (align16 e.min_stack);
              Memory.store_priv mem ~addr:(a + Abi.entry_arity) ~size:4 e.arity;
              Memory.store_priv mem ~addr:(a + Abi.entry_posture) ~size:4
                (posture_code e.posture))
            l.lc_entries
        end)
      comp_layouts;
    (* Sealed capability to a compartment's export entry: what an
       import-table [Call] slot holds and what a thread starts through. *)
    let sealed_export_cap comp entry =
      let l = layout_of comp in
      let idx = Option.get (entry_index l entry) in
      let c =
        carve ~addr:l.lc_export_base ~len:l.lc_export_size ~perms:import_read_perms
      in
      let c =
        Cap.with_address_exn c (Abi.export_entry_addr ~table_base:l.lc_export_base ~index:idx)
      in
      Cap.exn (Cap.seal ~key:switcher_key c)
    in
    let lib_sentry lib entry =
      let l = layout_of lib in
      let idx = Option.get (entry_index l entry) in
      Cap.exn
        (Cap.seal_entry
           (Cap.with_address_exn l.lc_pcc (l.lc_code_base + (4 * idx)))
           Cap.Otype.Call_inherit)
    in
    let token_hw_key =
      Cap.make_sealing_root ~first:Abi.otype_token ~last:Abi.otype_token
    in
    let sealed_obj_cap name =
      let s = List.find (fun s -> s.ls_name = name) sealed in
      let c = carve ~addr:s.ls_addr ~len:s.ls_size ~perms:Perm.Set.read_write in
      Cap.exn (Cap.seal ~key:token_hw_key c)
    in
    let virtual_key name =
      let id = vt_id name in
      Cap.make_root ~base:id ~top:(id + 1) ~perms:Perm.Set.sealing
    in
    (* Populate sealed objects: header word 0 = virtual type, word 1 =
       payload size; then payload. *)
    List.iter2
      (fun (s : Firmware.static_sealed) lay ->
        Memory.store_priv mem ~addr:lay.ls_addr ~size:4 lay.ls_virtual_type;
        Memory.store_priv mem ~addr:(lay.ls_addr + 4) ~size:4 (lay.ls_size - 8);
        List.iteri
          (fun i w -> Memory.store_priv mem ~addr:(lay.ls_addr + 8 + (4 * i)) ~size:4 w)
          s.payload)
      fw.sealed_objects sealed;
    (* Populate import tables. *)
    List.iter
      (fun l ->
        Memory.store_cap_priv mem ~addr:(import_slot_addr l 0) Switcher.call_sentry;
        Array.iteri
          (fun i (_, imp) ->
            if i > 0 then begin
              let cap =
                match imp with
                | Firmware.Call { comp; entry } -> sealed_export_cap comp entry
                | Firmware.Lib_call { lib; entry } -> lib_sentry lib entry
                | Firmware.Mmio { device } -> mmio_cap device
                | Firmware.Static_sealed { target } -> sealed_obj_cap target
                | Firmware.Unseal_key { sealed_as } -> virtual_key sealed_as
              in
              Memory.store_cap_priv mem ~addr:(import_slot_addr l i) cap
            end)
          l.lc_imports)
      comp_layouts;
    (* Threads: stacks and trusted stacks. *)
    let threads =
      List.mapi
        (fun id ((th : Firmware.thread), sbase, ssize, tbase, tsize) ->
          let stack =
            Cap.with_address_exn
              (carve ~addr:sbase ~len:ssize ~perms:Perm.Set.stack)
              (sbase + ssize)
          in
          let tstack = carve ~addr:tbase ~len:tsize ~perms:trusted_stack_perms in
          Memory.store_priv mem ~addr:(tbase + Abi.ts_tsp) ~size:4 Abi.ts_frames;
          Memory.store_priv mem ~addr:(tbase + Abi.ts_thread_id) ~size:4 id;
          {
            lt_name = th.thread_name;
            lt_id = id;
            lt_priority = th.priority;
            lt_comp = th.entry_comp;
            lt_entry = th.entry_point;
            lt_entry_cap = sealed_export_cap th.entry_comp th.entry_point;
            lt_stack = stack;
            lt_stack_base = sbase;
            lt_stack_size = ssize;
            lt_tstack = tstack;
            lt_tstack_base = tbase;
            lt_tstack_size = tsize;
          })
        thread_regions
    in
    match !device_error with
    | Some e -> Error e
    | None ->
        Ok
          {
            fw;
            machine;
            comps = comp_layouts;
            threads;
            sealed;
            virtual_types = !virtual_types;
            heap_base = loader_base;
            heap_limit;
            loader_base;
            loader_size;
          }
  end

let erase_loader t =
  Memory.zero_priv (Machine.mem t.machine) ~addr:t.loader_base ~len:t.loader_size

type stats = {
  code_total : int;
  globals_total : int;
  tables_total : int;
  stacks_total : int;
  trusted_stacks_total : int;
  per_comp : (string * int * int) list;
}

let stats t =
  let per_comp =
    List.map
      (fun l ->
        ( l.lc_name,
          l.lc_code_size,
          l.lc_globals_size + l.lc_export_size + l.lc_import_size ))
      t.comps
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 in
  {
    code_total = sum (fun l -> l.lc_code_size) t.comps;
    globals_total = sum (fun l -> l.lc_globals_size) t.comps;
    tables_total =
      sum (fun l -> l.lc_export_size + l.lc_import_size) t.comps
      + sum (fun s -> s.ls_size) t.sealed;
    stacks_total = sum (fun th -> th.lt_stack_size) t.threads;
    trusted_stacks_total = sum (fun th -> th.lt_tstack_size) t.threads;
    per_comp;
  }
