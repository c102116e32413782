(** The loader (§3.1.1): the only fully-trusted component, running at
    boot with the omnipotent root capabilities.

    Its single input is the firmware image description.  It lays out
    SRAM (globals, export/import tables, static sealed objects, stacks,
    trusted stacks, heap), derives every initial capability from the
    root, populates the tables, installs the switcher's unsealing key in
    MSCRATCHC — and then erases itself, returning its own memory to the
    shared heap.  It is the only place that seals export capabilities:
    import-table [Call] slots and each thread's {!thread_layout.lt_entry_cap}
    come from the same derivation, and the sealing key stays in
    MSCRATCHC, out of every other component's reach. *)

type comp_layout = {
  lc_name : string;
  lc_kind : Firmware.kind;
  lc_id : int;
  lc_code_base : int;  (** flash address of the code region *)
  lc_code_size : int;
  lc_export_base : int;  (** 0 for libraries (no security context) *)
  lc_export_size : int;
  lc_import_base : int;
  lc_import_size : int;
  lc_globals_base : int;
  lc_globals_size : int;
  lc_pcc : Capability.t;  (** executable capability over the code region *)
  lc_cgp : Capability.t;  (** read-write capability over the globals *)
  lc_import_cap : Capability.t;  (** read-only view of the import table *)
  lc_entries : Firmware.entry array;
  lc_imports : (string * Firmware.import) array;
      (** import-slot display name and declaration, in slot order;
          slot 0 is always the switcher call sentry *)
  lc_import_slots : (string, int) Hashtbl.t Lazy.t;
      (** display name -> slot index of [lc_imports] (the first slot
          wins a shared name), built on the compartment's first
          {!import_slot} *)
}

type thread_layout = {
  lt_name : string;
  lt_id : int;
  lt_priority : int;
  lt_comp : string;
  lt_entry : string;
  lt_entry_cap : Capability.t;
      (** sealed export capability for [lt_comp.lt_entry], the same one an
          import-table [Call] slot for that entry holds *)
  lt_stack : Capability.t;  (** non-global stack capability, cursor at top *)
  lt_stack_base : int;
  lt_stack_size : int;
  lt_tstack : Capability.t;  (** trusted-stack capability (switcher only) *)
  lt_tstack_base : int;
  lt_tstack_size : int;
}

type sealed_layout = {
  ls_name : string;
  ls_addr : int;  (** header address *)
  ls_size : int;  (** header + payload bytes *)
  ls_virtual_type : int;
}

type t = {
  fw : Firmware.t;
  machine : Machine.t;
  comps : comp_layout list;
  threads : thread_layout list;
  sealed : sealed_layout list;
  virtual_types : (string * int) list;
      (** static virtual sealing types (token API ids, from 16) *)
  heap_base : int;  (** heap start after the loader erases itself *)
  heap_limit : int;
  loader_base : int;
  loader_size : int;
}

val load : Firmware.t -> Machine.t -> Interp.t -> (t, string) result
(** Validate the image, install the switcher segment, lay out SRAM and
    populate every table.  Fails if the image is invalid, references an
    unknown MMIO device, or does not fit in SRAM. *)

val erase_loader : t -> unit
(** Zero the loader's region (it becomes heap); after this, nothing of
    the boot state remains in SRAM (§3.1.1). *)

val find_comp : t -> string -> comp_layout
(** Raises [Not_found]. *)

val find_thread : t -> string -> thread_layout

val entry_index : comp_layout -> string -> int option
(** Index of an entry by name in [lc_entries]: its export-table slot and
    code offset.  Resolved once, at link time; the kernel binds
    implementations by this index. *)

val import_slot : comp_layout -> string -> int
(** Slot index of an import by display name ({!Firmware.import_name}),
    the first such slot in slot order, from the compartment's name table
    ([lc_import_slots]); raises [Not_found]. *)

val import_slot_addr : comp_layout -> int -> int

val first_virtual_type : int
(** Static virtual sealing types are numbered from here (lower values
    are hardware otypes). *)

(** Sizes for the Table 2 reproduction. *)
type stats = {
  code_total : int;
  globals_total : int;
  tables_total : int;  (** export + import tables + sealed objects *)
  stacks_total : int;
  trusted_stacks_total : int;
  per_comp : (string * int * int) list;  (** name, code bytes, data bytes *)
}

val stats : t -> stats
