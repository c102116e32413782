(** Binary interface shared by the loader, the switcher and the kernel:
    export-table layout, trusted-stack layout, reserved object types and
    well-known address-space regions. *)

(* Export table (per compartment, in SRAM; §3.1.1).  The header holds the
   compartment's code and globals capabilities plus error-handling
   metadata; entries follow. *)

val export_code_cap : int  (** +0: code capability *)
val export_globals_cap : int  (** +8: globals capability *)
val export_error_handler : int  (** +16: error-handler entry index, -1 if none *)
val export_flags : int  (** +20 *)
val export_comp_id : int  (** +24 *)

val entry_code_offset : int  (** +0: byte offset of the entry in the code *)
val entry_min_stack : int  (** +4 *)
val entry_arity : int  (** +8 *)
val entry_posture : int  (** +12: 0 = enabled, 1 = disabled *)

val export_entry_addr : table_base:int -> index:int -> int
val export_table_size : entries:int -> int

(* Trusted stack (per thread; §3.1.2): header, register save area, then
   call frames. *)

val ts_tsp : int  (** +0: byte offset of the next free frame slot *)
val ts_thread_id : int  (** +4 *)
val ts_frames : int  (** +144: frame area *)
val ts_size : frames:int -> int

val frame_size : int  (** 32 bytes *)
val frame_caller_csp : int  (** +0 (capability) *)
val frame_caller_ra : int  (** +8 (capability) *)
val frame_caller_cgp : int  (** +16 (capability) *)
val frame_min_stack : int  (** +24 (word) *)
val frame_entry_addr : int  (** +28 (word) *)

(* Reserved hardware sealing types.  Seven data otypes exist
   ([Capability.Otype.data_first..data_last]); the RTOS reserves these. *)

val otype_switcher : int  (** export-table capabilities (compartment calls) *)
val otype_token : int  (** the token API's hardware type (§3.2.1) *)

(* Address-space map (outside SRAM). *)

val switcher_code_base : int
(** Where the interpreted switcher segment is mapped. *)

val flash_base : int
(** Compartment code regions (native trampolines) start here. *)

val return_pad : int
(** Well-known native address used as the return target of compartment
    calls started from native code. *)
