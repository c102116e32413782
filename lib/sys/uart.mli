(** UART device and the debug-output shared library (Fig. 5's
    "Input/Output" and "Debug Utilities" boxes).

    The UART is a trivial MMIO device (a TX register and an always-ready
    status register).  The "debug" shared library writes through its
    *own* import-table MMIO capability — library code executes in the
    caller's security domain, but the device grant belongs to the
    library and is visible to auditing, so a policy can state exactly
    which images may print. *)

val attach : Machine.t -> unit -> string
(** Add the UART to the machine (MMIO at 0x12000000); the returned
    closure reads the transcript captured so far. *)

val firmware_library : unit -> Firmware.compartment
(** The "debug" shared library: entries [log] (capability + length) and
    [log_int]. *)

val client_imports : Firmware.import list
(** What a compartment that wants to print must import:
    [Firmware.client_imports] of the library's declaration. *)

val install : Kernel.t -> unit
(** Register the library's implementations (requires the UART attached
    and the "debug" library in the image). *)

val log : Kernel.ctx -> string -> Kernel.ctx
(** Convenience wrapper: stage the string in the caller's stack frame
    and call the library.  Returns the context with the stack
    reservation applied. *)

val log_int : Kernel.ctx -> int -> unit
