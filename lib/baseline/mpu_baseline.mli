(** A conventional MPU/PMP protection baseline (§5.3, Table 4).

    Models what cheap devices ship today: eight protection regions
    configured by a trusted kernel, power-of-two region granularity, no
    tags, no temporal safety, and trap-mediated domain switches.  The
    benches and tests use it to reproduce the paper's comparisons:

    - region-granular sharing over-privileges (the whole rounded region
      becomes accessible, not the object);
    - a freed object is immediately reusable and dangling pointers
      still work (no load filter / revoker);
    - a domain switch costs ~2000 cycles (the Donky comparison in
      Fig. 6a) versus CHERIoT's zero-hardware-context switcher path;
    - per-task protection state is larger than a CHERIoT compartment's
      metadata (the Tock 164 B comparison). *)

val region_count : int  (** 8, as on Armv7-M MPUs and RISC-V PMP *)

val domain_switch_cycles : int
(** Modelled trap + MPU reprogram + return (Donky reports 2136). *)

val per_task_overhead_bytes : int
(** Kernel protection state per task (Tock reports 164 B). *)

type region = { r_base : int; r_size : int; r_read : bool; r_write : bool }

type task
(** A protection domain: up to {!region_count} regions. *)

type t
(** The baseline system: flat physical memory + a trusted kernel that
    owns the MPU. *)

val create : unit -> t
(** 64 KiB of flat memory, all of it one free heap chunk. *)
val cycles : t -> int

val create_task : unit -> task
(** A task with no MPU regions yet. *)

val grant : t -> task -> addr:int -> len:int -> writable:bool -> region
(** Configure a region covering [addr, addr+len).  The MPU's
    power-of-two alignment rounds the region up: the returned region
    shows the actual (over-privileged) extent.  Raises [Failure] when
    the task is out of regions. *)

val load : t -> task -> addr:int -> int
val store : t -> task -> addr:int -> int -> unit
(** Checked against the task's regions; raise [Failure "mpu fault"]
    outside them.  Charge one cycle plus the region scan. *)

val load_priv : t -> addr:int -> int
val store_priv : t -> addr:int -> int -> unit
(** Privileged physical access: no region check, no cycle charge.  For
    the differential-attack oracle (and scenario setup), which must
    inspect memory without holding any in-simulation authority —
    mirrors {!Memory.load_priv} on the CHERIoT side. *)

val mem_size : t -> int

val domain_call : t -> from:task -> into:task -> (unit -> 'a) -> 'a
(** Trap into the kernel, reprogram the MPU, run, switch back —
    charging {!domain_switch_cycles} each way. *)

(* The no-temporal-safety allocator. *)

val malloc : t -> int -> int
(** First-fit allocation; returns an address.  Freed memory is reused
    immediately — there is no quarantine and no revocation. *)

val free : t -> int -> unit

val over_privilege_bytes : len:int -> int
(** Extra bytes exposed when sharing a [len]-byte object through an MPU
    region (rounding to the region granularity). *)
