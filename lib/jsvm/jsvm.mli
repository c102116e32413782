(** A tiny JavaScript interpreter: the Microvium substitute (§5.2,
    §5.3.3).

    Like Microvium on CHERIoT, it ships as a shared library: it has no
    mutable globals of its own and executes in the calling compartment's
    security context, with memory drawn from the caller's allocation
    capability and host functions the caller injects.  The supported
    subset: numbers (63-bit ints), strings, booleans, null, arrays,
    functions/closures, [let] and assignment, [if]/[else], [while],
    [return], the usual binary/unary operators, and calls to host
    functions.

    Execution is metered: each evaluation step charges cycles to the
    machine (an interpreted-language profile), and a fuel bound turns
    runaway scripts into an error instead of a hang. *)

type value =
  | Null
  | Bool of bool
  | Num of int
  | Str of string
  | Arr of value list
  | Fn of string list * ast_stmt list * env
  | Host of (value list -> value)

and env
and ast_stmt

val value_to_string : value -> string

type program

val parse : string -> (program, string) result
(** Parse a script; errors carry a human-readable message. *)

val eval_string :
  ?fuel:int ->
  machine:Machine.t ->
  globals:(string * value) list ->
  string ->
  (value, string) result

val firmware_library : unit -> Firmware.compartment
(** The "microvium" shared-library declaration for firmware images. *)
