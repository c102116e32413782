(** Static firmware image description (§2.2.2 P4: static isolation model).

    A firmware image declares every compartment, shared library, thread
    and import at build time; the {!Loader} instantiates the capability
    graph it describes and nothing can be added afterwards.  This is the
    basis of the auditing story (§4): the description *is* the policy
    surface.

    Code sizes: compartment bodies in this reproduction are OCaml
    closures, so a component's code size is modelled as
    [source LoC × bytes_per_loc] (see DESIGN.md, substitutions). *)

type posture = Interrupts_enabled | Interrupts_disabled

type entry = {
  entry_name : string;
  arity : int;  (** number of argument registers, 0..6 *)
  min_stack : int;  (** bytes of stack the entry requires (§3.2.5) *)
  posture : posture;  (** interrupt posture adopted at invocation (§2.1) *)
}

val entry :
  ?arity:int -> ?min_stack:int -> ?posture:posture -> string -> entry
(** Defaults: arity 6, 256 bytes, interrupts enabled. *)

type import =
  | Call of { comp : string; entry : string }
      (** sealed capability to another compartment's export entry *)
  | Lib_call of { lib : string; entry : string }
      (** sentry to a shared-library function *)
  | Mmio of { device : string }
      (** capability over a device's MMIO region *)
  | Static_sealed of { target : string }
      (** sealed capability to a named static sealed object (§3.2.1) *)
  | Unseal_key of { sealed_as : string }
      (** token-API key for the named virtual sealing type *)

val import_name : import -> string
(** Stable display name used in audit reports. *)

type kind = Compartment | Library

type compartment = {
  comp_name : string;
  kind : kind;
  code_loc : int;  (** source lines of code (code-size proxy) *)
  globals_size : int;  (** bytes of mutable globals; must be 0 for libraries *)
  entries : entry list;
  imports : import list;
  has_error_handler : bool;
}

val compartment :
  ?kind:kind ->
  ?code_loc:int ->
  ?globals_size:int ->
  ?entries:entry list ->
  ?imports:import list ->
  ?error_handler:bool ->
  string ->
  compartment
(** Smart constructor with empty defaults.  Raises [Invalid_argument] if a
    library declares mutable globals (§3, shared libraries must not have
    mutable state). *)

val client_imports : compartment -> import list
(** What a client imports to reach every entry of [c]: one [Call] per
    declared entry, in declaration order (a [Lib_call] for a library).
    The declaration is the single source of a service's entry list; its
    clients' import tables are derived from it, never restated. *)

(** A statically-allocated sealed object (e.g. an allocation capability,
    §3.2.2), instantiated by the loader and reachable only via sealed
    imports. *)
type static_sealed = {
  sobj_name : string;
  sealed_as : string;  (** virtual sealing type (owner compartment decides) *)
  payload : int list;  (** initial payload words *)
}

type thread = {
  thread_name : string;
  entry_comp : string;
  entry_point : string;
  priority : int;  (** higher runs first *)
  stack_size : int;
  trusted_stack_frames : int;
}

val thread :
  ?priority:int ->
  ?stack_size:int ->
  ?trusted_stack_frames:int ->
  name:string ->
  comp:string ->
  entry:string ->
  unit ->
  thread
(** Defaults: priority 1, 1024-byte stack, 16 trusted frames. *)

type t = {
  image_name : string;
  compartments : compartment list;
  sealed_objects : static_sealed list;
  threads : thread list;
}

val create :
  ?sealed_objects:static_sealed list ->
  ?threads:thread list ->
  name:string ->
  compartment list ->
  t

val find_compartment : t -> string -> compartment option

val validate : t -> (unit, string) result
(** Check cross-references: every import resolves, thread entries exist,
    names are unique.  The loader refuses invalid images. *)

val code_bytes : compartment -> int
