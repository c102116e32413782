(** Minimal JSON: the substrate for firmware audit reports (§4).

    Self-contained (no external dependency is available in the sealed
    build environment); supports everything the linker report and the
    policy engine need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
val of_string : string -> (t, string) result
(** Parse; returns a message with position on error. *)

(* Accessors *)

val member : string -> t -> t
(** Field of an object; [Null] if absent or not an object. *)

val index : int -> t -> t
val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list : t -> t list
val keys : t -> string list
val equal : t -> t -> bool
