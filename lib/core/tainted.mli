(** RLBox-style tainted values (the extension the paper suggests for
    reducing interface-hardening oversights, §5.1.2).

    Anything that crosses a trust boundary — compartment-call arguments,
    data read through a shared capability — can be wrapped as tainted.
    The type system then forces a validation step before the value is
    used: there is no way to extract the payload except through [use]
    (which runs a checker). *)

type 'a t
(** A value of type ['a] received from an untrusted party. *)

val source : 'a -> 'a t
(** Mark a value as tainted at the trust boundary. *)

val use : 'a t -> check:('a -> bool) -> ('a -> 'b) -> ('b, string) result
(** Validate and consume: runs [check]; on success the continuation
    receives the now-trusted value.  [Error] when validation fails. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Transform without untainting (the result stays tainted). *)

val both : 'a t -> 'b t -> ('a * 'b) t

val use_pointer :
  Kernel.ctx ->
  Kernel.value t ->
  ?perms:Perm.Set.t ->
  ?min_length:int ->
  (Kernel.value -> 'b) ->
  ('b, string) result
(** The common case: validate a tainted capability argument with
    {!Hardening.check_pointer} before use. *)
