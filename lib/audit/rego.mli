(** A small interpreter for the subset of the Rego policy language used
    to audit firmware reports (§4, Fig. 4).

    Supported: rules with bodies ([deny\[msg\] { ... }], [allow { ... }]),
    [:=] bindings, comparisons, [+]/[-], string/int/bool literals, and a
    library of builtins over the firmware report.  A [data.compartment.]
    prefix on builtin calls is accepted for fidelity with the paper's
    examples.

    Builtins:
    - [compartments()] — every compartment name
    - [compartments_calling(target)] — names of compartments whose import
      table grants a call into [target] (a compartment name or
      ["comp.entry"])
    - [imports(comp)] / [exports(comp)] — import/export display names
    - [mmio_users(device)] — compartments granted the device's MMIO
    - [sealed_users(object)] — compartments importing a sealed object
    - [quota(object)] — an allocation capability's quota
    - [total_quota()] — sum over all allocation capabilities
    - [heap_size()], [code_size(comp)], [globals_size(comp)]
    - [has_error_handler(comp)], [thread_count()], [threads_in(comp)]
    - [disables_interrupts(comp)] — entries that run with interrupts off
    - [count(x)], [sum(list)], [contains(list, v)],
      [startswith(s, p)], [endswith(s, p)] *)

type t

val parse : string -> (t, string) result

val eval_rule : t -> report:Json.t -> string -> (Json.t list, string) result
(** Every value produced by the named rule (the bracket variable's
    binding, or [Bool true] for plain rules); empty if no body
    succeeded. *)

val denials : t -> report:Json.t -> string list
(** Messages produced by the [deny] rule. *)

val allowed : t -> report:Json.t -> bool
(** No denial fired, and if an [allow] rule exists it produced at least
    one value. *)
