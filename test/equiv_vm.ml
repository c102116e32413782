(* One handle over the interpreter and the executable ISA spec, so the
   differential suites drive both through the same calls. *)

type kind = Engine | Spec

type t = Engine_vm of Interp.t | Spec_vm of Isa_spec.t

let name = function Engine -> "engine" | Spec -> "spec"

let create kind machine =
  match kind with
  | Engine -> Engine_vm (Interp.create machine)
  | Spec -> Spec_vm (Isa_spec.create machine)

let map_segment t ~base prog =
  match t with
  | Engine_vm i -> Interp.map_segment i ~base prog
  | Spec_vm s -> Isa_spec.map_segment s ~base prog

let get_reg = function
  | Engine_vm i -> Interp.get_reg i
  | Spec_vm s -> Isa_spec.get_reg s

let set_reg = function
  | Engine_vm i -> Interp.set_reg i
  | Spec_vm s -> Isa_spec.set_reg s

let set_special = function
  | Engine_vm i -> Interp.set_special i
  | Spec_vm s -> Isa_spec.set_special s

let read_regs = function
  | Engine_vm i -> Interp.read_regs i
  | Spec_vm s -> Isa_spec.read_regs s

let instret = function
  | Engine_vm i -> Interp.instret i
  | Spec_vm s -> Isa_spec.instret s

let run ?fuel t target =
  match t with
  | Engine_vm i -> Interp.run ?fuel i target
  | Spec_vm s -> Isa_spec.run ?fuel s target
