type t = {
  kernel : Kernel.t;
  machine : Machine.t;
  alloc : Allocator.t;
  sched : Scheduler.t;
}

let base_compartments () =
  [
    Allocator.firmware_compartment ();
    Allocator.firmware_token_lib ();
    Scheduler.firmware_compartment ();
    Queue_comp.firmware_compartment ();
  ]

let standard_imports =
  Allocator.client_imports @ Scheduler.client_imports @ Queue_comp.client_imports

let image ?sealed_objects ?threads ~name comps =
  Firmware.create ?sealed_objects ?threads ~name (comps @ base_compartments ())

let boot ?machine ?drain_per_op fw =
  let machine = match machine with Some m -> m | None -> Machine.create () in
  match Kernel.boot ~machine fw with
  | Error _ as e -> e
  | Ok kernel ->
      let alloc = Allocator.install kernel ?drain_per_op () in
      let sched = Scheduler.install kernel in
      Queue_comp.install kernel;
      Ok { kernel; machine; alloc; sched }

let run ?until_cycles t = Kernel.run ?until_cycles t.kernel
