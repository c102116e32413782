type steps = {
  wake_blocked : unit -> unit;
  release_heap : unit -> unit;
  reset_state : unit -> unit;
}

(* Rate limiting lives on the kernel ({!Kernel.reboot_limit}):
   concurrently live kernels — one per farm domain — must never observe
   each other's budgets. *)

let set_rate_limit k ~comp ~max_reboots ~window =
  Kernel.set_reboot_limit k ~comp
    (Some
       {
         Kernel.rl_max = max_reboots;
         rl_window = window;
         rl_history = [];
         rl_locked = false;
       })

let is_locked_out k ~comp =
  match Kernel.reboot_limit k ~comp with
  | Some l -> l.Kernel.rl_locked && Kernel.is_poisoned k ~comp
  | None -> false

let clear_lockout k ~comp =
  (match Kernel.reboot_limit k ~comp with
  | Some l ->
      l.Kernel.rl_locked <- false;
      l.Kernel.rl_history <- []
  | None -> ());
  Kernel.poison k ~comp false

(* Returns true when the compartment may reopen after this reboot. *)
let note_and_check ctx comp =
  let k = ctx.Kernel.kernel in
  match Kernel.reboot_limit k ~comp with
  | None -> true
  | Some l ->
      let now = Machine.cycles (Kernel.machine k) in
      l.Kernel.rl_history <-
        now
        :: List.filter (fun t -> now - t <= l.Kernel.rl_window) l.Kernel.rl_history;
      if List.length l.Kernel.rl_history > l.Kernel.rl_max then begin
        l.Kernel.rl_locked <- true;
        false
      end
      else true

let perform ctx ~comp steps =
  let k = ctx.Kernel.kernel in
  (* Step 1: close the guard — calls into the compartment now fail with
     [Compartment_poisoned] instead of reaching stale state. *)
  Kernel.poison k ~comp true;
  (* Step 2: every parked thread must unwind with an error. *)
  steps.wake_blocked ();
  (* Step 3: drop all heap state owned by this compartment. *)
  steps.release_heap ();
  (* Step 4: pristine globals + component-specific reset. *)
  Kernel.restore_globals k ~comp;
  steps.reset_state ();
  (* Modelled reset latency, then step 5: reopen. *)
  Machine.tick (Kernel.machine k) (Kernel.reboot_cycles k);
  Kernel.note_reboot k ~comp;
  (* Step 5: reopen — unless the rate limiter says this compartment is
     being reboot-bombed. *)
  if note_and_check ctx comp then Kernel.poison k ~comp false
