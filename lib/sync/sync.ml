module Cap = Capability

let machine ctx = Kernel.machine ctx.Kernel.kernel
let word_addr w = Cap.address w

let load32 ctx w =
  Machine.load (machine ctx) ~auth:w ~addr:(word_addr w) ~size:4

let store32 ctx w v =
  Machine.store (machine ctx) ~auth:w ~addr:(word_addr w) ~size:4 v

(* Model an atomic read-modify-write as a short interrupt-free section
   (LL/SC-free embedded cores do the same). *)
let atomically ctx f = Kernel.with_interrupts_disabled ctx f

let charge_lib ctx = Machine.tick (machine ctx) Cost.library_call

module Mutex = struct
  let free = 0
  let locked = 1
  let contended = 2

  let init ctx ~word = store32 ctx word free

  let try_lock ctx ~word =
    charge_lib ctx;
    atomically ctx (fun () ->
        if load32 ctx word = free then begin
          store32 ctx word locked;
          true
        end
        else false)

  let lock ctx ~word ?(timeout = 0) () =
    charge_lib ctx;
    let deadline =
      if timeout > 0 then Some (Machine.cycles (machine ctx) + timeout) else None
    in
    let rec go () =
      let claimed =
        atomically ctx (fun () ->
            let v = load32 ctx word in
            if v = free then begin
              store32 ctx word locked;
              `Got
            end
            else begin
              store32 ctx word contended;
              `Wait
            end)
      in
      match claimed with
      | `Got -> true
      | `Wait -> (
          let remaining =
            match deadline with
            | None -> 0
            | Some d -> max 1 (d - Machine.cycles (machine ctx))
          in
          match
            ( deadline,
              Scheduler.futex_wait ctx ~word ~expected:contended
                ~timeout:remaining () )
          with
          | Some d, _ when Machine.cycles (machine ctx) >= d -> false
          | _, `Timed_out -> false
          | _, (`Woken | `Value_changed) -> go ())
    in
    go ()

  let unlock ctx ~word =
    charge_lib ctx;
    let was =
      atomically ctx (fun () ->
          let v = load32 ctx word in
          store32 ctx word free;
          v)
    in
    if was = contended then ignore (Scheduler.futex_wake ctx ~word ~count:1)

  let with_lock ctx ~word f =
    if not (lock ctx ~word ()) then failwith "Mutex.with_lock: timeout";
    Fun.protect ~finally:(fun () -> unlock ctx ~word) f
end

module Semaphore = struct
  let init ctx ~word n = store32 ctx word n

  let acquire ctx ~word ?(timeout = 0) () =
    charge_lib ctx;
    let deadline =
      if timeout > 0 then Some (Machine.cycles (machine ctx) + timeout) else None
    in
    let rec go () =
      let taken =
        atomically ctx (fun () ->
            let v = load32 ctx word in
            if v > 0 then begin
              store32 ctx word (v - 1);
              true
            end
            else false)
      in
      if taken then true
      else
        let remaining =
          match deadline with
          | None -> 0
          | Some d -> max 1 (d - Machine.cycles (machine ctx))
        in
        match
          (deadline, Scheduler.futex_wait ctx ~word ~expected:0 ~timeout:remaining ())
        with
        | Some d, _ when Machine.cycles (machine ctx) >= d -> false
        | _, `Timed_out -> false
        | _, (`Woken | `Value_changed) -> go ()
    in
    go ()

  let release ctx ~word =
    charge_lib ctx;
    atomically ctx (fun () -> store32 ctx word (load32 ctx word + 1));
    ignore (Scheduler.futex_wake ctx ~word ~count:1)

  let value ctx ~word = load32 ctx word
end

module Condvar = struct
  (* The word holds a generation counter: wait records it, releases the
     mutex and sleeps until it changes. *)
  let init ctx ~word = store32 ctx word 0

  let wait ctx ~word ~mutex ?(timeout = 0) () =
    charge_lib ctx;
    let seen = load32 ctx word in
    Mutex.unlock ctx ~word:mutex;
    let woken =
      match Scheduler.futex_wait ctx ~word ~expected:seen ~timeout () with
      | `Woken | `Value_changed -> true
      | `Timed_out -> false
    in
    ignore (Mutex.lock ctx ~word:mutex ());
    woken

  let signal ctx ~word =
    charge_lib ctx;
    atomically ctx (fun () -> store32 ctx word ((load32 ctx word + 1) land 0xffffff));
    ignore (Scheduler.futex_wake ctx ~word ~count:1)
end

module Event = struct
  let set ctx ~word bits =
    charge_lib ctx;
    atomically ctx (fun () -> store32 ctx word (load32 ctx word lor bits));
    ignore (Scheduler.futex_wake ctx ~word ~count:max_int)

  let wait ctx ~word ~mask ?(all = false) ?(timeout = 0) () =
    charge_lib ctx;
    let deadline =
      if timeout > 0 then Some (Machine.cycles (machine ctx) + timeout) else None
    in
    let satisfied v =
      if all then v land mask = mask else v land mask <> 0
    in
    let rec go () =
      let v = load32 ctx word in
      if satisfied v then Some v
      else
        let remaining =
          match deadline with
          | None -> 0
          | Some d -> max 1 (d - Machine.cycles (machine ctx))
        in
        match
          (deadline, Scheduler.futex_wait ctx ~word ~expected:v ~timeout:remaining ())
        with
        | Some d, _ when Machine.cycles (machine ctx) >= d -> None
        | _, `Timed_out -> None
        | _, (`Woken | `Value_changed) -> go ()
    in
    go ()
end

module Queue_lib = struct
  (* +0 capacity, +4 elem_size, +8 head counter, +12 tail counter,
     +16.. ring storage.  Counters are free-running; head/tail are the
     futex words (tail changes on send, head on recv). *)
  let header = 16

  let bytes_needed ~elem_size ~capacity = header + (elem_size * capacity)

  let fld ctx buf off = Machine.load (machine ctx) ~auth:buf ~addr:(Cap.base buf + off) ~size:4
  let set_fld ctx buf off v =
    Machine.store (machine ctx) ~auth:buf ~addr:(Cap.base buf + off) ~size:4 v

  let word_at buf off = Cap.exn (Cap.with_address buf (Cap.base buf + off))

  let init ctx ~buf ~elem_size ~capacity =
    if Cap.length buf < bytes_needed ~elem_size ~capacity then
      invalid_arg "Queue_lib.init: buffer too small";
    set_fld ctx buf 0 capacity;
    set_fld ctx buf 4 elem_size;
    set_fld ctx buf 8 0;
    set_fld ctx buf 12 0

  let copy_bytes ctx ~src ~src_addr ~dst ~dst_addr n =
    let m = machine ctx in
    let words = n / 4 in
    for i = 0 to words - 1 do
      let v = Machine.load m ~auth:src ~addr:(src_addr + (4 * i)) ~size:4 in
      Machine.store m ~auth:dst ~addr:(dst_addr + (4 * i)) ~size:4 v
    done;
    for i = 4 * words to n - 1 do
      let v = Machine.load m ~auth:src ~addr:(src_addr + i) ~size:1 in
      Machine.store m ~auth:dst ~addr:(dst_addr + i) ~size:1 v
    done

  let length ctx ~buf = fld ctx buf 12 - fld ctx buf 8

  let send ctx ~buf elem ?(timeout = 0) () =
    charge_lib ctx;
    let capacity = fld ctx buf 0 and elem_size = fld ctx buf 4 in
    let deadline =
      if timeout > 0 then Some (Machine.cycles (machine ctx) + timeout) else None
    in
    let rec go () =
      let head = fld ctx buf 8 and tail = fld ctx buf 12 in
      if tail - head < capacity then begin
        let slot = tail mod capacity in
        copy_bytes ctx ~src:elem ~src_addr:(Cap.base elem)
          ~dst:buf ~dst_addr:(Cap.base buf + header + (slot * elem_size))
          elem_size;
        atomically ctx (fun () -> set_fld ctx buf 12 (tail + 1));
        ignore (Scheduler.futex_wake ctx ~word:(word_at buf 12) ~count:1);
        true
      end
      else
        let remaining =
          match deadline with
          | None -> 0
          | Some d -> max 1 (d - Machine.cycles (machine ctx))
        in
        match
          ( deadline,
            Scheduler.futex_wait ctx ~word:(word_at buf 8) ~expected:head
              ~timeout:remaining () )
        with
        | Some d, _ when Machine.cycles (machine ctx) >= d -> false
        | _, `Timed_out -> false
        | _, (`Woken | `Value_changed) -> go ()
    in
    go ()

  let recv ctx ~buf ~into ?(timeout = 0) () =
    charge_lib ctx;
    let capacity = fld ctx buf 0 and elem_size = fld ctx buf 4 in
    let deadline =
      if timeout > 0 then Some (Machine.cycles (machine ctx) + timeout) else None
    in
    let rec go () =
      let head = fld ctx buf 8 and tail = fld ctx buf 12 in
      if tail > head then begin
        let slot = head mod capacity in
        copy_bytes ctx ~src:buf
          ~src_addr:(Cap.base buf + header + (slot * elem_size))
          ~dst:into ~dst_addr:(Cap.base into) elem_size;
        atomically ctx (fun () -> set_fld ctx buf 8 (head + 1));
        ignore (Scheduler.futex_wake ctx ~word:(word_at buf 8) ~count:1);
        true
      end
      else
        let remaining =
          match deadline with
          | None -> 0
          | Some d -> max 1 (d - Machine.cycles (machine ctx))
        in
        match
          ( deadline,
            Scheduler.futex_wait ctx ~word:(word_at buf 12) ~expected:tail
              ~timeout:remaining () )
        with
        | Some d, _ when Machine.cycles (machine ctx) >= d -> false
        | _, `Timed_out -> false
        | _, (`Woken | `Value_changed) -> go ()
    in
    go ()
end
