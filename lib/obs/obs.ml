(* See obs.mli.  Nothing in here may touch the simulation: no clock, no
   simulated memory, no control flow back into the machine.  Emission is
   an array store and an integer bump; every fold is post-run. *)

type kind =
  | Instr_sample of { instret : int }
  | Irq_enter of { irq : int }
  | Irq_exit of { irq : int }
  | Revoker_quantum of { granules : int; next : int }
  | Revoker_done of { epoch : int }
  | Fault_note of { note : string }
  | Switcher_call of { tid : int }
  | Switcher_return of { tid : int }
  | Switcher_abort of { tid : int }
  | Call_enter of { caller : string; callee : string; entry : string; tid : int }
  | Call_leave of { callee : string; tid : int; faulted : bool }
  | Thread_dispatch of { tid : int; name : string }
  | Thread_block of { tid : int }
  | Thread_wake of { tid : int; reason : string }
  | Sched_idle
  | Futex_wait of { addr : int; tid : int }
  | Futex_wake of { addr : int; woken : int }
  | Alloc of { base : int; size : int }
  | Free of { base : int; size : int }
  | Quarantine of { base : int; size : int }
  | Release of { base : int; size : int }

type event = { cycle : int; kind : kind }

let source_of = function
  | Instr_sample _ -> "interp"
  | Irq_enter _ | Irq_exit _ | Revoker_quantum _ | Revoker_done _ -> "machine"
  | Fault_note _ -> "fault"
  | Switcher_call _ | Switcher_return _ | Switcher_abort _ | Call_enter _
  | Call_leave _ | Thread_dispatch _ | Thread_block _ | Thread_wake _
  | Sched_idle ->
      "kernel"
  | Futex_wait _ | Futex_wake _ -> "sched"
  | Alloc _ | Free _ | Quarantine _ | Release _ -> "alloc"

let kind_label = function
  | Instr_sample _ -> "instr-sample"
  | Irq_enter _ -> "irq-enter"
  | Irq_exit _ -> "irq-exit"
  | Revoker_quantum _ -> "revoker-quantum"
  | Revoker_done _ -> "revoker-done"
  | Fault_note _ -> "fault"
  | Switcher_call _ -> "switcher-call"
  | Switcher_return _ -> "switcher-return"
  | Switcher_abort _ -> "switcher-abort"
  | Call_enter _ -> "call-enter"
  | Call_leave _ -> "call-leave"
  | Thread_dispatch _ -> "thread-dispatch"
  | Thread_block _ -> "thread-block"
  | Thread_wake _ -> "thread-wake"
  | Sched_idle -> "sched-idle"
  | Futex_wait _ -> "futex-wait"
  | Futex_wake _ -> "futex-wake"
  | Alloc _ -> "alloc"
  | Free _ -> "free"
  | Quarantine _ -> "quarantine"
  | Release _ -> "release"

let detail_of = function
  | Instr_sample { instret } -> Printf.sprintf "instr-sample instret=%d" instret
  | Irq_enter { irq } -> Printf.sprintf "irq-enter irq=%d" irq
  | Irq_exit { irq } -> Printf.sprintf "irq-exit irq=%d" irq
  | Revoker_quantum { granules; next } ->
      Printf.sprintf "revoker-quantum granules=%d next=%d" granules next
  | Revoker_done { epoch } -> Printf.sprintf "revoker-done epoch=%d" epoch
  | Fault_note { note } -> Printf.sprintf "fault %s" note
  | Switcher_call { tid } -> Printf.sprintf "switcher-call tid=%d" tid
  | Switcher_return { tid } -> Printf.sprintf "switcher-return tid=%d" tid
  | Switcher_abort { tid } -> Printf.sprintf "switcher-abort tid=%d" tid
  | Call_enter { caller; callee; entry; tid } ->
      Printf.sprintf "call-enter %s->%s.%s tid=%d" caller callee entry tid
  | Call_leave { callee; tid; faulted } ->
      Printf.sprintf "call-leave %s tid=%d faulted=%b" callee tid faulted
  | Thread_dispatch { tid; name } ->
      Printf.sprintf "thread-dispatch tid=%d name=%s" tid name
  | Thread_block { tid } -> Printf.sprintf "thread-block tid=%d" tid
  | Thread_wake { tid; reason } ->
      Printf.sprintf "thread-wake tid=%d reason=%s" tid reason
  | Sched_idle -> "sched-idle"
  | Futex_wait { addr; tid } ->
      Printf.sprintf "futex-wait addr=0x%x tid=%d" addr tid
  | Futex_wake { addr; woken } ->
      Printf.sprintf "futex-wake addr=0x%x woken=%d" addr woken
  | Alloc { base; size } -> Printf.sprintf "alloc base=0x%x size=%d" base size
  | Free { base; size } -> Printf.sprintf "free base=0x%x size=%d" base size
  | Quarantine { base; size } ->
      Printf.sprintf "quarantine base=0x%x size=%d" base size
  | Release { base; size } ->
      Printf.sprintf "release base=0x%x size=%d" base size

let event_line ~cycle kind =
  Printf.sprintf "[%10d] %-7s %s" cycle (source_of kind) (detail_of kind)

let pp_event ppf e = Format.pp_print_string ppf (event_line ~cycle:e.cycle e.kind)

(* Ring buffer.  [head] counts every emission ever; the live window is
   the last [min head cap] slots.  Overwriting the slot at [head mod cap]
   always evicts the oldest retained event, so newer events are never
   dropped in favour of older ones. *)

type t = { cap : int; buf : event array; mutable head : int }

let placeholder = { cycle = 0; kind = Sched_idle }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Obs.create: capacity must be positive";
  { cap = capacity; buf = Array.make capacity placeholder; head = 0 }

let total t = t.head
let length t = min t.head t.cap
let dropped t = t.head - length t

let emit t ~cycle kind =
  Array.unsafe_set t.buf (t.head mod t.cap) { cycle; kind };
  t.head <- t.head + 1

let clear t = t.head <- 0

(* For Machine.snapshot: events are immutable records, so copying the
   slot array and the head counter captures the whole ring. *)
let snapshot t =
  let head = t.head in
  let buf = Array.copy t.buf in
  fun () ->
    t.head <- head;
    Array.blit buf 0 t.buf 0 t.cap

let events t =
  let n = length t in
  List.init n (fun i -> t.buf.((t.head - n + i) mod t.cap))

(* The one call-stack tracker.  Per-thread stacks of frames model
   nesting (thread base -> switcher leg -> callee, possibly
   recursively): the call and return legs push a switcher frame, an
   abort pops a top one, [Call_enter] collapses a top switcher frame
   into the call, and [Call_leave] pops switcher frames and then one
   call.  "boot" covers everything before the first scheduling event
   and "idle" the stretches with an empty run queue.  Every event first
   charges the delta since the previous one to the live leaf, so the
   totals plus the tail partition [0, total_cycles] exactly.

   Stepping allocates nothing and hashes nothing: labels are interned
   to small ids by a scan that compares pointers first (the emitters
   pass the same loader-owned strings on every event) and contents
   only on a miss; totals are an int array indexed by label id; each
   thread's frames live in parallel arrays indexed by depth, so a push
   or a pop writes a few slots.  Text (a chain, a folded key) is built
   only when asked for. *)
module Tracker = struct
  type call = { caller : string; callee : string; entry : string; cycle : int }

  (* One thread's frames, innermost at [depth - 1]: a switcher frame
     has label -1; a call frame its callee's label, caller, entry name
     and the cycle it entered at. *)
  type frames = {
    mutable depth : int;
    mutable lab : int array;
    mutable caller : string array;
    mutable entry : string array;
    mutable at : int array;
  }

  let no_frames () =
    { depth = 0; lab = [||]; caller = [||]; entry = [||]; at = [||] }

  type t = {
    (* Indexed by tid, a kernel thread index (events with a negative
       tid charge cycles but move no stack). *)
    mutable stacks : frames array;
    mutable names : int array;  (* label of the first name seen, -1 = none *)
    (* Interned labels: [labels.(i)] is label i, [cycles.(i)] the cycles
       charged to it. *)
    mutable labels : string array;
    mutable cycles : int array;
    mutable nlabels : int;
    mutable mode : int;  (* [boot], [idle] or [running] *)
    mutable tid : int;  (* the running thread, when [running] *)
    mutable prev : int;  (* cycle up to which charges are settled *)
    mutable cur : int;  (* label of the live leaf *)
    mutable key : string;  (* folded key of the live context, "" = stale *)
  }

  (* The fixed labels' ids. *)
  let l_boot = 0
  let l_idle = 1
  let l_kernel = 2
  let l_switcher = 3

  (* Scheduler context: before the first scheduling event, with an
     empty run queue, or running thread [tid]. *)
  let boot = 0
  let idle = 1
  let running = 2

  let create () =
    let labels = Array.make 16 "" in
    labels.(l_boot) <- "boot";
    labels.(l_idle) <- "idle";
    labels.(l_kernel) <- "kernel";
    labels.(l_switcher) <- "switcher";
    { stacks = [||]; names = [||]; labels; cycles = Array.make 16 0; nlabels = 4;
      mode = boot; tid = 0; prev = 0; cur = l_boot; key = "" }

  let grow a n fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  (* A label's id, added on first sight.  A content match under another
     pointer replaces the stored copy, so the next lookup of that copy
     stops at the pointer scan. *)
  let rec same labels s i =
    if i < 0 then -1 else if Array.unsafe_get labels i == s then i else same labels s (i - 1)

  let rec equal labels s i =
    if i < 0 then -1
    else if String.equal (Array.unsafe_get labels i) s then i
    else equal labels s (i - 1)

  let intern t s =
    let labels = t.labels and n = t.nlabels in
    let i = same labels s (n - 1) in
    if i >= 0 then i
    else
      let i = equal labels s (n - 1) in
      if i >= 0 then begin
        labels.(i) <- s;
        i
      end
      else begin
        if n = Array.length labels then begin
          t.labels <- grow labels (2 * n) "";
          t.cycles <- grow t.cycles (2 * n) 0
        end;
        t.labels.(n) <- s;
        t.nlabels <- n + 1;
        n
      end

  let label t i = t.labels.(i)

  let empty = no_frames ()

  let frames t tid =
    if tid >= 0 && tid < Array.length t.stacks then Array.unsafe_get t.stacks tid else empty

  (* Grow the per-tid arrays to cover [tid]. *)
  let reserve t tid =
    let n = Array.length t.stacks in
    if tid >= n then begin
      let n' = max (tid + 1) (max 8 (2 * n)) in
      let stacks = Array.make n' empty in
      Array.blit t.stacks 0 stacks 0 n;
      for i = n to n' - 1 do
        stacks.(i) <- no_frames ()
      done;
      t.stacks <- stacks;
      t.names <- grow t.names n' (-1)
    end

  (* Room for one more frame. *)
  let room f =
    let n = Array.length f.lab in
    if f.depth = n then begin
      let n' = max 8 (2 * n) in
      f.lab <- grow f.lab n' 0;
      f.caller <- grow f.caller n' "";
      f.entry <- grow f.entry n' "";
      f.at <- grow f.at n' 0
    end

  let refresh t =
    (t.cur <-
       if t.mode = boot then l_boot
       else if t.mode = idle then l_idle
       else
         let f = frames t t.tid in
         if f.depth = 0 then l_kernel
         else
           let l = Array.unsafe_get f.lab (f.depth - 1) in
           if l < 0 then l_switcher else l);
    t.key <- ""

  (* After thread [tid]'s frames moved. *)
  let moved t tid = if t.mode = running && t.tid = tid then refresh t

  let push_switcher t tid =
    if tid >= 0 then begin
      reserve t tid;
      let f = Array.unsafe_get t.stacks tid in
      room f;
      Array.unsafe_set f.lab f.depth (-1);
      f.depth <- f.depth + 1;
      moved t tid
    end

  let step t ~cycle kind =
    let c = t.cur in
    Array.unsafe_set t.cycles c (Array.unsafe_get t.cycles c + (cycle - t.prev));
    t.prev <- cycle;
    match kind with
    | Thread_dispatch { tid; name } ->
        if tid >= 0 then begin
          reserve t tid;
          if Array.unsafe_get t.names tid < 0 then Array.unsafe_set t.names tid (intern t name)
        end;
        t.mode <- running;
        t.tid <- tid;
        refresh t
    | Sched_idle ->
        t.mode <- idle;
        refresh t
    | Switcher_call { tid } | Switcher_return { tid } -> push_switcher t tid
    | Switcher_abort { tid } ->
        let f = frames t tid in
        if f.depth > 0 && Array.unsafe_get f.lab (f.depth - 1) < 0 then begin
          f.depth <- f.depth - 1;
          moved t tid
        end
    | Call_enter { caller; callee; entry; tid } ->
        if tid >= 0 then begin
          reserve t tid;
          let f = Array.unsafe_get t.stacks tid in
          if f.depth > 0 && Array.unsafe_get f.lab (f.depth - 1) < 0 then f.depth <- f.depth - 1;
          room f;
          let d = f.depth in
          Array.unsafe_set f.lab d (intern t callee);
          Array.unsafe_set f.caller d caller;
          Array.unsafe_set f.entry d entry;
          Array.unsafe_set f.at d cycle;
          f.depth <- d + 1;
          moved t tid
        end
    | Call_leave { tid; _ } ->
        let f = frames t tid in
        if f.depth > 0 then begin
          let d = ref f.depth in
          while !d > 0 && Array.unsafe_get f.lab (!d - 1) < 0 do
            decr d
          done;
          f.depth <- max 0 (!d - 1);
          moved t tid
        end
    | _ -> ()

  let last_cycle t = t.prev
  let leaf t = t.labels.(t.cur)

  let thread_label t tid =
    if tid >= 0 && tid < Array.length t.names then Array.unsafe_get t.names tid else -1

  let thread_name t tid =
    let l = thread_label t tid in
    if l < 0 then None else Some t.labels.(l)

  let key t =
    if t.key = "" then
      t.key <-
        (if t.mode = boot then "boot"
         else if t.mode = idle then "idle"
         else
           let name =
             match thread_name t t.tid with
             | Some n -> n
             | None -> Printf.sprintf "thread%d" t.tid
           in
           let f = frames t t.tid in
           let frame i =
             let l = f.lab.(i) in
             t.labels.(if l < 0 then l_switcher else l)
           in
           String.concat ";"
             (name :: (if f.depth = 0 then [ "kernel" ] else List.init f.depth frame)));
    t.key

  let call_at t f i =
    { caller = f.caller.(i); callee = t.labels.(f.lab.(i)); entry = f.entry.(i); cycle = f.at.(i) }

  let chain t tid =
    let f = frames t tid in
    let acc = ref [] in
    for i = 0 to f.depth - 1 do
      if f.lab.(i) >= 0 then acc := call_at t f i :: !acc
    done;
    !acc

  (* The depth of a thread's innermost call frame, -1 when it is in no
     call. *)
  let innermost_at f =
    let i = ref (f.depth - 1) in
    while !i >= 0 && Array.unsafe_get f.lab !i < 0 do
      decr i
    done;
    !i

  let innermost_cycle t tid =
    let f = frames t tid in
    let i = innermost_at f in
    if i < 0 then min_int else f.at.(i)

  let context t =
    if t.mode <> running then l_kernel
    else
      let f = frames t t.tid in
      let i = innermost_at f in
      if i >= 0 then Array.unsafe_get f.lab i
      else
        let l = thread_label t t.tid in
        if l < 0 then l_kernel else l

  (* The depth of the innermost call frame at or below [i] whose callee
     is not [except], -1 when none is. *)
  let rec inner_except f except i =
    if i < 0 then -1
    else
      let l = Array.unsafe_get f.lab i in
      if l >= 0 && l <> except then i else inner_except f except (i - 1)

  (* The depth of the outermost call frame at or above [i], -1 when none
     is. *)
  let rec outermost f i =
    if i >= f.depth then -1 else if Array.unsafe_get f.lab i >= 0 then i else outermost f (i + 1)

  let owner t ~except =
    if t.mode <> running then l_kernel
    else
      let f = frames t t.tid in
      let i = inner_except f except (f.depth - 1) in
      if i >= 0 then Array.unsafe_get f.lab i
      else
        let i = outermost f 0 in
        if i >= 0 then intern t f.caller.(i)
        else
          let l = thread_label t t.tid in
          if l < 0 then l_kernel else l

  (* Pure: the tail since the last event is charged into the result. *)
  let totals t ~total_cycles =
    let acc = ref [] in
    for i = t.nlabels - 1 downto 0 do
      let v = t.cycles.(i) + if i = t.cur then total_cycles - t.prev else 0 in
      if v <> 0 then acc := (t.labels.(i), v) :: !acc
    done;
    List.sort (fun (a, _) (b, _) -> compare a b) !acc

  let copy_frames f =
    { depth = f.depth; lab = Array.copy f.lab; caller = Array.copy f.caller;
      entry = Array.copy f.entry; at = Array.copy f.at }

  (* Restore writes copies back, so one snapshot restores any number of
     times; labels first seen after the snapshot leave the table. *)
  let snapshot t =
    let stacks = Array.map copy_frames t.stacks in
    let names = Array.copy t.names in
    let labels = Array.copy t.labels and cycles = Array.copy t.cycles in
    let nlabels = t.nlabels and mode = t.mode and tid = t.tid and prev = t.prev and cur = t.cur in
    fun () ->
      t.stacks <- Array.map copy_frames stacks;
      t.names <- Array.copy names;
      t.labels <- Array.copy labels;
      t.cycles <- Array.copy cycles;
      t.nlabels <- nlabels;
      t.mode <- mode;
      t.tid <- tid;
      t.prev <- prev;
      t.cur <- cur;
      t.key <- ""
end

let attribute ~total_cycles evs =
  let t = Tracker.create () in
  List.iter (fun e -> Tracker.step t ~cycle:e.cycle e.kind) evs;
  Tracker.totals t ~total_cycles

(* Chrome trace_event export: compartment calls are B/E duration slices
   on their thread's track; everything else instant events.  ts is the
   simulated cycle (displayed as "us" by the viewers — harmless). *)

let tid_of = function
  | Switcher_call { tid }
  | Switcher_return { tid }
  | Switcher_abort { tid }
  | Call_enter { tid; _ }
  | Call_leave { tid; _ }
  | Thread_dispatch { tid; _ }
  | Thread_block { tid }
  | Thread_wake { tid; _ }
  | Futex_wait { tid; _ } ->
      tid
  | _ -> 0

let to_chrome evs =
  let base name ph e extra_args =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("ts", Json.Int e.cycle);
         ("pid", Json.Int 1);
         ("tid", Json.Int (tid_of e.kind));
         ("cat", Json.Str (source_of e.kind));
       ]
      @ match extra_args with [] -> [] | a -> [ ("args", Json.Obj a) ])
  in
  let thread_names = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.kind with
      | Thread_dispatch { tid; name } ->
          if not (Hashtbl.mem thread_names tid) then
            Hashtbl.add thread_names tid name
      | _ -> ())
    evs;
  let meta =
    Hashtbl.fold
      (fun tid name acc ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ]
        :: acc)
      thread_names []
    |> List.sort compare
  in
  let records =
    List.map
      (fun e ->
        match e.kind with
        | Call_enter { caller; callee; entry; _ } ->
            base callee "B" e
              [ ("caller", Json.Str caller); ("entry", Json.Str entry) ]
        | Call_leave { callee; faulted; _ } ->
            base callee "E" e
              (if faulted then [ ("faulted", Json.Bool true) ] else [])
        | k ->
            let j = base (kind_label k) "i" e [] in
            (match j with
            | Json.Obj fields -> Json.Obj (fields @ [ ("s", Json.Str "t") ])
            | _ -> j))
      evs
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ records));
      ("displayTimeUnit", Json.Str "ns");
    ]

let metrics ~total_cycles ~attribution t =
  let evs = events t in
  let count_by f =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let k = f e.kind in
        Hashtbl.replace tbl k
          (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
      evs;
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let sum f = List.fold_left (fun acc e -> acc + f e.kind) 0 evs in
  Json.Obj
    [
      ("total_cycles", Json.Int total_cycles);
      ("events", Json.Int (total t));
      ("retained", Json.Int (length t));
      ("dropped", Json.Int (dropped t));
      ( "alloc_bytes",
        Json.Int (sum (function Alloc { size; _ } -> size | _ -> 0)) );
      ( "free_bytes",
        Json.Int (sum (function Free { size; _ } -> size | _ -> 0)) );
      ( "quarantine_bytes",
        Json.Int (sum (function Quarantine { size; _ } -> size | _ -> 0)) );
      ( "release_bytes",
        Json.Int (sum (function Release { size; _ } -> size | _ -> 0)) );
      ("by_source", Json.Obj (count_by source_of));
      ("by_kind", Json.Obj (count_by kind_label));
      ( "attribution",
        Json.Obj
          (List.map (fun (l, c) -> (l, Json.Int c)) attribution) );
    ]
