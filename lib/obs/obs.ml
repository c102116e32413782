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

   Stepping allocates only the frames it pushes and hashes a label only
   at [Call_enter]: stacks and names live in arrays indexed by thread
   id, a call frame carries its callee's totals cell (resolved when the
   call enters), and the four fixed labels have their cells at hand, so
   moving the leaf is a few field writes. *)
module Tracker = struct
  type call = { caller : string; callee : string; entry : string; cycle : int }
  type frame = Switcher | Call of { call : call; cell : int ref }
  type phase = Boot | Idle | Thread of int

  type t = {
    (* Indexed by tid, a kernel thread index (events with a negative
       tid charge cycles but move no stack). *)
    mutable stacks : frame list array;  (* innermost first *)
    mutable names : string option array;  (* first name seen *)
    totals : (string, int ref) Hashtbl.t;  (* leaf label -> cycles *)
    c_boot : int ref;
    c_idle : int ref;
    c_kernel : int ref;
    c_switcher : int ref;
    mutable phase : phase;
    mutable prev : int;  (* cycle up to which charges are settled *)
    mutable leaf : string;  (* label of the live context *)
    mutable cell : int ref;  (* its entry in [totals] *)
    mutable key : string;  (* folded key of the live context, "" = stale *)
  }

  let cell_of totals label =
    try Hashtbl.find totals label
    with Not_found ->
      let c = ref 0 in
      Hashtbl.add totals label c;
      c

  let create () =
    let totals = Hashtbl.create 16 in
    let c_boot = cell_of totals "boot" in
    { stacks = Array.make 8 []; names = Array.make 8 None; totals; c_boot;
      c_idle = cell_of totals "idle"; c_kernel = cell_of totals "kernel";
      c_switcher = cell_of totals "switcher"; phase = Boot; prev = 0;
      leaf = "boot"; cell = c_boot; key = "" }

  let stack t tid =
    if tid >= 0 && tid < Array.length t.stacks then Array.unsafe_get t.stacks tid
    else []

  (* Grow the per-tid arrays to cover [tid]. *)
  let reserve t tid =
    let n = Array.length t.stacks in
    if tid >= n then begin
      let n' = max (tid + 1) (2 * n) in
      let grow a fill =
        let a' = Array.make n' fill in
        Array.blit a 0 a' 0 n;
        a'
      in
      t.stacks <- grow t.stacks [];
      t.names <- grow t.names None
    end

  let label = function Switcher -> "switcher" | Call { call; _ } -> call.callee

  let refresh t =
    (match t.phase with
    | Boot ->
        t.leaf <- "boot";
        t.cell <- t.c_boot
    | Idle ->
        t.leaf <- "idle";
        t.cell <- t.c_idle
    | Thread tid -> (
        match stack t tid with
        | [] ->
            t.leaf <- "kernel";
            t.cell <- t.c_kernel
        | Switcher :: _ ->
            t.leaf <- "switcher";
            t.cell <- t.c_switcher
        | Call { call; cell } :: _ ->
            t.leaf <- call.callee;
            t.cell <- cell));
    t.key <- ""

  let set t tid st =
    if tid >= 0 then begin
      reserve t tid;
      Array.unsafe_set t.stacks tid st;
      match t.phase with Thread cur when cur = tid -> refresh t | _ -> ()
    end

  let rec drop_switchers = function Switcher :: r -> drop_switchers r | st -> st

  let step t ~cycle kind =
    t.cell := !(t.cell) + (cycle - t.prev);
    t.prev <- cycle;
    match kind with
    | Thread_dispatch { tid; name } ->
        if tid >= 0 then begin
          reserve t tid;
          if Array.unsafe_get t.names tid = None then
            Array.unsafe_set t.names tid (Some name)
        end;
        t.phase <- Thread tid;
        refresh t
    | Sched_idle ->
        t.phase <- Idle;
        refresh t
    | Switcher_call { tid } | Switcher_return { tid } ->
        set t tid (Switcher :: stack t tid)
    | Switcher_abort { tid } -> (
        match stack t tid with Switcher :: r -> set t tid r | _ -> ())
    | Call_enter { caller; callee; entry; tid } ->
        let st = match stack t tid with Switcher :: r -> r | st -> st in
        let cell = cell_of t.totals callee in
        set t tid (Call { call = { caller; callee; entry; cycle }; cell } :: st)
    | Call_leave { tid; _ } ->
        set t tid (match drop_switchers (stack t tid) with [] -> [] | _ :: r -> r)
    | _ -> ()

  let phase t = t.phase
  let last_cycle t = t.prev
  let leaf t = t.leaf

  let thread_name t tid =
    if tid >= 0 && tid < Array.length t.names then Array.unsafe_get t.names tid
    else None

  let key t =
    if t.key = "" then
      t.key <-
        (match t.phase with
        | Boot -> "boot"
        | Idle -> "idle"
        | Thread tid ->
            let name =
              match thread_name t tid with
              | Some n -> n
              | None -> Printf.sprintf "thread%d" tid
            in
            String.concat ";"
              (name
              :: (match stack t tid with
                 | [] -> [ "kernel" ]
                 | st -> List.rev_map label st)));
    t.key

  let chain t tid =
    List.filter_map
      (function Call { call; _ } -> Some call | Switcher -> None)
      (stack t tid)

  let rec innermost_of = function
    | Call { call; _ } :: _ -> Some call
    | Switcher :: r -> innermost_of r
    | [] -> None

  let innermost t tid = innermost_of (stack t tid)

  let context t =
    match t.phase with
    | Boot | Idle -> "kernel"
    | Thread tid -> (
        match innermost_of (stack t tid) with
        | Some c -> c.callee
        | None -> Option.value (thread_name t tid) ~default:"kernel")

  (* Pure: the tail since the last event is charged into the result. *)
  let totals t ~total_cycles =
    Hashtbl.fold
      (fun l c acc ->
        let v = if c == t.cell then !c + (total_cycles - t.prev) else !c in
        if v = 0 then acc else (l, v) :: acc)
      t.totals []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* Restore writes every snapshot-time cell back in place, so the
     frames in the restored stacks (which point at those cells) and the
     fixed-label fields stay attached to the table; labels first seen
     after the snapshot leave the table. *)
  let snapshot t =
    let stacks = Array.copy t.stacks in
    let names = Array.copy t.names in
    let cells = Hashtbl.fold (fun l c acc -> (l, c, !c) :: acc) t.totals [] in
    let phase = t.phase and prev = t.prev and leaf = t.leaf and cell = t.cell in
    fun () ->
      t.stacks <- Array.copy stacks;
      t.names <- Array.copy names;
      Hashtbl.reset t.totals;
      List.iter
        (fun (l, c, v) ->
          c := v;
          Hashtbl.replace t.totals l c)
        cells;
      t.phase <- phase;
      t.prev <- prev;
      t.leaf <- leaf;
      t.cell <- cell;
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
