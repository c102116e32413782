(* See forensics.mli.  Same contract as obs.ml: nothing in here may
   touch the simulation — no clock, no simulated memory, no control flow
   back into the machine.  Ingestion is array stores and integer bumps,
   plus a hashtable update on calls and heap events; every report is a
   post-run fold. *)

(* Streaming log2 histograms.  Bucket 0 holds v <= 0; bucket i >= 1
   holds 2^(i-1) <= v < 2^i, so its upper bound is 2^i - 1.  63 buckets
   cover every positive OCaml int. *)

let nbuckets = 63

type hist = {
  mutable h_n : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

let hist_create () =
  { h_n = 0; h_sum = 0; h_min = max_int; h_max = min_int;
    h_buckets = Array.make nbuckets 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (nbuckets - 1)
  end

let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

let hist_add h v =
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_count h = h.h_n
let hist_sum h = h.h_sum
let hist_min h = if h.h_n = 0 then 0 else h.h_min
let hist_max h = if h.h_n = 0 then 0 else h.h_max

let hist_quantile h q =
  if h.h_n = 0 then 0
  else begin
    let rank = max 1 (min h.h_n (int_of_float (ceil (q *. float_of_int h.h_n)))) in
    let cum = ref 0 and est = ref h.h_max in
    (try
       for i = 0 to nbuckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if !cum >= rank then begin
           est := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    max (hist_min h) (min h.h_max !est)
  end

(* Merge is the monoid induced by [hist_add]: counts/sums/buckets add,
   min/max combine — exact because the empty histogram's sentinels are
   max_int/min_int, so [hist_create] is a true identity and the QCheck
   algebra (associativity, commutativity, merge == concatenated
   ingestion) holds on the raw fields. *)
let hist_merge a b =
  let h = hist_create () in
  h.h_n <- a.h_n + b.h_n;
  h.h_sum <- a.h_sum + b.h_sum;
  h.h_min <- min a.h_min b.h_min;
  h.h_max <- max a.h_max b.h_max;
  for i = 0 to nbuckets - 1 do
    h.h_buckets.(i) <- a.h_buckets.(i) + b.h_buckets.(i)
  done;
  h

let hist_copy a = hist_merge a (hist_create ())

let hist_buckets h =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then acc := (bucket_upper i, h.h_buckets.(i)) :: !acc
  done;
  !acc

let hist_json h =
  let buckets =
    List.map
      (fun (le, count) -> Json.Obj [ ("le", Json.Int le); ("count", Json.Int count) ])
      (hist_buckets h)
  in
  Json.Obj
    [
      ("count", Json.Int h.h_n);
      ("sum", Json.Int h.h_sum);
      ("min", Json.Int (hist_min h));
      ("max", Json.Int (hist_max h));
      ("p50", Json.Int (hist_quantile h 0.50));
      ("p99", Json.Int (hist_quantile h 0.99));
      ("buckets", Json.List buckets);
    ]

(* Crash dumps *)

type dump = {
  d_cycle : int;
  d_comp : string;
  d_thread : int;
  d_cause : string;
  d_addr : int;
  d_pc : int;
  d_instr : string;
  d_regs : (string * string) list;
  d_chain : Obs.Tracker.call list;
  d_recent : string list;
  d_live_bytes : int;
  d_live_hwm : int;
  d_quarantine_bytes : int;
  d_quarantine_chunks : int;
  d_handler_ran : bool;
  mutable d_rebooted : bool;
}

(* Per-compartment health counters.  Faults are counted at
   [Call_leave faulted=true] (the unwind), never in [record_fault], so a
   fault that produces both a dump and an unwind is counted once. *)
type cstat = {
  mutable cs_calls : int;
  mutable cs_faults : int;
  mutable cs_reboots : int;
  cs_lat : hist;
  mutable cs_live : int;
  mutable cs_hwm : int;
  cs_quar : hist;
}

let new_cstat () =
  { cs_calls = 0; cs_faults = 0; cs_reboots = 0; cs_lat = hist_create ();
    cs_live = 0; cs_hwm = 0; cs_quar = hist_create () }

let copy_cstat s =
  { s with cs_lat = hist_copy s.cs_lat; cs_quar = hist_copy s.cs_quar }

let recent_cap = 512
let max_dumps = 256

type t = {
  mutable dumps_rev : dump list;  (* newest first *)
  mutable ndumps : int;
  (* ingest state *)
  tracker : Obs.Tracker.t;
  mutable irq_entered : int;  (* cycle of the undispatched Irq_enter, -1 = none *)
  sizes : (int, int * string) Hashtbl.t;  (* live base -> size, owner *)
  freed_owner : (int, string) Hashtbl.t;  (* base freed, awaiting quarantine *)
  quar : (int, int * string) Hashtbl.t;  (* base -> cycle quarantined, owner *)
  mutable quar_bytes : int;
  mutable quar_chunks : int;
  stats : (string, cstat) Hashtbl.t;
  (* the four global histograms *)
  call_lat : hist;
  irq_lat : hist;
  alloc_sz : hist;
  quar_res : hist;
  (* bounded ring of recent events with their compartment context, as
     parallel arrays so ingestion allocates nothing *)
  recent_ctx : string array;
  recent_cycle : int array;
  recent_kind : Obs.kind array;
  mutable recent_head : int;
}

let create () =
  {
    dumps_rev = [];
    ndumps = 0;
    tracker = Obs.Tracker.create ();
    irq_entered = -1;
    sizes = Hashtbl.create 64;
    freed_owner = Hashtbl.create 64;
    quar = Hashtbl.create 64;
    quar_bytes = 0;
    quar_chunks = 0;
    stats = Hashtbl.create 16;
    call_lat = hist_create ();
    irq_lat = hist_create ();
    alloc_sz = hist_create ();
    quar_res = hist_create ();
    recent_ctx = Array.make recent_cap "";
    recent_cycle = Array.make recent_cap 0;
    recent_kind = Array.make recent_cap Obs.Sched_idle;
    recent_head = 0;
  }

let call_latency t = t.call_lat
let irq_latency t = t.irq_lat
let alloc_size t = t.alloc_sz
let quarantine_residency t = t.quar_res

let comp_counters t =
  Hashtbl.fold
    (fun k s acc -> (k, s.cs_calls, s.cs_faults, s.cs_reboots) :: acc)
    t.stats []
  |> List.sort compare

(* [find], not [find_opt]: the hit path, taken on almost every call,
   allocates nothing. *)
let stat t comp =
  try Hashtbl.find t.stats comp
  with Not_found ->
    let s = new_cstat () in
    Hashtbl.add t.stats comp s;
    s

(* Who owns an allocation made on the current thread: the innermost
   call frame that is not the allocator itself, else the outermost
   caller, else the thread name. *)
let owner_of t =
  match Obs.Tracker.phase t.tracker with
  | Boot | Idle -> "kernel"
  | Thread tid -> (
      let chain = Obs.Tracker.chain t.tracker tid in
      match List.find_opt (fun c -> c.Obs.Tracker.callee <> "allocator") chain with
      | Some c -> c.callee
      | None -> (
          match List.rev chain with
          | c :: _ -> c.caller
          | [] ->
              Option.value (Obs.Tracker.thread_name t.tracker tid)
                ~default:"kernel"))

let ingest t ~cycle kind =
  let slot = t.recent_head mod recent_cap in
  Array.unsafe_set t.recent_ctx slot (Obs.Tracker.context t.tracker);
  Array.unsafe_set t.recent_cycle slot cycle;
  Array.unsafe_set t.recent_kind slot kind;
  t.recent_head <- t.recent_head + 1;
  (* The tracker steps last, so a Call_leave still sees the frame it
     pops. *)
  (match kind with
  | Obs.Thread_dispatch _ ->
      if t.irq_entered >= 0 then begin
        hist_add t.irq_lat (cycle - t.irq_entered);
        t.irq_entered <- -1
      end
  | Obs.Irq_enter _ -> if t.irq_entered < 0 then t.irq_entered <- cycle
  | Obs.Call_enter { callee; _ } ->
      let s = stat t callee in
      s.cs_calls <- s.cs_calls + 1
  | Obs.Call_leave { callee; tid; faulted } -> (
      let s = stat t callee in
      if faulted then s.cs_faults <- s.cs_faults + 1;
      match Obs.Tracker.innermost t.tracker tid with
      | Some c ->
          let d = cycle - c.cycle in
          hist_add t.call_lat d;
          hist_add s.cs_lat d
      | None -> ())
  | Obs.Alloc { base; size } ->
      let owner = owner_of t in
      Hashtbl.replace t.sizes base (size, owner);
      hist_add t.alloc_sz size;
      let s = stat t owner in
      s.cs_live <- s.cs_live + size;
      if s.cs_live > s.cs_hwm then s.cs_hwm <- s.cs_live
  | Obs.Free { base; size } -> (
      match Hashtbl.find_opt t.sizes base with
      | Some (_, owner) ->
          Hashtbl.remove t.sizes base;
          Hashtbl.replace t.freed_owner base owner;
          let s = stat t owner in
          s.cs_live <- s.cs_live - size
      | None -> ())
  | Obs.Quarantine { base; size } ->
      let owner =
        match Hashtbl.find_opt t.freed_owner base with
        | Some o ->
            Hashtbl.remove t.freed_owner base;
            Some o
        | None -> (
            match Hashtbl.find_opt t.sizes base with
            | Some (_, o) -> Some o
            | None -> None)
      in
      Hashtbl.replace t.quar base
        (cycle, Option.value owner ~default:"kernel");
      t.quar_bytes <- t.quar_bytes + size;
      t.quar_chunks <- t.quar_chunks + 1
  | Obs.Release { base; size } -> (
      match Hashtbl.find_opt t.quar base with
      | Some (entered, owner) ->
          Hashtbl.remove t.quar base;
          t.quar_bytes <- t.quar_bytes - size;
          t.quar_chunks <- t.quar_chunks - 1;
          let d = cycle - entered in
          hist_add t.quar_res d;
          hist_add (stat t owner).cs_quar d
      | None -> ())
  | _ -> ());
  Obs.Tracker.step t.tracker ~cycle kind

(* Snapshot/restore for Machine.snapshot: deep-copy every mutable piece
   of ingest state into a closure that writes it back in place.  The
   hashtable values and the ring's kinds are immutable, so they can be
   shared; [hist], [cstat] and [dump] carry mutable fields and are
   copied field-by-field. *)

let restore_hist_into dst src =
  dst.h_n <- src.h_n;
  dst.h_sum <- src.h_sum;
  dst.h_min <- src.h_min;
  dst.h_max <- src.h_max;
  Array.blit src.h_buckets 0 dst.h_buckets 0 nbuckets

let snapshot t =
  let dumps = List.map (fun d -> (d, d.d_rebooted)) t.dumps_rev in
  let ndumps = t.ndumps in
  let restore_tracker = Obs.Tracker.snapshot t.tracker in
  let irq_entered = t.irq_entered in
  let sizes = Hashtbl.copy t.sizes in
  let freed_owner = Hashtbl.copy t.freed_owner in
  let quar = Hashtbl.copy t.quar in
  let quar_bytes = t.quar_bytes in
  let quar_chunks = t.quar_chunks in
  let stats = Hashtbl.fold (fun k s acc -> (k, copy_cstat s) :: acc) t.stats [] in
  let call_lat = hist_copy t.call_lat in
  let irq_lat = hist_copy t.irq_lat in
  let alloc_sz = hist_copy t.alloc_sz in
  let quar_res = hist_copy t.quar_res in
  let recent_ctx = Array.copy t.recent_ctx in
  let recent_cycle = Array.copy t.recent_cycle in
  let recent_kind = Array.copy t.recent_kind in
  let recent_head = t.recent_head in
  fun () ->
    t.dumps_rev <-
      List.map
        (fun (d, rebooted) ->
          d.d_rebooted <- rebooted;
          d)
        dumps;
    t.ndumps <- ndumps;
    restore_tracker ();
    let refill dst src =
      Hashtbl.reset dst;
      Hashtbl.iter (Hashtbl.replace dst) src
    in
    t.irq_entered <- irq_entered;
    refill t.sizes sizes;
    refill t.freed_owner freed_owner;
    refill t.quar quar;
    t.quar_bytes <- quar_bytes;
    t.quar_chunks <- quar_chunks;
    Hashtbl.reset t.stats;
    List.iter (fun (k, s) -> Hashtbl.add t.stats k (copy_cstat s)) stats;
    restore_hist_into t.call_lat call_lat;
    restore_hist_into t.irq_lat irq_lat;
    restore_hist_into t.alloc_sz alloc_sz;
    restore_hist_into t.quar_res quar_res;
    Array.blit recent_ctx 0 t.recent_ctx 0 recent_cap;
    Array.blit recent_cycle 0 t.recent_cycle 0 recent_cap;
    Array.blit recent_kind 0 t.recent_kind 0 recent_cap;
    t.recent_head <- recent_head

(* How many recent-ring lines a dump carries. *)
let recent_keep = 16

let mentions comp = function
  | Obs.Call_enter { caller; callee; _ } -> caller = comp || callee = comp
  | Obs.Call_leave { callee; _ } -> callee = comp
  | _ -> false

let recent_for t comp =
  let n = min t.recent_head recent_cap in
  let acc = ref [] and kept = ref 0 in
  (* newest first, stop once we have [recent_keep] *)
  (try
     for i = 1 to n do
       let slot = (t.recent_head - i) mod recent_cap in
       let kind = t.recent_kind.(slot) in
       if t.recent_ctx.(slot) = comp || mentions comp kind then begin
         acc := Obs.event_line ~cycle:t.recent_cycle.(slot) kind :: !acc;
         incr kept;
         if !kept >= recent_keep then raise Exit
       end
     done
   with Exit -> ());
  !acc

let record_fault t ~cycle ~comp ~thread ~cause ~addr ~pc ~instr ~regs
    ~handler_ran =
  let s = stat t comp in
  let d =
    {
      d_cycle = cycle;
      d_comp = comp;
      d_thread = thread;
      d_cause = cause;
      d_addr = addr;
      d_pc = pc;
      d_instr = instr;
      d_regs = regs;
      d_chain = Obs.Tracker.chain t.tracker thread;
      d_recent = recent_for t comp;
      d_live_bytes = s.cs_live;
      d_live_hwm = s.cs_hwm;
      d_quarantine_bytes = t.quar_bytes;
      d_quarantine_chunks = t.quar_chunks;
      d_handler_ran = handler_ran;
      d_rebooted = false;
    }
  in
  if t.ndumps >= max_dumps then begin
    (* drop the oldest; [max_dumps] is small and faults are rare *)
    t.dumps_rev <- List.rev (List.tl (List.rev t.dumps_rev));
    t.ndumps <- t.ndumps - 1
  end;
  t.dumps_rev <- d :: t.dumps_rev;
  t.ndumps <- t.ndumps + 1

let note_reboot t ~comp =
  let s = stat t comp in
  s.cs_reboots <- s.cs_reboots + 1;
  let rec mark = function
    | [] -> ()
    | d :: rest ->
        if d.d_comp = comp && not d.d_rebooted then d.d_rebooted <- true
        else mark rest
  in
  mark t.dumps_rev

let dumps t = List.rev t.dumps_rev

let dump_json d =
  Json.Obj
    [
      ("cycle", Json.Int d.d_cycle);
      ("compartment", Json.Str d.d_comp);
      ("thread", Json.Int d.d_thread);
      ("cause", Json.Str d.d_cause);
      ("addr", Json.Int d.d_addr);
      ("pc", Json.Int d.d_pc);
      ("instr", Json.Str d.d_instr);
      ("registers", Json.Obj (List.map (fun (r, v) -> (r, Json.Str v)) d.d_regs));
      ( "call_chain",
        Json.List
          (List.map
             (fun { Obs.Tracker.caller; callee; entry; cycle } ->
               Json.Obj
                 [
                   ("caller", Json.Str caller);
                   ("callee", Json.Str callee);
                   ("entry", Json.Str entry);
                   ("cycle", Json.Int cycle);
                 ])
             d.d_chain) );
      ("recent", Json.List (List.map (fun l -> Json.Str l) d.d_recent));
      ("heap_live_bytes", Json.Int d.d_live_bytes);
      ("heap_high_water", Json.Int d.d_live_hwm);
      ("quarantine_bytes", Json.Int d.d_quarantine_bytes);
      ("quarantine_chunks", Json.Int d.d_quarantine_chunks);
      ("handler_ran", Json.Bool d.d_handler_ran);
      ("rebooted", Json.Bool d.d_rebooted);
    ]

(* One deterministic line per dump: what the attack matrix prints next
   to a verdict, and what the determinism properties compare. *)
let dump_brief d =
  Printf.sprintf "cycle %d %s/%d: %s (addr=0x%x pc=0x%x %s)%s" d.d_cycle
    d.d_comp d.d_thread d.d_cause
    (if d.d_addr < 0 then 0 else d.d_addr)
    (if d.d_pc < 0 then 0 else d.d_pc)
    d.d_instr
    (if d.d_handler_ran then " [handler]" else "")

let pp_dump ppf d =
  let open Format in
  fprintf ppf "=== crash dump @@ cycle %d ===@." d.d_cycle;
  fprintf ppf "compartment : %s  (thread %d%s%s)@." d.d_comp d.d_thread
    (if d.d_handler_ran then ", handler ran" else ", no handler")
    (if d.d_rebooted then ", micro-rebooted" else "");
  fprintf ppf "cause       : %s@." d.d_cause;
  fprintf ppf "addr / pc   : %s / %s@."
    (if d.d_addr < 0 then "-" else sprintf "0x%x" d.d_addr)
    (if d.d_pc < 0 then "-" else sprintf "0x%x" d.d_pc);
  fprintf ppf "instr       : %s@." d.d_instr;
  if d.d_regs <> [] then begin
    fprintf ppf "registers   :@.";
    List.iter (fun (r, v) -> fprintf ppf "  %-5s %s@." r v) d.d_regs
  end;
  if d.d_chain <> [] then begin
    fprintf ppf "call chain  : (innermost first)@.";
    List.iter
      (fun { Obs.Tracker.caller; callee; entry; cycle } ->
        fprintf ppf "  %s -> %s.%s  (entered @@ %d)@." caller callee entry
          cycle)
      d.d_chain
  end;
  if d.d_recent <> [] then begin
    fprintf ppf "recent      : (oldest first)@.";
    List.iter (fun l -> fprintf ppf "  %s@." l) d.d_recent
  end;
  fprintf ppf "heap        : live=%d hwm=%d quarantine=%d bytes in %d chunks@."
    d.d_live_bytes d.d_live_hwm d.d_quarantine_bytes d.d_quarantine_chunks

(* The health report: dumps + histograms + the tracker's cycle
   attribution, one row per compartment.  Every iteration below is over
   sorted keys so the output is byte-stable (pinned by
   test/golden_report.expected). *)

type row = {
  r_comp : string;
  r_calls : int;
  r_faults : int;
  r_reboots : int;
  r_p50 : int;
  r_p99 : int;
  r_call_total : int;
  r_live : int;
  r_hwm : int;
  r_quar_p99 : int;
  r_attr : int;
}

let attribution t ~total_cycles = Obs.Tracker.totals t.tracker ~total_cycles

let rows t ~total_cycles =
  let attrib = attribution t ~total_cycles in
  let names =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) t.stats;
    List.iter (fun (l, _) -> Hashtbl.replace tbl l ()) attrib;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  ( List.map
      (fun comp ->
        let s =
          Option.value (Hashtbl.find_opt t.stats comp) ~default:(new_cstat ())
        in
        {
          r_comp = comp;
          r_calls = s.cs_calls;
          r_faults = s.cs_faults;
          r_reboots = s.cs_reboots;
          r_p50 = hist_quantile s.cs_lat 0.50;
          r_p99 = hist_quantile s.cs_lat 0.99;
          r_call_total = hist_sum s.cs_lat;
          r_live = s.cs_live;
          r_hwm = s.cs_hwm;
          r_quar_p99 = hist_quantile s.cs_quar 0.99;
          r_attr =
            Option.value (List.assoc_opt comp attrib) ~default:0;
        })
      names,
    attrib )

let report_json t ~total_cycles =
  let rows, attrib = rows t ~total_cycles in
  let attributed = List.fold_left (fun a (_, c) -> a + c) 0 attrib in
  Json.Obj
    [
      ("total_cycles", Json.Int total_cycles);
      ( "sum_check",
        Json.Obj
          [
            ("attributed_cycles", Json.Int attributed);
            ("exact", Json.Bool (attributed = total_cycles));
          ] );
      ( "compartments",
        Json.Obj
          (List.map
             (fun r ->
               ( r.r_comp,
                 Json.Obj
                   [
                     ("calls", Json.Int r.r_calls);
                     ("faults", Json.Int r.r_faults);
                     ("reboots", Json.Int r.r_reboots);
                     ("call_p50_cycles", Json.Int r.r_p50);
                     ("call_p99_cycles", Json.Int r.r_p99);
                     ("call_cycles_total", Json.Int r.r_call_total);
                     ("heap_live_bytes", Json.Int r.r_live);
                     ("heap_high_water", Json.Int r.r_hwm);
                     ("quarantine_p99_cycles", Json.Int r.r_quar_p99);
                     ("attributed_cycles", Json.Int r.r_attr);
                   ] ))
             rows) );
      ( "histograms",
        Json.Obj
          [
            ("call_latency_cycles", hist_json t.call_lat);
            ("irq_to_dispatch_cycles", hist_json t.irq_lat);
            ("alloc_size_bytes", hist_json t.alloc_sz);
            ("quarantine_residency_cycles", hist_json t.quar_res);
          ] );
      ("dumps", Json.List (List.map dump_json (dumps t)));
    ]

let report_table t ~total_cycles =
  let rows, attrib = rows t ~total_cycles in
  let attributed = List.fold_left (fun a (_, c) -> a + c) 0 attrib in
  let b = Buffer.create 1024 in
  Printf.bprintf b "per-compartment health  (total cycles = %d, attributed = %d%s)\n"
    total_cycles attributed
    (if attributed = total_cycles then ", exact" else ", MISMATCH");
  Printf.bprintf b "%-16s %7s %6s %7s %9s %9s %9s %8s %9s %12s\n" "compartment"
    "calls" "faults" "reboots" "call-p50" "call-p99" "heap-hwm" "quar-p99"
    "heap-live" "attributed";
  List.iter
    (fun r ->
      Printf.bprintf b "%-16s %7d %6d %7d %9d %9d %9d %8d %9d %12d\n" r.r_comp
        r.r_calls r.r_faults r.r_reboots r.r_p50 r.r_p99 r.r_hwm r.r_quar_p99
        r.r_live r.r_attr)
    rows;
  let line name h =
    Printf.bprintf b "%-28s count=%d min=%d max=%d p50=%d p99=%d\n" name
      (hist_count h) (hist_min h) (hist_max h) (hist_quantile h 0.50)
      (hist_quantile h 0.99)
  in
  Buffer.add_string b "histograms:\n";
  line "  call-latency-cycles" t.call_lat;
  line "  irq-to-dispatch-cycles" t.irq_lat;
  line "  alloc-size-bytes" t.alloc_sz;
  line "  quarantine-residency-cycles" t.quar_res;
  Printf.bprintf b "crash dumps retained: %d\n" t.ndumps;
  Buffer.contents b
