(* See forensics.mli.  Same contract as obs.ml: nothing in here may
   touch the simulation — no clock, no simulated memory, no control flow
   back into the machine.  Ingestion is array stores and integer bumps
   on the tracker's label ids; text is rendered only when a dump or a
   report is read, and every report is a post-run fold. *)

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
  d_reg_names : string array;
  d_reg_value : int -> string;
  d_chain : Obs.Tracker.call list;
  d_recent : Obs.event list;
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

(* Int-keyed tables for the heap events (chunk base -> two ints): open
   addressing with linear probing and backward-shift removal, so an
   insert, a lookup or a removal allocates nothing but to grow, and
   hashes an int with one multiply. *)
type imap = {
  mutable keys : int array;
  mutable v1 : int array;
  mutable v2 : int array;
  mutable used : Bytes.t;
  mutable count : int;
}

let imap_create () =
  let n = 32 in
  { keys = Array.make n 0; v1 = Array.make n 0; v2 = Array.make n 0;
    used = Bytes.make n '\000'; count = 0 }

let home m k = ((k * 0x2545F4914F6CDD1D) lsr 17) land (Array.length m.keys - 1)
let taken m i = Bytes.unsafe_get m.used i <> '\000'

(* The slot holding [k], or the empty slot ending its probe run. *)
let rec probe m k i =
  if taken m i && Array.unsafe_get m.keys i <> k then
    probe m k ((i + 1) land (Array.length m.keys - 1))
  else i

(* The slot holding [k], or -1. *)
let imap_find m k =
  let i = probe m k (home m k) in
  if taken m i then i else -1

let rec imap_set m k a b =
  let n = Array.length m.keys in
  if 2 * (m.count + 1) > n then begin
    let old = { m with count = 0 } in
    m.keys <- Array.make (2 * n) 0;
    m.v1 <- Array.make (2 * n) 0;
    m.v2 <- Array.make (2 * n) 0;
    m.used <- Bytes.make (2 * n) '\000';
    m.count <- 0;
    for i = 0 to n - 1 do
      if taken old i then imap_set m old.keys.(i) old.v1.(i) old.v2.(i)
    done
  end;
  let i = probe m k (home m k) in
  if not (taken m i) then begin
    Bytes.unsafe_set m.used i '\001';
    m.count <- m.count + 1
  end;
  Array.unsafe_set m.keys i k;
  Array.unsafe_set m.v1 i a;
  Array.unsafe_set m.v2 i b

(* Empty slot [i], then pull back every later entry of its probe run
   that may sit there, so lookups never need tombstones. *)
let imap_remove_at m i =
  let mask = Array.length m.keys - 1 in
  Bytes.unsafe_set m.used i '\000';
  m.count <- m.count - 1;
  let hole = ref i and j = ref ((i + 1) land mask) in
  while taken m !j do
    let k = Array.unsafe_get m.keys !j in
    if (!j - home m k) land mask >= (!j - !hole) land mask then begin
      Array.unsafe_set m.keys !hole k;
      Array.unsafe_set m.v1 !hole (Array.unsafe_get m.v1 !j);
      Array.unsafe_set m.v2 !hole (Array.unsafe_get m.v2 !j);
      Bytes.unsafe_set m.used !hole '\001';
      Bytes.unsafe_set m.used !j '\000';
      hole := !j
    end;
    j := (!j + 1) land mask
  done

let imap_copy m =
  { keys = Array.copy m.keys; v1 = Array.copy m.v1; v2 = Array.copy m.v2;
    used = Bytes.copy m.used; count = m.count }

let imap_restore m ~from =
  let c = imap_copy from in
  m.keys <- c.keys;
  m.v1 <- c.v1;
  m.v2 <- c.v2;
  m.used <- c.used;
  m.count <- c.count

let recent_cap = 512
let max_dumps = 256

(* The recent-event ring, in two arrays so that an event writes one
   or two cache lines: slot [i] holds four ints from [4i] — the cycle,
   the context's label over the event's constructor code, and two int
   fields — and two strings from [2i].  A call's callee is kept as its
   label.  Holding the [Obs.kind] values themselves would carry every
   event the ring still holds through each minor collection (a
   scenario's promoted words were a quarter ring kinds); ints cost
   nothing to hold, and the strings are the emitters' long-lived labels
   but for fault notes, which the fault log holds anyway.  The ints
   live off the OCaml heap: every campaign scenario creates a recorder,
   and a 2,048-word array each would go straight to the major heap.
   [kind_at] puts an event back together when a dump selects it. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type ring = { r_int : ints; r_str : string array }

let code_bits = 5

let ring_create () =
  let a = Bigarray.(Array1.create int c_layout (4 * recent_cap)) in
  Bigarray.Array1.fill a 0;
  { r_int = a; r_str = Array.make (2 * recent_cap) "" }

let ring_blit ~src ~dst =
  Bigarray.Array1.blit src.r_int dst.r_int;
  Array.blit src.r_str 0 dst.r_str 0 (2 * recent_cap)

(* Fill the slot whose ints start at [o]; [tag] is the context's label
   shifted over the code. *)
let put r o cycle tag a b =
  Bigarray.Array1.unsafe_set r.r_int o cycle;
  Bigarray.Array1.unsafe_set r.r_int (o + 1) tag;
  Bigarray.Array1.unsafe_set r.r_int (o + 2) a;
  Bigarray.Array1.unsafe_set r.r_int (o + 3) b

let put_str r o k s = Array.unsafe_set r.r_str ((o lsr 1) + k) s

(* Compartments, owners and contexts are the tracker's label ids. *)
type t = {
  mutable dumps_rev : dump list;  (* newest first *)
  mutable ndumps : int;
  (* ingest state *)
  tracker : Obs.Tracker.t;
  l_kernel : int;
  l_allocator : int;
  mutable irq_entered : int;  (* cycle of the undispatched Irq_enter, -1 = none *)
  sizes : imap;  (* live base -> size, owner *)
  freed_owner : imap;  (* base freed, awaiting quarantine -> owner *)
  quar : imap;  (* base -> cycle quarantined, owner *)
  mutable quar_bytes : int;
  mutable quar_chunks : int;
  mutable stats : cstat option array;  (* by label *)
  (* the four global histograms *)
  call_lat : hist;
  irq_lat : hist;
  alloc_sz : hist;
  quar_res : hist;
  recent : ring;  (* bounded ring of recent events *)
  mutable recent_head : int;
}

let create () =
  let tracker = Obs.Tracker.create () in
  {
    dumps_rev = [];
    ndumps = 0;
    tracker;
    l_kernel = Obs.Tracker.intern tracker "kernel";
    l_allocator = Obs.Tracker.intern tracker "allocator";
    irq_entered = -1;
    sizes = imap_create ();
    freed_owner = imap_create ();
    quar = imap_create ();
    quar_bytes = 0;
    quar_chunks = 0;
    stats = Array.make 16 None;
    call_lat = hist_create ();
    irq_lat = hist_create ();
    alloc_sz = hist_create ();
    quar_res = hist_create ();
    recent = ring_create ();
    recent_head = 0;
  }

let call_latency t = t.call_lat
let irq_latency t = t.irq_lat
let alloc_size t = t.alloc_sz
let quarantine_residency t = t.quar_res

(* Every label that has a stats row, with it. *)
let fold_stats t f acc =
  let acc = ref acc in
  Array.iteri
    (fun l -> function Some s -> acc := f (Obs.Tracker.label t.tracker l) s !acc | None -> ())
    t.stats;
  !acc

let comp_counters t =
  fold_stats t (fun k s acc -> (k, s.cs_calls, s.cs_faults, s.cs_reboots) :: acc) []
  |> List.sort compare

(* A label's row, created on first use. *)
let stat_of t l =
  let n = Array.length t.stats in
  if l >= n then begin
    let a = Array.make (max (l + 1) (2 * n)) None in
    Array.blit t.stats 0 a 0 n;
    t.stats <- a
  end;
  match Array.unsafe_get t.stats l with
  | Some s -> s
  | None ->
      let s = new_cstat () in
      t.stats.(l) <- Some s;
      s

let stat t comp = stat_of t (Obs.Tracker.intern t.tracker comp)

let ingest t ~cycle kind =
  let r = t.recent in
  let o = (t.recent_head land (recent_cap - 1)) lsl 2 in
  let ctx = Obs.Tracker.context t.tracker lsl code_bits in
  t.recent_head <- t.recent_head + 1;
  (* One dispatch records the slot and folds the event; the tracker
     steps last, so a Call_leave still sees the frame it pops. *)
  (match kind with
  | Obs.Instr_sample { instret } -> put r o cycle ctx instret 0
  | Irq_enter { irq } ->
      put r o cycle (ctx lor 1) irq 0;
      if t.irq_entered < 0 then t.irq_entered <- cycle
  | Irq_exit { irq } -> put r o cycle (ctx lor 2) irq 0
  | Revoker_quantum { granules; next } -> put r o cycle (ctx lor 3) granules next
  | Revoker_done { epoch } -> put r o cycle (ctx lor 4) epoch 0
  | Fault_note { note } ->
      put r o cycle (ctx lor 5) 0 0;
      put_str r o 0 note
  | Switcher_call { tid } -> put r o cycle (ctx lor 6) tid 0
  | Switcher_return { tid } -> put r o cycle (ctx lor 7) tid 0
  | Switcher_abort { tid } -> put r o cycle (ctx lor 8) tid 0
  | Call_enter { caller; callee; entry; tid } ->
      let l = Obs.Tracker.intern t.tracker callee in
      put r o cycle (ctx lor 9) tid l;
      put_str r o 0 caller;
      put_str r o 1 entry;
      let s = stat_of t l in
      s.cs_calls <- s.cs_calls + 1
  | Call_leave { callee; tid; faulted } ->
      let l = Obs.Tracker.intern t.tracker callee in
      put r o cycle (ctx lor if faulted then 11 else 10) tid l;
      let s = stat_of t l in
      if faulted then s.cs_faults <- s.cs_faults + 1;
      let entered = Obs.Tracker.innermost_cycle t.tracker tid in
      if entered <> min_int then begin
        let d = cycle - entered in
        hist_add t.call_lat d;
        hist_add s.cs_lat d
      end
  | Thread_dispatch { tid; name } ->
      put r o cycle (ctx lor 12) tid 0;
      put_str r o 0 name;
      if t.irq_entered >= 0 then begin
        hist_add t.irq_lat (cycle - t.irq_entered);
        t.irq_entered <- -1
      end
  | Thread_block { tid } -> put r o cycle (ctx lor 13) tid 0
  | Thread_wake { tid; reason } ->
      put r o cycle (ctx lor 14) tid 0;
      put_str r o 0 reason
  | Sched_idle -> put r o cycle (ctx lor 15) 0 0
  | Futex_wait { addr; tid } -> put r o cycle (ctx lor 16) addr tid
  | Futex_wake { addr; woken } -> put r o cycle (ctx lor 17) addr woken
  | Alloc { base; size } ->
      put r o cycle (ctx lor 18) base size;
      let owner = Obs.Tracker.owner t.tracker ~except:t.l_allocator in
      imap_set t.sizes base size owner;
      hist_add t.alloc_sz size;
      let s = stat_of t owner in
      s.cs_live <- s.cs_live + size;
      if s.cs_live > s.cs_hwm then s.cs_hwm <- s.cs_live
  | Free { base; size } ->
      put r o cycle (ctx lor 19) base size;
      let i = imap_find t.sizes base in
      if i >= 0 then begin
        let owner = t.sizes.v2.(i) in
        imap_remove_at t.sizes i;
        imap_set t.freed_owner base owner 0;
        let s = stat_of t owner in
        s.cs_live <- s.cs_live - size
      end
  | Quarantine { base; size } ->
      put r o cycle (ctx lor 20) base size;
      let owner =
        let i = imap_find t.freed_owner base in
        if i >= 0 then begin
          let o = t.freed_owner.v1.(i) in
          imap_remove_at t.freed_owner i;
          o
        end
        else
          let i = imap_find t.sizes base in
          if i >= 0 then t.sizes.v2.(i) else t.l_kernel
      in
      imap_set t.quar base cycle owner;
      t.quar_bytes <- t.quar_bytes + size;
      t.quar_chunks <- t.quar_chunks + 1
  | Release { base; size } ->
      put r o cycle (ctx lor 21) base size;
      let i = imap_find t.quar base in
      if i >= 0 then begin
        let entered = t.quar.v1.(i) and owner = t.quar.v2.(i) in
        imap_remove_at t.quar i;
        t.quar_bytes <- t.quar_bytes - size;
        t.quar_chunks <- t.quar_chunks - 1;
        let d = cycle - entered in
        hist_add t.quar_res d;
        hist_add (stat_of t owner).cs_quar d
      end);
  Obs.Tracker.step t.tracker ~cycle kind

(* The event in ring slot [i], put back together. *)
let kind_at t i : Obs.kind =
  let r = t.recent and o = i lsl 2 in
  let a = r.r_int.{o + 2} and b = r.r_int.{o + 3} and s = r.r_str.(2 * i) in
  match r.r_int.{o + 1} land ((1 lsl code_bits) - 1) with
  | 0 -> Instr_sample { instret = a }
  | 1 -> Irq_enter { irq = a }
  | 2 -> Irq_exit { irq = a }
  | 3 -> Revoker_quantum { granules = a; next = b }
  | 4 -> Revoker_done { epoch = a }
  | 5 -> Fault_note { note = s }
  | 6 -> Switcher_call { tid = a }
  | 7 -> Switcher_return { tid = a }
  | 8 -> Switcher_abort { tid = a }
  | 9 ->
      Call_enter
        { caller = s; callee = Obs.Tracker.label t.tracker b; entry = r.r_str.((2 * i) + 1); tid = a }
  | (10 | 11) as c -> Call_leave { callee = Obs.Tracker.label t.tracker b; tid = a; faulted = c = 11 }
  | 12 -> Thread_dispatch { tid = a; name = s }
  | 13 -> Thread_block { tid = a }
  | 14 -> Thread_wake { tid = a; reason = s }
  | 15 -> Sched_idle
  | 16 -> Futex_wait { addr = a; tid = b }
  | 17 -> Futex_wake { addr = a; woken = b }
  | 18 -> Alloc { base = a; size = b }
  | 19 -> Free { base = a; size = b }
  | 20 -> Quarantine { base = a; size = b }
  | _ -> Release { base = a; size = b }

(* Ring slot [i] ran in compartment [l] (named [comp]), or names it as
   a party to a call. *)
let concerns t i l comp =
  let r = t.recent and o = i lsl 2 in
  let tag = r.r_int.{o + 1} in
  tag lsr code_bits = l
  ||
  match tag land ((1 lsl code_bits) - 1) with
  | 9 -> r.r_int.{o + 3} = l || r.r_str.(2 * i) = comp
  | 10 | 11 -> r.r_int.{o + 3} = l
  | _ -> false

(* Snapshot/restore for Machine.snapshot: deep-copy every mutable piece
   of ingest state into a closure that writes it back in place.  The
   ring's kinds are immutable, so they can be shared; [hist], [cstat],
   [imap] and [dump] carry mutable fields and are copied field-by-field. *)

let restore_hist_into dst src =
  dst.h_n <- src.h_n;
  dst.h_sum <- src.h_sum;
  dst.h_min <- src.h_min;
  dst.h_max <- src.h_max;
  Array.blit src.h_buckets 0 dst.h_buckets 0 nbuckets

let copy_stats = Array.map (Option.map copy_cstat)

let snapshot t =
  let dumps = List.map (fun d -> (d, d.d_rebooted)) t.dumps_rev in
  let ndumps = t.ndumps in
  let restore_tracker = Obs.Tracker.snapshot t.tracker in
  let irq_entered = t.irq_entered in
  let sizes = imap_copy t.sizes in
  let freed_owner = imap_copy t.freed_owner in
  let quar = imap_copy t.quar in
  let quar_bytes = t.quar_bytes in
  let quar_chunks = t.quar_chunks in
  let stats = copy_stats t.stats in
  let call_lat = hist_copy t.call_lat in
  let irq_lat = hist_copy t.irq_lat in
  let alloc_sz = hist_copy t.alloc_sz in
  let quar_res = hist_copy t.quar_res in
  let recent = ring_create () in
  ring_blit ~src:t.recent ~dst:recent;
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
    t.irq_entered <- irq_entered;
    imap_restore t.sizes ~from:sizes;
    imap_restore t.freed_owner ~from:freed_owner;
    imap_restore t.quar ~from:quar;
    t.quar_bytes <- quar_bytes;
    t.quar_chunks <- quar_chunks;
    t.stats <- copy_stats stats;
    restore_hist_into t.call_lat call_lat;
    restore_hist_into t.irq_lat irq_lat;
    restore_hist_into t.alloc_sz alloc_sz;
    restore_hist_into t.quar_res quar_res;
    ring_blit ~src:recent ~dst:t.recent;
    t.recent_head <- recent_head

(* How many recent-ring lines a dump carries. *)
let recent_keep = 16

(* The dump keeps the selected events, put back together: the ring
   slots are overwritten later, and the lines render only when the dump
   is read. *)
let recent_for t comp =
  let l = Obs.Tracker.intern t.tracker comp in
  let n = min t.recent_head recent_cap in
  let acc = ref [] and kept = ref 0 in
  (* newest first, stop once we have [recent_keep] *)
  (try
     for i = 1 to n do
       let slot = (t.recent_head - i) land (recent_cap - 1) in
       if concerns t slot l comp then begin
         acc := { Obs.cycle = t.recent.r_int.{slot lsl 2}; kind = kind_at t slot } :: !acc;
         incr kept;
         if !kept >= recent_keep then raise Exit
       end
     done
   with Exit -> ());
  !acc

let record_fault t ~cycle ~comp ~thread ~cause ~addr ~pc ~instr ~regs
    ~reg_value ~handler_ran =
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
      d_reg_names = regs;
      d_reg_value = reg_value;
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

let regs d = List.mapi (fun i r -> (r, d.d_reg_value i)) (Array.to_list d.d_reg_names)

let recent_lines d = List.map (fun e -> Obs.event_line ~cycle:e.Obs.cycle e.kind) d.d_recent

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
      ("registers", Json.Obj (List.map (fun (r, v) -> (r, Json.Str v)) (regs d)));
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
      ("recent", Json.List (List.map (fun l -> Json.Str l) (recent_lines d)));
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
  if d.d_reg_names <> [||] then begin
    fprintf ppf "registers   :@.";
    List.iter (fun (r, v) -> fprintf ppf "  %-5s %s@." r v) (regs d)
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
    List.iter (fun l -> fprintf ppf "  %s@." l) (recent_lines d)
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
  let rows = fold_stats t (fun k s acc -> (k, s) :: acc) [] in
  let names =
    List.sort_uniq compare (List.map fst rows @ List.map fst attrib)
  in
  ( List.map
      (fun comp ->
        let s =
          Option.value (List.assoc_opt comp rows) ~default:(new_cstat ())
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
