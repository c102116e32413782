module Cap = Capability

type err =
  | No_memory
  | Quota_exceeded
  | Bad_capability
  | Claims_held
  | Wrong_key

let err_code = function
  | No_memory -> -1
  | Quota_exceeded -> -2
  | Bad_capability -> -3
  | Claims_held -> -4
  | Wrong_key -> -5

let err_of_code = function
  | -1 -> Some No_memory
  | -2 -> Some Quota_exceeded
  | -3 -> Some Bad_capability
  | -4 -> Some Claims_held
  | -5 -> Some Wrong_key
  | _ -> None

let pp_err ppf e =
  Fmt.string ppf
    (match e with
    | No_memory -> "out of memory"
    | Quota_exceeded -> "quota exceeded"
    | Bad_capability -> "bad capability"
    | Claims_held -> "claims held"
    | Wrong_key -> "wrong key")

let comp_name = "allocator"
let lib_name = "token"

(* Chunk header: 16 bytes before each payload.
   +0 payload size, +4 state (0 free / 1 live / 2 quarantined),
   +8 next-free link (free chunks), +12 prev-free link. *)
let header_size = 16

let st_free = 0
let st_live = 1
let st_quarantined = 2

let firmware_compartment () =
  Firmware.compartment comp_name ~code_loc:420 ~globals_size:56
    ~entries:
      [
        Firmware.entry "heap_allocate" ~arity:2 ~min_stack:128;
        Firmware.entry "heap_free" ~arity:2 ~min_stack:128;
        Firmware.entry "heap_claim" ~arity:2 ~min_stack:128;
        Firmware.entry "heap_free_all" ~arity:1 ~min_stack:128;
        Firmware.entry "heap_available" ~arity:0 ~min_stack:64;
        Firmware.entry "heap_quota_remaining" ~arity:1 ~min_stack:64;
        Firmware.entry "token_key_new" ~arity:0 ~min_stack:64;
        Firmware.entry "token_allocate_sealed" ~arity:3 ~min_stack:128;
        Firmware.entry "token_free_sealed" ~arity:3 ~min_stack:128;
      ]

let firmware_token_lib () =
  Firmware.compartment lib_name ~kind:Firmware.Library ~code_loc:60
    ~entries:[ Firmware.entry "unseal" ~arity:2 ~min_stack:0 ]

let client_imports =
  Firmware.client_imports (firmware_compartment ())
  @ Firmware.client_imports (firmware_token_lib ())

let alloc_capability ~name ~quota =
  { Firmware.sobj_name = name; sealed_as = "allocator"; payload = [ quota; 0 ] }

(* The live allocation table, in flat int arrays so that allocating,
   claiming and freeing box nothing that outlives the operation.  Entry
   [s] (0 <= s < [n]) is one live allocation, [stride] ints of [e] from
   [s * stride]: payload address, size (bytes, 8-aligned), and its first
   owner's quota and reference count (a quota is named by its sealed
   object's payload address).  Any further owners (claims under another
   quota, which are rare) are (quota, count) pairs in the boxed
   [more.(s)]; a quota appears at most once across the two.  [index]
   maps a payload address to its entry.  Removal moves the last entry
   into the hole, which rebinds an existing key and so leaves [index]'s
   iteration order alone: [free_all] and a snapshot restore walk
   [index], so allocations are released and re-added in the order the
   allocator's table of records always had. *)
module Table = struct
  let stride = 4
  let f_base = 0
  let f_size = 1
  let f_owner = 2
  let f_count = 3

  type t = {
    index : (int, int) Hashtbl.t;
    mutable n : int;
    mutable e : int array;
    mutable more : (int * int) list array;
  }

  let create () =
    { index = Hashtbl.create 64; n = 0; e = Array.make (32 * stride) 0; more = Array.make 32 [] }

  let length t = t.n
  let[@inline] get t s f = t.e.((s * stride) + f)
  let[@inline] set t s f v = t.e.((s * stride) + f) <- v
  let base t s = get t s f_base
  let size t s = get t s f_size

  (* The entry of payload address [b], or -1. *)
  let slot_of t b = try Hashtbl.find t.index b with Not_found -> -1

  let reserve t k =
    if k > Array.length t.more then begin
      let cap = Int.max k (2 * Array.length t.more) in
      let e = Array.make (cap * stride) 0 and more = Array.make cap [] in
      Array.blit t.e 0 e 0 (t.n * stride);
      Array.blit t.more 0 more 0 t.n;
      t.e <- e;
      t.more <- more
    end

  (* A new entry with no references yet; its slot. *)
  let add t ~base ~size =
    reserve t (t.n + 1);
    let s = t.n in
    t.n <- s + 1;
    set t s f_base base;
    set t s f_size size;
    set t s f_owner 0;
    set t s f_count 0;
    Hashtbl.replace t.index base s;
    s

  let remove t s =
    let last = t.n - 1 in
    Hashtbl.remove t.index (base t s);
    if s <> last then begin
      Array.blit t.e (last * stride) t.e (s * stride) stride;
      t.more.(s) <- t.more.(last);
      Hashtbl.replace t.index (base t s) s
    end;
    t.more.(last) <- [];
    t.n <- last

  (* References *)

  let owns t s q = get t s f_count > 0 && get t s f_owner = q

  let refs_of t s q =
    if owns t s q then get t s f_count
    else Option.value ~default:0 (List.assoc_opt q t.more.(s))

  (* Set quota [q]'s count on entry [s] (it holds [refs_of t s q]). *)
  let set_refs t s q n =
    if owns t s q || (get t s f_count = 0 && not (List.mem_assoc q t.more.(s))) then begin
      set t s f_owner q;
      set t s f_count n
    end
    else
      let rest = List.remove_assoc q t.more.(s) in
      t.more.(s) <- (if n = 0 then rest else (q, n) :: rest)

  let add_ref t s q = set_refs t s q (refs_of t s q + 1)

  let del_ref t s q =
    let n = refs_of t s q in
    n > 0
    && begin
         set_refs t s q (n - 1);
         true
       end

  let total_refs t s = List.fold_left (fun a (_, n) -> a + n) (get t s f_count) t.more.(s)

  (* Every (quota, count) reference of entry [s]. *)
  let iter_refs t s f =
    if get t s f_count > 0 then f (get t s f_owner) (get t s f_count);
    List.iter (fun (q, n) -> f q n) t.more.(s)

  (* The payload addresses quota [q] holds, in release order. *)
  let owned_by t q =
    Hashtbl.fold (fun b s acc -> if refs_of t s q > 0 then b :: acc else acc) t.index []

  (* Capture: the entries in release order; a restore re-adds them in
     that order to a reset [index]. *)
  let capture t =
    let order = Array.of_list (Hashtbl.fold (fun _ s acc -> s :: acc) t.index []) in
    let k = Array.length order in
    let e = Array.make (k * stride) 0 in
    Array.iteri (fun i s -> Array.blit t.e (s * stride) e (i * stride) stride) order;
    let more = Array.map (fun s -> t.more.(s)) order in
    fun () ->
      Array.fill t.more 0 t.n [];
      Hashtbl.reset t.index;
      reserve t k;
      t.n <- k;
      Array.blit e 0 t.e 0 (k * stride);
      Array.blit more 0 t.more 0 k;
      for s = 0 to k - 1 do
        Hashtbl.replace t.index (base t s) s
      done
end

(* The quarantine: (chunk header address, release epoch) pairs, oldest
   first, as the ints [head, tail) of [a]. *)
module Fifo = struct
  type t = { mutable a : int array; mutable head : int; mutable tail : int }

  let create () = { a = Array.make 128 0; head = 0; tail = 0 }
  let is_empty f = f.head = f.tail
  let chunk f = f.a.(f.head)
  let epoch f = f.a.(f.head + 1)
  let pop f = f.head <- f.head + 2

  let push f c e =
    if f.tail = Array.length f.a then begin
      (* Slide the entries to the front, into a doubled array when they
         fill more than half of it. *)
      let live = f.tail - f.head in
      let a = if 2 * live > Array.length f.a then Array.make (2 * live) 0 else f.a in
      Array.blit f.a f.head a 0 live;
      f.a <- a;
      f.head <- 0;
      f.tail <- live
    end;
    f.a.(f.tail) <- c;
    f.a.(f.tail + 1) <- e;
    f.tail <- f.tail + 2

  let capture f =
    let live = Array.sub f.a f.head (f.tail - f.head) in
    let n = Array.length live in
    fun () ->
      if Array.length f.a < n then f.a <- Array.make n 0;
      Array.blit live 0 f.a 0 n;
      f.head <- 0;
      f.tail <- n
end

type t = {
  kernel : Kernel.t;
  machine : Machine.t;
  heap_base : int;
  heap_limit : int;
  priv : Cap.t;  (** the allocator's privileged capability over the heap *)
  hw_key : Cap.t;  (** the reserved hardware sealing type (token API) *)
  alloc_vt : int;  (** virtual type of allocation capabilities, -1 if none *)
  drain_per_op : int;
  mutable free_head : int;  (** address of first free chunk header, 0 = none *)
  allocs : Table.t;  (** live allocations, by payload address *)
  quarantine : Fifo.t;  (** chunk header addr, release epoch *)
  mutable quarantined_bytes : int;
  mutable next_dynamic_vt : int;
  mutable oom_hook : (size:int -> bool) option;
}

let set_oom_hook t h = t.oom_hook <- h

(* Raw header access, cycle-charged through the privileged capability. *)
let hdr_load t addr off = Machine.load t.machine ~auth:t.priv ~addr:(addr + off) ~size:4
let hdr_store t addr off v =
  Machine.store t.machine ~auth:t.priv ~addr:(addr + off) ~size:4 v

let chunk_size t c = hdr_load t c 0
let chunk_state t c = hdr_load t c 4

let heap_size t = t.heap_limit - t.heap_base
let heap_bounds t = (t.heap_base, t.heap_limit)
let quarantined_bytes t = t.quarantined_bytes
let live_allocations t = Table.length t.allocs

let free_bytes t =
  let rec go c acc =
    if c = 0 then acc else go (hdr_load t c 8) (acc + chunk_size t c)
  in
  go t.free_head 0

(* Uncharged header reads for the integrity walks below: auditing the
   heap must not advance the clock (a fault-injection campaign checks
   invariants with the injector disarmed and the world stopped). *)
let hdr_peek t addr off =
  Memory.load_priv (Machine.mem t.machine) ~addr:(addr + off) ~size:4

(* Walk the heap address space chunk by chunk.  Returns header address,
   payload size and state for each chunk, in address order.  Raises
   [Failure] on a structurally broken heap (bad size / unknown state). *)
let heap_chunks t =
  let rec go c acc =
    if c = t.heap_limit then List.rev acc
    else if c + header_size > t.heap_limit then
      failwith (Printf.sprintf "chunk header at 0x%x overruns the heap" c)
    else
      let size = hdr_peek t c 0 in
      let st = hdr_peek t c 4 in
      if size < 0 || c + header_size + size > t.heap_limit then
        failwith (Printf.sprintf "chunk at 0x%x has bad size %d" c size)
      else
        let state =
          if st = st_free then `Free
          else if st = st_live then `Live
          else if st = st_quarantined then `Quarantined
          else failwith (Printf.sprintf "chunk at 0x%x has bad state %d" c st)
        in
        go (c + header_size + size) ((c, size, state) :: acc)
  in
  go t.heap_base []

let live_payload_regions t =
  let a = t.allocs in
  List.init (Table.length a) (fun s -> (Table.base a s, Table.size a s))
  |> List.sort compare


(* Free-list manipulation (doubly linked through header words 8/12). *)

let freelist_push t c =
  hdr_store t c 4 st_free;
  hdr_store t c 8 t.free_head;
  hdr_store t c 12 0;
  if t.free_head <> 0 then hdr_store t t.free_head 12 c;
  t.free_head <- c

let freelist_remove t c =
  let next = hdr_load t c 8 and prev = hdr_load t c 12 in
  if prev <> 0 then hdr_store t prev 8 next else t.free_head <- next;
  if next <> 0 then hdr_store t next 12 prev

(* Merge a free chunk with free right neighbours (simple coalescing). *)
let rec merge_right t c =
  let next_chunk = c + header_size + chunk_size t c in
  if next_chunk + header_size <= t.heap_limit && chunk_state t next_chunk = st_free
  then begin
    freelist_remove t next_chunk;
    hdr_store t c 0 (chunk_size t c + header_size + chunk_size t next_chunk);
    hdr_store t next_chunk 4 st_live (* scrub stale header *);
    merge_right t c
  end

(* Quarantine draining: release entries whose revocation epoch passed. *)

let try_release t =
  let q = t.quarantine in
  (not (Fifo.is_empty q))
  && Machine.revoker_epoch t.machine >= Fifo.epoch q
  &&
  let c = Fifo.chunk q in
  Fifo.pop q;
  let size = chunk_size t c in
  t.quarantined_bytes <- t.quarantined_bytes - size;
  Memory.clear_revoked (Machine.mem t.machine) ~addr:(c + header_size) ~len:size;
  freelist_push t c;
  merge_right t c;
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Release { base = c + header_size; size });
  true

let drain t =
  let rec go n = if n > 0 && try_release t then go (n - 1) in
  go t.drain_per_op

(* Allocation core (first fit + split). *)

let align8 n = (n + 7) / 8 * 8

let find_fit t size =
  let rec go c =
    if c = 0 then None
    else begin
      Machine.tick t.machine 2;
      if chunk_size t c >= size then Some c else go (hdr_load t c 8)
    end
  in
  go t.free_head

let split t c size =
  let total = chunk_size t c in
  if total >= size + header_size + 8 then begin
    let rest = c + header_size + size in
    hdr_store t c 0 size;
    hdr_store t rest 0 (total - size - header_size);
    hdr_store t rest 4 st_free;
    freelist_push t rest
  end

let alloc_chunk t size =
  match find_fit t size with
  | None -> None
  | Some c ->
      freelist_remove t c;
      split t c size;
      hdr_store t c 4 st_live;
      hdr_store t c 8 0;
      hdr_store t c 12 0;
      Some c

(* Stall for the revoker when memory is exhausted but quarantine holds
   releasable memory (the paper's pathological regime in Fig. 6b). *)
let stall_for_revocation t =
  if Fifo.is_empty t.quarantine then false
  else begin
    Machine.revoker_kick t.machine;
    let release_epoch = Fifo.epoch t.quarantine in
    while Machine.revoker_epoch t.machine < release_epoch do
      Machine.tick t.machine 128;
      Machine.revoker_kick t.machine
    done;
    while try_release t do () done;
    true
  end

(* Capability plumbing *)

let cap_for t ~addr ~len =
  Cap.exn (Cap.set_bounds (Cap.exn (Cap.with_address t.priv addr)) ~length:len)

let user_cap t ~addr ~len =
  Cap.exn (Cap.and_perms (cap_for t ~addr ~len) Perm.Set.read_write)

(* An opened allocation capability: the quota identity is the payload
   address, and the unsealed capability itself is the authority used to
   read and update the quota words (the allocator has no ambient rights
   outside the heap). *)
type quota = { q_addr : int; q_auth : Cap.t }

(* Validate and open an allocation capability (a sealed object of the
   "allocator" virtual type). *)
let open_alloc_cap t v =
  if not (Cap.tag v) then Error Bad_capability
  else
    match Cap.otype v with
    | Cap.Otype.Data d when d = Abi.otype_token -> (
        match Cap.unseal ~key:t.hw_key v with
        | Error _ -> Error Bad_capability
        | Ok u ->
            let base = Cap.base u in
            let vt = Machine.load t.machine ~auth:u ~addr:base ~size:4 in
            if vt <> t.alloc_vt then Error Bad_capability
            else Ok { q_addr = base + 8; q_auth = u })
    | _ -> Error Bad_capability

let quota_of t q = Machine.load t.machine ~auth:q.q_auth ~addr:q.q_addr ~size:4
let used_of t q = Machine.load t.machine ~auth:q.q_auth ~addr:(q.q_addr + 4) ~size:4
let set_used t q v =
  Machine.store t.machine ~auth:q.q_auth ~addr:(q.q_addr + 4) ~size:4 v

let charge_quota t q size =
  let quota = quota_of t q and used = used_of t q in
  if used + size > quota then Error Quota_exceeded
  else begin
    set_used t q (used + size);
    Ok ()
  end

let refund_quota t q size = set_used t q (max 0 (used_of t q - size))

(* Integrity audit: the allocator's own data structures checked against
   the heap (fault-campaign invariant). *)
let check_integrity t =
  match heap_chunks t with
  | exception Failure msg -> Error msg
  | chunks -> (
      let errs = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
      (* Free-list consistency: every listed chunk is marked free and is
         a real chunk; no cycles. *)
      let on_list = Hashtbl.create 16 in
      let rec walk c =
        if c <> 0 then
          if Hashtbl.mem on_list c then fail "free-list cycle at 0x%x" c
          else begin
            Hashtbl.replace on_list c ();
            if not (List.exists (fun (a, _, st) -> a = c && st = `Free) chunks)
            then fail "free-list entry 0x%x is not a free chunk" c;
            walk (hdr_load t c 8)
          end
      in
      walk t.free_head;
      let live = ref 0 and qbytes = ref 0 in
      let a = t.allocs in
      List.iter
        (fun (c, size, st) ->
          match st with
          | `Free ->
              if not (Hashtbl.mem on_list c) then
                fail "free chunk 0x%x is unreachable from the free list" c
          | `Quarantined -> qbytes := !qbytes + size
          | `Live ->
              incr live;
              let s = Table.slot_of a (c + header_size) in
              (* Chunks may carry an unsplittable tail of slack, but
                 never less than the allocation nor a full chunk more. *)
              if s < 0 then fail "live chunk 0x%x has no allocation-table entry" c
              else
                let a_size = Table.size a s in
                if size < a_size || size >= a_size + header_size + 8 then
                  fail "live chunk 0x%x: header size %d but table size %d" c size
                    a_size)
        chunks;
      if !live <> Table.length a then
        fail "allocation table has %d entries but %d live chunks" (Table.length a)
          !live;
      if !qbytes <> t.quarantined_bytes then
        fail "quarantine accounting: %d bytes walked, %d recorded" !qbytes
          t.quarantined_bytes;
      for s = 0 to Table.length a - 1 do
        if Table.total_refs a s <= 0 then
          fail "live allocation 0x%x has no references" (Table.base a s)
      done;
      match !errs with [] -> Ok () | e -> Error (String.concat "; " e))

(* Quota conservation: for each given allocation capability (label,
   payload address of the sealed quota object), the recorded [used]
   counter must equal the bytes charged by live references. *)
let check_quota_conservation t ~quotas =
  let charged = Hashtbl.create 8 in
  let a = t.allocs in
  for s = 0 to Table.length a - 1 do
    Table.iter_refs a s (fun q n ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt charged q) in
        Hashtbl.replace charged q (cur + (n * Table.size a s)))
  done;
  let errs =
    List.filter_map
      (fun (label, q_addr) ->
        let used =
          Memory.load_priv (Machine.mem t.machine) ~addr:(q_addr + 4) ~size:4
        in
        let expect = Option.value ~default:0 (Hashtbl.find_opt charged q_addr) in
        if used <> expect then
          Some
            (Printf.sprintf "quota %s: used=%d but live references charge %d"
               label used expect)
        else None)
      quotas
  in
  match errs with [] -> Ok () | e -> Error (String.concat "; " e)

(* The actual release of table entry [s]: zero, set revocation bits,
   quarantine. *)
let release_allocation t s =
  let a_base = Table.base t.allocs s and a_size = Table.size t.allocs s in
  let c = a_base - header_size in
  (* The chunk can be up to [header_size + 7] bytes larger than the
     allocation when the fit was too tight to split; quarantine
     bookkeeping is in chunk sizes so it matches what try_release later
     reads back from the header. *)
  let csize = chunk_size t c in
  Machine.zero t.machine ~auth:t.priv ~addr:a_base ~len:csize;
  (* Per-granule: revocation-bit read-modify-write through the separate
     SRAM region plus quarantine bookkeeping (calibrated, see
     EXPERIMENTS.md). *)
  Machine.tick t.machine (32 * (a_size / Memory.granule_size));
  Memory.set_revoked (Machine.mem t.machine) ~addr:a_base ~len:csize;
  hdr_store t c 4 st_quarantined;
  let epoch =
    Machine.revoker_epoch t.machine
    + if Machine.revoker_busy t.machine then 2 else 1
  in
  Fifo.push t.quarantine c epoch;
  t.quarantined_bytes <- t.quarantined_bytes + csize;
  Table.remove t.allocs s;
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Quarantine { base = a_base; size = csize });
  Machine.revoker_kick t.machine

(* Ephemeral claims: consult every thread's hazard slots (§3.2.5). *)
let ephemeral_claimed t ~a_base ~a_size =
  let n = Kernel.thread_count t.kernel in
  let rec thread_loop i =
    if i >= n then false
    else
      let hazards = Kernel.ephemeral_claims t.kernel ~thread:i in
      if
        List.exists
          (fun h ->
            Cap.tag h
            && Cap.base h < a_base + a_size
            && Cap.top h > a_base)
          hazards
      then true
      else thread_loop (i + 1)
  in
  thread_loop 0

(* Entry implementations (run inside the allocator compartment). *)

let do_allocate t q size =
  (* Fixed bookkeeping plus per-granule work (header init, zero-state
     verification): calibrated against the paper's measured allocator. *)
  Machine.tick t.machine (500 + (9 * (align8 (max size 1) / 8)));
  if size <= 0 then Error Bad_capability
  else if
    match t.oom_hook with Some f -> f ~size | None -> false
  then Error No_memory
  else
    let size = align8 size in
    match charge_quota t q size with
    | Error _ as e -> e
    | Ok () -> (
        drain t;
        let attempt () = alloc_chunk t size in
        let chunk =
          match attempt () with
          | Some c -> Some c
          | None -> if stall_for_revocation t then attempt () else None
        in
        match chunk with
        | None ->
            refund_quota t q size;
            Error No_memory
        | Some c ->
            let base = c + header_size in
            let s = Table.add t.allocs ~base ~size in
            Table.add_ref t.allocs s q.q_addr;
            if Machine.tracing t.machine then
              Machine.emit t.machine (Obs.Alloc { base; size });
            (* Memory was zeroed in free(); allocation returns it as-is. *)
            Ok (user_cap t ~addr:base ~len:size))

(* The table entry of a heap pointer, or -1. *)
let find_alloc t v =
  if (not (Cap.tag v)) || Cap.is_sealed v then -1 else Table.slot_of t.allocs (Cap.base v)

let do_free t q v =
  Machine.tick t.machine 400;
  drain t;
  let a = t.allocs in
  let s = find_alloc t v in
  if s < 0 then Error Bad_capability
  else
    let a_base = Table.base a s and a_size = Table.size a s in
    if ephemeral_claimed t ~a_base ~a_size then Error Claims_held
    else if not (Table.del_ref a s q.q_addr) then Error Bad_capability
    else begin
      refund_quota t q a_size;
      if Machine.tracing t.machine then
        Machine.emit t.machine (Obs.Free { base = a_base; size = a_size });
      if Table.total_refs a s = 0 then release_allocation t s;
      Ok ()
    end

let do_claim t q v =
  Machine.tick t.machine 1400 (* claims table maintenance *);
  let s = find_alloc t v in
  if s < 0 then Error Bad_capability
  else
    match charge_quota t q (Table.size t.allocs s) with
    | Error _ as e -> e
    | Ok () ->
        Table.add_ref t.allocs s q.q_addr;
        Ok ()

let do_free_all t q =
  let a = t.allocs in
  let victims = Table.owned_by a q.q_addr in
  let released = ref 0 in
  List.iter
    (fun base ->
      let s = Table.slot_of a base in
      for _ = 1 to Table.refs_of a s q.q_addr do
        ignore (Table.del_ref a s q.q_addr);
        refund_quota t q (Table.size a s);
        incr released
      done;
      if Table.total_refs a s = 0 then release_allocation t s)
    victims;
  !released

(* Token facet *)

let sealed_user_cap t ~addr ~len =
  (* Bounds cover header + payload; cursor at the header. *)
  Cap.exn (Cap.seal ~key:t.hw_key (user_cap t ~addr ~len))

let do_allocate_sealed t q key size =
  if
    (not (Cap.tag key))
    || (not (Cap.has_perm Perm.Seal key))
    || not (Cap.in_bounds key)
  then Error Wrong_key
  else
    let vt = Cap.address key in
    match do_allocate t q (size + 8) with
    | Error _ as e -> e
    | Ok payload_cap ->
        let base = Cap.base payload_cap in
        Machine.store t.machine ~auth:t.priv ~addr:base ~size:4 vt;
        Machine.store t.machine ~auth:t.priv ~addr:(base + 4) ~size:4 size;
        Ok (sealed_user_cap t ~addr:base ~len:(align8 (size + 8)))

let do_token_unseal t key sobj =
  if
    (not (Cap.tag key))
    || (not (Cap.has_perm Perm.Unseal key))
    || not (Cap.in_bounds key)
  then Error Wrong_key
  else
    match Cap.otype sobj with
    | Cap.Otype.Data d when d = Abi.otype_token -> (
        if not (Cap.tag sobj) then Error Bad_capability
        else
          match Cap.unseal ~key:t.hw_key sobj with
          | Error _ -> Error Bad_capability
          | Ok u ->
              let base = Cap.base u in
              let vt = Machine.load t.machine ~auth:u ~addr:base ~size:4 in
              let size = Machine.load t.machine ~auth:u ~addr:(base + 4) ~size:4 in
              if vt <> Cap.address key then Error Wrong_key
              else
                (* Return the payload, exclusive of the header, with the
                   permissions the sealed capability carried. *)
                let payload =
                  Cap.exn
                    (Cap.set_bounds
                       (Cap.exn (Cap.with_address u (base + 8)))
                       ~length:size)
                in
                Ok payload)
    | _ -> Error Bad_capability

let do_free_sealed t q key sobj =
  match do_token_unseal t key sobj with
  | Error _ as e -> e
  | Ok _payload -> (
      match Cap.unseal ~key:t.hw_key sobj with
      | Error _ -> Error Bad_capability
      | Ok u -> do_free t q u)

(* Wire results over the call boundary: tagged capability = success,
   untagged negative integer = error code. *)

let encode = function
  | Ok c -> (c, Cap.null)
  | Error e -> (Interp.int_value (err_code e), Cap.null)

let encode_unit = function
  | Ok () -> (Interp.int_value 0, Cap.null)
  | Error e -> (Interp.int_value (err_code e), Cap.null)

let decode v =
  if Cap.tag v then Ok v
  else
    match err_of_code (Interp.to_int v) with
    | Some e -> Error e
    | None -> Ok v

let decode_unit v =
  if Cap.tag v then Ok ()
  else
    let n = Interp.to_int v in
    if n = 0 then Ok ()
    else match err_of_code n with Some e -> Error e | None -> Ok ()

let install kernel ?(drain_per_op = 2) () =
  let ld = Kernel.loader kernel in
  let machine = Kernel.machine kernel in
  let heap_base = ld.Loader.heap_base and heap_limit = ld.Loader.heap_limit in
  let priv =
    Cap.exn
      (Cap.set_bounds
         (Cap.with_address_exn
            (Cap.make_root ~base:heap_base ~top:heap_limit ~perms:Perm.Set.universe)
            heap_base)
         ~length:(heap_limit - heap_base))
  in
  let alloc_vt =
    Option.value ~default:(-1) (List.assoc_opt "allocator" ld.Loader.virtual_types)
  in
  let t =
    {
      kernel;
      machine;
      heap_base;
      heap_limit;
      priv;
      hw_key = Cap.make_sealing_root ~first:Abi.otype_token ~last:Abi.otype_token;
      alloc_vt;
      drain_per_op;
      free_head = 0;
      allocs = Table.create ();
      quarantine = Fifo.create ();
      quarantined_bytes = 0;
      next_dynamic_vt =
        Loader.first_virtual_type + List.length ld.Loader.virtual_types + 64;
      oom_hook = None;
    }
  in
  (* Zero the heap at boot so reuse can never leak pre-boot data. *)
  Machine.zero machine ~auth:priv ~addr:heap_base ~len:(heap_limit - heap_base);
  hdr_store t heap_base 0 (heap_limit - heap_base - header_size);
  hdr_store t heap_base 4 st_free;
  t.free_head <- heap_base;
  (* Off-heap bookkeeping (the heap bytes themselves restore with the
     machine's memory).  Restoring writes the captured tables back into
     the live arrays, allocating nothing once they are large enough. *)
  Machine.on_snapshot machine (fun () ->
      let free_head = t.free_head in
      let allocs = Table.capture t.allocs in
      let quarantine = Fifo.capture t.quarantine in
      let quarantined_bytes = t.quarantined_bytes in
      let next_dynamic_vt = t.next_dynamic_vt in
      let oom_hook = t.oom_hook in
      fun () ->
        t.free_head <- free_head;
        allocs ();
        quarantine ();
        t.quarantined_bytes <- quarantined_bytes;
        t.next_dynamic_vt <- next_dynamic_vt;
        t.oom_hook <- oom_hook);
  let with_alloc_cap f _ctx (args : Kernel.value array) =
    Machine.tick machine 24;
    match open_alloc_cap t args.(0) with
    | Error e -> encode (Error e)
    | Ok quota -> f quota args
  in
  Kernel.implement kernel ~comp:comp_name ~entry:"heap_allocate"
    (with_alloc_cap (fun quota args ->
         encode (do_allocate t quota (Interp.to_int args.(1)))));
  Kernel.implement kernel ~comp:comp_name ~entry:"heap_free"
    (with_alloc_cap (fun quota args -> encode_unit (do_free t quota args.(1))));
  Kernel.implement kernel ~comp:comp_name ~entry:"heap_claim"
    (with_alloc_cap (fun quota args -> encode_unit (do_claim t quota args.(1))));
  Kernel.implement kernel ~comp:comp_name ~entry:"heap_free_all"
    (with_alloc_cap (fun quota _ ->
         (Interp.int_value (do_free_all t quota), Cap.null)));
  Kernel.implement kernel ~comp:comp_name ~entry:"heap_available"
    (fun _ctx _args ->
      Machine.tick machine 12;
      (Interp.int_value (free_bytes t), Cap.null));
  Kernel.implement kernel ~comp:comp_name ~entry:"heap_quota_remaining"
    (with_alloc_cap (fun quota _ ->
         (Interp.int_value (quota_of t quota - used_of t quota), Cap.null)));
  Kernel.implement kernel ~comp:comp_name ~entry:"token_key_new"
    (fun _ctx _args ->
      Machine.tick machine 420;
      let id = t.next_dynamic_vt in
      t.next_dynamic_vt <- id + 1;
      (Cap.make_root ~base:id ~top:(id + 1) ~perms:Perm.Set.sealing, Cap.null));
  Kernel.implement kernel ~comp:comp_name ~entry:"token_allocate_sealed"
    (with_alloc_cap (fun quota args ->
         Machine.tick machine 1500;
         encode (do_allocate_sealed t quota args.(1) (Interp.to_int args.(2)))));
  Kernel.implement kernel ~comp:comp_name ~entry:"token_free_sealed"
    (with_alloc_cap (fun quota args ->
         encode_unit (do_free_sealed t quota args.(1) args.(2))));
  Kernel.implement kernel ~comp:lib_name ~entry:"unseal" (fun _ctx args ->
      Machine.tick machine 18;
      encode (do_token_unseal t args.(0) args.(1)));
  t

(* Client wrappers: compartment calls from the caller's context. *)

let call_decode ctx import args =
  match Kernel.call1 ctx ~import args with
  | Ok v -> decode v
  | Error _ -> Error Bad_capability

let allocate ctx ~alloc_cap size =
  call_decode ctx "allocator.heap_allocate" [ alloc_cap; Interp.int_value size ]

let free ctx ~alloc_cap v =
  match Kernel.call1 ctx ~import:"allocator.heap_free" [ alloc_cap; v ] with
  | Ok r -> decode_unit r
  | Error _ -> Error Bad_capability

let claim ctx ~alloc_cap v =
  match Kernel.call1 ctx ~import:"allocator.heap_claim" [ alloc_cap; v ] with
  | Ok r -> decode_unit r
  | Error _ -> Error Bad_capability

let free_all ctx ~alloc_cap =
  match Kernel.call1 ctx ~import:"allocator.heap_free_all" [ alloc_cap ] with
  | Ok r -> Ok (Interp.to_int r)
  | Error _ -> Error Bad_capability

let quota_remaining ctx ~alloc_cap =
  match Kernel.call1 ctx ~import:"allocator.heap_quota_remaining" [ alloc_cap ] with
  | Ok r ->
      let n = Interp.to_int r in
      if n < 0 then Error (Option.value ~default:Bad_capability (err_of_code n))
      else Ok n
  | Error _ -> Error Bad_capability

let token_key_new ctx =
  match Kernel.call1 ctx ~import:"allocator.token_key_new" [] with
  | Ok v when Cap.tag v -> Ok v
  | Ok _ | Error _ -> Error Bad_capability

let allocate_sealed ctx ~alloc_cap ~key size =
  call_decode ctx "allocator.token_allocate_sealed"
    [ alloc_cap; key; Interp.int_value size ]

let token_unseal ctx ~key sobj =
  match Kernel.lib_call ctx ~import:"token.unseal" [ key; sobj ] with
  | v, _ -> decode v

let free_sealed ctx ~alloc_cap ~key sobj =
  match
    Kernel.call1 ctx ~import:"allocator.token_free_sealed" [ alloc_cap; key; sobj ]
  with
  | Ok r -> decode_unit r
  | Error _ -> Error Bad_capability
