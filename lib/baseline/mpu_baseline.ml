let region_count = 8
let min_region_size = 32
let domain_switch_cycles = 1068 (* per direction; 2136 round trip (Donky) *)
let per_task_overhead_bytes = 164

type region = { r_base : int; r_size : int; r_read : bool; r_write : bool }

type task = { mutable regions : region list }

type chunk = { c_addr : int; mutable c_size : int; mutable c_free : bool }

type t = {
  mem : Bytes.t;
  mutable clock : int;
  mutable chunks : chunk list;  (** heap chunks, address-ordered *)
}

let create () =
  let mem_size = 64 * 1024 in
  {
    mem = Bytes.make mem_size '\000';
    clock = 0;
    chunks = [ { c_addr = 0; c_size = mem_size; c_free = true } ];
  }

let cycles t = t.clock
let tick t n = t.clock <- t.clock + n
let create_task () = { regions = [] }

let round_region len =
  let rec go size = if size >= len then size else go (2 * size) in
  go min_region_size

let over_privilege_bytes ~len = round_region len - len

let grant _t task ~addr ~len ~writable =
  if List.length task.regions >= region_count then
    failwith "mpu: out of protection regions";
  let size = round_region len in
  (* Power-of-two alignment of the base, as on Armv7-M. *)
  let base = addr / size * size in
  let size = if base + size < addr + len then size * 2 else size in
  let base = addr / size * size in
  let r = { r_base = base; r_size = size; r_read = true; r_write = writable } in
  task.regions <- r :: task.regions;
  r

let check t task ~addr ~write =
  (* Linear region scan, as the hardware comparators would do in
     parallel; charge the software-visible single cycle. *)
  tick t 1;
  if
    not
      (List.exists
         (fun r ->
           addr >= r.r_base
           && addr < r.r_base + r.r_size
           && ((not write) || r.r_write))
         task.regions)
  then failwith "mpu fault"

let load t task ~addr =
  check t task ~addr ~write:false;
  Char.code (Bytes.get t.mem addr)

let store t task ~addr v =
  check t task ~addr ~write:true;
  Bytes.set t.mem addr (Char.chr (v land 0xff))

(* Privileged (oracle/host) accessors: physical memory, no region
   check, no cycle charge — how a differential-test oracle inspects the
   machine without holding any in-simulation authority. *)

let load_priv t ~addr = Char.code (Bytes.get t.mem addr)
let store_priv t ~addr v = Bytes.set t.mem addr (Char.chr (v land 0xff))
let mem_size t = Bytes.length t.mem

let domain_call t ~from ~into f =
  ignore from;
  ignore into;
  tick t domain_switch_cycles;
  let r = f () in
  tick t domain_switch_cycles;
  r

(* First-fit allocator with immediate reuse: no quarantine, no
   revocation, no zeroing — the status quo this paper displaces. *)

let malloc t size =
  tick t 40;
  let size = (size + 7) / 8 * 8 in
  let rec go = function
    | [] -> failwith "mpu malloc: out of memory"
    | c :: rest ->
        if c.c_free && c.c_size >= size then begin
          if c.c_size > size then begin
            let remainder =
              { c_addr = c.c_addr + size; c_size = c.c_size - size; c_free = true }
            in
            c.c_size <- size;
            t.chunks <-
              List.concat_map
                (fun c' -> if c' == c then [ c; remainder ] else [ c' ])
                t.chunks
          end;
          c.c_free <- false;
          c.c_addr
        end
        else go rest
  in
  go t.chunks

let free t addr =
  tick t 30;
  match List.find_opt (fun c -> c.c_addr = addr && not c.c_free) t.chunks with
  | None -> failwith "mpu free: bad pointer"
  | Some c -> c.c_free <- true
