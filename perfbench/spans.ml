(* Host-time spans recorded by the benchmark around its own calls into
   the layers' public functions (the library code itself is untouched).

   Spans can interleave: a driver thread blocked in a futex wait keeps
   its span open while the peer thread runs and opens spans of its own.
   Self time is therefore charged by a sweep rather than by strict
   nesting: between two consecutive span boundaries, the elapsed host
   time goes to the open span that started last, or to "unattributed"
   when no span is open.  Summed over every span name, self time plus
   unattributed time equals the wall time the recorder was enabled —
   the reconciliation the traced run reports.

   Stats are aggregated per span name as spans close, so memory stays
   constant however long the run is. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type stat = {
  mutable count : int;
  mutable total_ns : int;  (** summed span durations *)
  mutable self_ns : int;  (** summed durations minus covered children *)
}

type span = { id : int; st : stat; start : int }

type t = {
  stats : (string, stat) Hashtbl.t;
  mutable on : bool;
  mutable open_spans : span list;  (** most recent start first *)
  mutable next_id : int;
  mutable last : int;  (** time of the last boundary *)
  mutable enabled_ns : int;
  mutable enabled_at : int;
  mutable unattributed_ns : int;
}

let create () =
  {
    stats = Hashtbl.create 32;
    on = false;
    open_spans = [];
    next_id = 1;
    last = 0;
    enabled_ns = 0;
    enabled_at = 0;
    unattributed_ns = 0;
  }

let off_span = { id = 0; st = { count = 0; total_ns = 0; self_ns = 0 }; start = 0 }

let stat t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
      let s = { count = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.replace t.stats name s;
      s

(* Charge the time since the last boundary to the innermost open span. *)
let charge t now =
  let d = now - t.last in
  (match t.open_spans with
  | s :: _ -> s.st.self_ns <- s.st.self_ns + d
  | [] -> t.unattributed_ns <- t.unattributed_ns + d);
  t.last <- now

let enable t =
  assert (not t.on);
  t.on <- true;
  t.enabled_at <- now_ns ();
  t.last <- t.enabled_at

let disable t =
  assert t.on;
  let now = now_ns () in
  charge t now;
  t.enabled_ns <- t.enabled_ns + (now - t.enabled_at);
  t.on <- false;
  assert (t.open_spans = [])

let enter t name =
  if not t.on then off_span
  else begin
    let now = now_ns () in
    charge t now;
    let s = { id = t.next_id; st = stat t name; start = now } in
    t.next_id <- t.next_id + 1;
    t.open_spans <- s :: t.open_spans;
    s
  end

let leave t s =
  if s.id <> 0 && t.on then begin
    let now = now_ns () in
    charge t now;
    t.open_spans <- List.filter (fun o -> o.id <> s.id) t.open_spans;
    s.st.count <- s.st.count + 1;
    s.st.total_ns <- s.st.total_ns + (now - s.start)
  end

let with_span t name f =
  let s = enter t name in
  match f () with
  | v ->
      leave t s;
      v
  | exception e ->
      leave t s;
      raise e

let find t name = Hashtbl.find_opt t.stats name

let mean_total_ns t name =
  match find t name with
  | Some s when s.count > 0 -> float_of_int s.total_ns /. float_of_int s.count
  | _ -> nan

let mean_self_ns t name =
  match find t name with
  | Some s when s.count > 0 -> float_of_int s.self_ns /. float_of_int s.count
  | _ -> nan

(* Self time summed per layer, the span-name prefix before the first
   dot, in name order. *)
let self_by_layer t =
  let layers = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name s ->
      let layer =
        match String.index_opt name '.' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      let prev = Option.value ~default:0 (Hashtbl.find_opt layers layer) in
      Hashtbl.replace layers layer (prev + s.self_ns))
    t.stats;
  List.sort compare (List.of_seq (Hashtbl.to_seq layers))
