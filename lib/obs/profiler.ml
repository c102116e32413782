(* See profiler.mli.  Same contract as obs.ml/forensics.ml: nothing in
   here may touch the simulation — no clock, no simulated memory, no
   control flow back into the machine.  The stacks are Obs.Tracker's;
   ingestion adds one hashtable bump per event, charging the tracker's
   folded key before the event moves it, so the leaf of every key is
   exactly the label Obs.attribute charges. *)

type mode = Exact | Sampled of int

type t = {
  p_mode : mode;
  counts : (string, int) Hashtbl.t;  (* folded key -> weight *)
  tracker : Obs.Tracker.t;
}

let create ?(mode = Exact) () =
  (match mode with
  | Sampled n when n < 2 ->
      invalid_arg "Profiler.create: sampling interval must be >= 2"
  | _ -> ());
  { p_mode = mode; counts = Hashtbl.create 64; tracker = Obs.Tracker.create () }

(* Weight of the interval (last event, cycle] under the current mode:
   the cycle delta in exact mode, the number of sample points
   (multiples of the interval) it contains in sampled mode. *)
let weight t cycle =
  let prev = Obs.Tracker.last_cycle t.tracker in
  match t.p_mode with
  | Exact -> cycle - prev
  | Sampled n -> (cycle / n) - (prev / n)

let bump counts key w =
  if w <> 0 then
    Hashtbl.replace counts key
      (w + Option.value (Hashtbl.find_opt counts key) ~default:0)

let ingest t ~cycle kind =
  bump t.counts (Obs.Tracker.key t.tracker) (weight t cycle);
  Obs.Tracker.step t.tracker ~cycle kind

let snapshot t =
  let counts = Hashtbl.copy t.counts in
  let restore_tracker = Obs.Tracker.snapshot t.tracker in
  fun () ->
    Hashtbl.reset t.counts;
    Hashtbl.iter (Hashtbl.replace t.counts) counts;
    restore_tracker ()

(* Reports are pure folds: the tail interval since the last event is
   charged into a copy, never into the live profiler. *)

let folded t ~total_cycles =
  let counts = Hashtbl.copy t.counts in
  bump counts (Obs.Tracker.key t.tracker) (weight t total_cycles);
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total_weight t ~total_cycles =
  List.fold_left (fun a (_, w) -> a + w) 0 (folded t ~total_cycles)

let to_folded_text t ~total_cycles =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, w) -> Printf.bprintf b "%s %d\n" k w)
    (folded t ~total_cycles);
  Buffer.contents b

let to_json t ~total_cycles =
  let fold = folded t ~total_cycles in
  let interval = match t.p_mode with Exact -> 1 | Sampled n -> n in
  Json.Obj
    [
      ( "mode",
        Json.Str (match t.p_mode with Exact -> "exact" | Sampled _ -> "sampled")
      );
      ("interval_cycles", Json.Int interval);
      ("total_cycles", Json.Int total_cycles);
      ("total_weight", Json.Int (List.fold_left (fun a (_, w) -> a + w) 0 fold));
      ( "stacks",
        Json.List
          (List.map
             (fun (k, w) ->
               Json.Obj
                 [
                   ("stack", Json.Str k);
                   ( "frames",
                     Json.List
                       (List.map
                          (fun f -> Json.Str f)
                          (String.split_on_char ';' k)) );
                   ("weight", Json.Int w);
                 ])
             fold) );
    ]
