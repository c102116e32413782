(* Deterministic input journals.

   The machine reports every nondeterministic-looking input crossing its
   boundary (IRQ raises, injected net frames, fault-engine injections)
   through [Machine.log_input], stamped with the simulated cycle.  A
   journal is the ordered list of those reports.  Because the simulation
   itself is a pure function of its inputs, two runs of the same
   workload are bit-identical iff their journals are — which turns the
   journal into both a record-replay transcript and a cheap divergence
   oracle: replay re-runs the workload with a verifying handler that
   checks each emitted entry against the recording and fails fast, with
   a cycle stamp, at the first mismatch.

   Journal handlers are observationally invisible (they never tick the
   clock or touch simulated memory), so a recorded run and an
   unobserved run take identical trajectories. *)

type entry = { e_cycle : int; e_payload : string }

type error =
  | Divergence of { index : int; expected : entry; got : entry }
  | Truncated of { index : int; got : entry }
  | Excess of { index : int; remaining : int }

exception Replay_error of error

let entry_to_string e = Printf.sprintf "[%d] %s" e.e_cycle e.e_payload

let error_to_string = function
  | Divergence { index; expected; got } ->
      Printf.sprintf "replay diverged at journal entry %d: expected %s, got %s"
        index (entry_to_string expected) (entry_to_string got)
  | Truncated { index; got } ->
      Printf.sprintf
        "journal truncated: run produced input %s but the journal ends after \
         %d entries"
        (entry_to_string got) index
  | Excess { index; remaining } ->
      Printf.sprintf
        "journal has %d unconsumed entries: run ended after matching %d"
        remaining index

(* A live session: recording appends, verifying consumes. *)

type mode =
  | Record of entry list ref  (* newest first *)
  | Verify of { journal : entry array; mutable next : int }

type t = { mode : mode; machine : Machine.t }

let handler mode ~cycle payload =
  let got = { e_cycle = cycle; e_payload = payload } in
  match mode with
  | Record acc -> acc := got :: !acc
  | Verify v ->
      if v.next >= Array.length v.journal then
        raise (Replay_error (Truncated { index = v.next; got }));
      let expected = v.journal.(v.next) in
      if expected.e_cycle <> got.e_cycle || expected.e_payload <> got.e_payload
      then
        raise (Replay_error (Divergence { index = v.next; expected; got }));
      v.next <- v.next + 1

let start mode machine =
  if Machine.input_logging machine then
    invalid_arg "Replay: machine already has an input-log handler";
  Machine.set_input_log machine (Some (handler mode));
  { mode; machine }

let record machine = start (Record (ref [])) machine

let verify machine journal =
  start (Verify { journal = Array.of_list journal; next = 0 }) machine

let recorded t =
  match t.mode with
  | Record acc -> List.rev !acc
  | Verify _ -> invalid_arg "Replay.recorded: verifying session"

let matched t =
  match t.mode with
  | Verify v -> v.next
  | Record acc -> List.length !acc

(* Detach the handler; in verify mode, also require the journal to be
   fully consumed — a run that ends early is an [Excess] error, kept
   distinct from divergence and truncation. *)
let finish t =
  Machine.set_input_log t.machine None;
  match t.mode with
  | Record _ -> ()
  | Verify v ->
      let remaining = Array.length v.journal - v.next in
      if remaining > 0 then
        raise (Replay_error (Excess { index = v.next; remaining }))

(* On-disk format: a header line naming the workload, then one entry per
   line as "<cycle> <payload>".  Payloads are single-line by
   construction (asserted on save, so a malformed journal is a save-time
   bug, never a silent load-time divergence). *)

let magic = "cheriot-replay 1"

let save path ~header entries =
  assert (not (String.contains header '\n'));
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s %s\n" magic header;
      List.iter
        (fun e ->
          assert (not (String.contains e.e_payload '\n'));
          Printf.fprintf oc "%d %s\n" e.e_cycle e.e_payload)
        entries)

let load path =
  let parse ic =
    let first = try input_line ic with End_of_file -> "" in
    let ml = String.length magic in
    if String.length first < ml || String.sub first 0 ml <> magic then
      Error (path ^ ": not a replay journal (bad magic)")
    else
      let header =
        if String.length first > ml + 1 then
          String.sub first (ml + 1) (String.length first - ml - 1)
        else ""
      in
      let rec lines lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (header, List.rev acc)
        | line -> (
            let cycle, payload =
              match String.index_opt line ' ' with
              | Some i ->
                  ( int_of_string_opt (String.sub line 0 i),
                    String.sub line (i + 1) (String.length line - i - 1) )
              | None -> (None, "")
            in
            match cycle with
            | Some cycle ->
                lines (lineno + 1) ({ e_cycle = cycle; e_payload = payload } :: acc)
            | None ->
                Error (Printf.sprintf "%s:%d: malformed journal line" path lineno))
      in
      lines 2 []
  in
  match open_in path with
  | exception Sys_error m -> Error m
  | ic -> (
      try Fun.protect ~finally:(fun () -> close_in ic) (fun () -> parse ic)
      with Sys_error m -> Error (path ^ ": " ^ m))

(* Divergence bisection: compare two journals cycle-window by
   cycle-window.  Where a plain first-mismatch index says "entry 4081
   differs", the window view hands back everything both engines did in
   the offending slice of simulated time — the natural unit for
   narrowing an engine-vs-engine divergence, since a single early skew
   shifts every later cycle stamp. *)

let first_divergence a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
        if x.e_cycle = y.e_cycle && x.e_payload = y.e_payload then
          go (i + 1) a' b'
        else Some (i, Some x, Some y)
    | x :: _, [] -> Some (i, Some x, None)
    | [], y :: _ -> Some (i, None, Some y)
  in
  go 0 a b

let in_window ~window w e = e.e_cycle / window = w

let first_divergent_window ~window a b =
  if window <= 0 then invalid_arg "first_divergent_window: window <= 0";
  match first_divergence a b with
  | None -> None
  | Some (_, ea, eb) ->
      let w =
        match (ea, eb) with
        | Some x, Some y -> min x.e_cycle y.e_cycle / window
        | Some x, None | None, Some x -> x.e_cycle / window
        | None, None -> assert false
      in
      Some (w, List.filter (in_window ~window w) a,
            List.filter (in_window ~window w) b)

let divergence_report a b =
  let window = 10_000 in
  match first_divergent_window ~window a b with
  | None -> None
  | Some (w, wa, wb) ->
      let side name es =
        Printf.sprintf "  %s (%d entries in window):\n%s" name (List.length es)
          (String.concat ""
             (List.map (fun e -> "    " ^ entry_to_string e ^ "\n") es))
      in
      Some
        (Printf.sprintf
           "first divergence in cycle window [%d, %d):\n%s%s"
           (w * window)
           ((w + 1) * window)
           (side "journal A" wa) (side "journal B" wb))
