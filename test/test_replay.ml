(* The record-replay contract (lib/replay): the simulation is a pure
   function of its journaled inputs, so recording a run and re-running
   it under a verifying handler must consume the journal exactly and
   reproduce the outcome bit-for-bit — for a full fault-campaign
   scenario and for a bare netsim workload.  Error taxonomy is pinned
   too: a cut-short journal fails as Truncated (never as a spurious
   divergence), a run that ends early as Excess, a wrong-seed re-run as
   Divergence with the first mismatching entry. *)

let record_scenario ~seed =
  let session = ref None in
  let outcome =
    Fault_campaign.run_scenario
      ~prepare:(fun m -> session := Some (Replay.record m))
      ~seed ()
  in
  let s = Option.get !session in
  let journal = Replay.recorded s in
  Replay.finish s;
  (journal, outcome)

let verify_scenario ~seed journal =
  let session = ref None in
  let outcome =
    Fault_campaign.run_scenario
      ~prepare:(fun m -> session := Some (Replay.verify m journal))
      ~seed ()
  in
  let s = Option.get !session in
  Replay.finish s;
  (outcome, Replay.matched s)

(* One recorded campaign scenario shared across the tests below. *)
let recorded_11 = lazy (record_scenario ~seed:11)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let test_campaign_roundtrip () =
  let journal, o1 = Lazy.force recorded_11 in
  Alcotest.(check bool) "journal non-empty" true (journal <> []);
  Alcotest.(check bool) "journals IRQ raises" true
    (List.exists (fun e -> has_prefix "irq " e.Replay.e_payload) journal);
  Alcotest.(check bool) "journals fault injections" true
    (List.exists (fun e -> has_prefix "fault " e.Replay.e_payload) journal);
  Alcotest.(check bool) "journals frame deliveries" true
    (List.exists (fun e -> has_prefix "frame " e.Replay.e_payload) journal);
  let o2, matched = verify_scenario ~seed:11 journal in
  Alcotest.(check int) "every entry matched" (List.length journal) matched;
  (* A dump's registers render through a function, so dumps compare by
     their JSON rendering, which carries every dump field. *)
  let comparable o =
    ({ o with Fault_campaign.oc_dumps = [] }, List.map Forensics.dump_json o.Fault_campaign.oc_dumps)
  in
  Alcotest.(check bool) "outcome bit-identical under verification" true
    (comparable o1 = comparable o2)

let test_save_load_roundtrip () =
  let journal, _ = Lazy.force recorded_11 in
  let path = Filename.temp_file "cheriot_replay" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Replay.save path ~header:"campaign seed 11" journal;
      let header, loaded = Result.get_ok (Replay.load path) in
      Alcotest.(check string) "header" "campaign seed 11" header;
      Alcotest.(check bool) "entries survive the file format" true
        (loaded = journal))

let test_truncated_is_clean () =
  let journal, _ = Lazy.force recorded_11 in
  let n = List.length journal in
  let cut = List.filteri (fun i _ -> i < n - 5) journal in
  match verify_scenario ~seed:11 cut with
  | _ -> Alcotest.fail "expected Replay_error Truncated"
  | exception Replay.Replay_error (Replay.Truncated { index; _ }) ->
      Alcotest.(check int) "fails exactly at the cut" (n - 5) index
  | exception Replay.Replay_error e ->
      Alcotest.failf "wrong error class: %s" (Replay.error_to_string e)

let test_excess_on_short_run () =
  let journal, _ = Lazy.force recorded_11 in
  let last =
    List.fold_left (fun _ e -> e.Replay.e_cycle) 0 journal
  in
  let padded =
    journal
    @ [
        { Replay.e_cycle = last + 1_000; e_payload = "irq 0" };
        { Replay.e_cycle = last + 2_000; e_payload = "irq 0" };
      ]
  in
  match verify_scenario ~seed:11 padded with
  | _ -> Alcotest.fail "expected Replay_error Excess"
  | exception Replay.Replay_error (Replay.Excess { remaining; _ }) ->
      Alcotest.(check int) "both padded entries unconsumed" 2 remaining
  | exception Replay.Replay_error e ->
      Alcotest.failf "wrong error class: %s" (Replay.error_to_string e)

let test_cross_seed_diverges () =
  let journal, _ = Lazy.force recorded_11 in
  match verify_scenario ~seed:12 journal with
  | _ -> Alcotest.fail "expected Replay_error Divergence"
  | exception Replay.Replay_error (Replay.Divergence _) -> ()
  | exception Replay.Replay_error e ->
      Alcotest.failf "wrong error class: %s" (Replay.error_to_string e)

(* A bare netsim workload, no kernel: two timed frames from the world
   plus the Ethernet IRQs they raise.  Same schedule, same journal. *)
let netsim_run session_of =
  let machine = Machine.create () in
  let session = session_of machine in
  let net = Netsim.attach ~latency:2_000 machine in
  Netsim.inject_frame_at net ~cycles:5_000 ~frame:(Netsim.pod_frame ~size:120);
  Netsim.inject_frame_at net ~cycles:11_000 ~frame:(Netsim.pod_frame ~size:600);
  (* Stepped ticks, as a polling driver would: frames fire at their
     scheduled cycles and their Ethernet IRQs land on later ticks. *)
  for _ = 1 to 30 do
    Machine.tick machine 1_000
  done;
  session

let test_netsim_roundtrip () =
  let rec_session = netsim_run Replay.record in
  let journal = Replay.recorded rec_session in
  Replay.finish rec_session;
  Alcotest.(check bool) "frames journaled" true
    (List.exists (fun e -> has_prefix "frame " e.Replay.e_payload) journal);
  Alcotest.(check bool) "ethernet IRQ journaled" true
    (List.exists
       (fun e ->
         e.Replay.e_payload = "irq " ^ string_of_int Machine.ethernet_irq)
       journal);
  let ver_session = netsim_run (fun m -> Replay.verify m journal) in
  Alcotest.(check int) "netsim replay matches every entry"
    (List.length journal)
    (Replay.matched ver_session);
  Replay.finish ver_session

let test_double_attach_refused () =
  let machine = Machine.create () in
  let s = Replay.record machine in
  (match Replay.record machine with
  | _ -> Alcotest.fail "second session must be refused"
  | exception Invalid_argument _ -> ());
  Replay.finish s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_load_errors () =
  let path = Filename.temp_file "cheriot_replay" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      write_file path "not a journal\n";
      (match Replay.load path with
      | Ok _ -> Alcotest.fail "bad magic must fail"
      | Error m ->
          Alcotest.(check string) "bad magic names the file"
            (path ^ ": not a replay journal (bad magic)") m);
      write_file path "cheriot-replay 1 hdr\n12 irq 0\nbogus line without cycle\n";
      (match Replay.load path with
      | Ok _ -> Alcotest.fail "malformed line must fail"
      | Error m ->
          Alcotest.(check string) "error names the line"
            (path ^ ":3: malformed journal line") m);
      Sys.remove path;
      match Replay.load path with
      | Ok _ -> Alcotest.fail "missing file must fail"
      | Error m ->
          Alcotest.(check bool) "missing file names the file" true
            (has_prefix path m))

(* Journal-parser fuzzing: `bench -- replay` hands Replay.load whatever
   file it is given, so arbitrary bytes must come back as [Ok] or
   [Error], never as an exception.  The generator leans on the shapes a
   line-oriented parser gets wrong: a valid magic line followed by junk
   (cycle numbers past max_int, missing payloads, stray spaces), valid
   journals cut at an arbitrary byte, and a cut-short magic line. *)
let journal_text header entries =
  String.concat ""
    (("cheriot-replay 1 " ^ header ^ "\n")
    :: List.map (fun (c, p) -> Printf.sprintf "%d %s\n" c p) entries)

let gen_junk_line =
  QCheck.Gen.(
    frequency
      [
        (3, string_size ~gen:char (int_range 0 40));
        (2, map (fun p -> "99999999999999999999999 " ^ p) string_printable);
        (2, map2 (fun c p -> string_of_int c ^ " " ^ p) int string_printable);
        (1, map string_of_int int);
        (1, oneofl [ ""; " "; " irq 0"; "-"; "0x1f fault"; "12\r" ]);
      ])

let gen_hostile_bytes =
  QCheck.Gen.(
    frequency
      [
        (2, string_size ~gen:char (int_range 0 200));
        ( 3,
          map2
            (fun h lines -> journal_text h [] ^ String.concat "\n" lines)
            string_printable
            (list_size (int_range 0 8) gen_junk_line) );
        ( 2,
          map3
            (fun entries cut_at tail ->
              let s = journal_text "campaign seed 1" entries in
              String.sub s 0 (cut_at mod (String.length s + 1)) ^ tail)
            (list_size (int_range 0 6) (pair int string_printable))
            nat
            (oneofl [ ""; "\n"; "\000" ]) );
        (1, map (fun n -> String.sub "cheriot-replay 1" 0 (n mod 17)) nat);
      ])

let fuzz_path = Filename.temp_file "cheriot_replay_fuzz" ".journal"
let () = at_exit (fun () -> if Sys.file_exists fuzz_path then Sys.remove fuzz_path)

let prop_load_never_raises =
  QCheck.Test.make ~name:"Replay.load on hostile bytes returns, never raises"
    ~count:500
    (QCheck.make ~print:String.escaped gen_hostile_bytes)
    (fun bytes ->
      write_file fuzz_path bytes;
      match Replay.load fuzz_path with Ok _ | Error _ -> true)

(* save then load is the identity for any header and entries whose
   texts carry no newline (save asserts that; it is the format's one
   delimiter). *)
let gen_line =
  QCheck.Gen.(
    map
      (String.map (fun c -> if c = '\n' then ' ' else c))
      (string_size ~gen:char (int_range 0 30)))

let prop_save_load_identity =
  QCheck.Test.make ~name:"Replay.save then Replay.load is the identity"
    ~count:300
    (QCheck.make
       ~print:(fun (h, es) -> String.escaped (journal_text h es))
       QCheck.Gen.(pair gen_line (list_size (int_range 0 20) (pair int gen_line))))
    (fun (header, pairs) ->
      let entries =
        List.map (fun (c, p) -> { Replay.e_cycle = c; e_payload = p }) pairs
      in
      Replay.save fuzz_path ~header entries;
      Replay.load fuzz_path = Ok (header, entries))

let test_bisection () =
  let e c p = { Replay.e_cycle = c; e_payload = p } in
  let a = [ e 100 "irq 0"; e 25_000 "irq 1"; e 25_500 "fault x" ] in
  let b = [ e 100 "irq 0"; e 25_000 "irq 1"; e 26_000 "fault x" ] in
  (match Replay.first_divergence a b with
  | Some (2, Some x, Some y) ->
      Alcotest.(check int) "left cycle" 25_500 x.Replay.e_cycle;
      Alcotest.(check int) "right cycle" 26_000 y.Replay.e_cycle
  | _ -> Alcotest.fail "expected divergence at index 2");
  (match Replay.first_divergent_window ~window:10_000 a b with
  | Some (2, wa, wb) ->
      (* window 2 = cycles [20000, 30000): both journals' entries there *)
      Alcotest.(check int) "left window entries" 2 (List.length wa);
      Alcotest.(check int) "right window entries" 2 (List.length wb)
  | _ -> Alcotest.fail "expected divergent window 2");
  Alcotest.(check bool) "identical journals have no report" true
    (Replay.divergence_report a a = None);
  Alcotest.(check bool) "differing journals report" true
    (Replay.divergence_report a b <> None)

let () =
  Alcotest.run "cheriot_replay"
    [
      ( "replay",
        [
          Alcotest.test_case "campaign record == replay" `Quick
            test_campaign_roundtrip;
          Alcotest.test_case "journal file round-trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "truncated journal fails clean" `Quick
            test_truncated_is_clean;
          Alcotest.test_case "short run leaves excess" `Quick
            test_excess_on_short_run;
          Alcotest.test_case "wrong seed diverges" `Quick
            test_cross_seed_diverges;
          Alcotest.test_case "netsim workload record == replay" `Quick
            test_netsim_roundtrip;
          Alcotest.test_case "double attach refused" `Quick
            test_double_attach_refused;
          Alcotest.test_case "load error reporting" `Quick test_load_errors;
          Alcotest.test_case "divergence bisection" `Quick test_bisection;
        ] );
      ( "journal parser",
        List.map Qcheck_seed.to_alcotest
          [ prop_load_never_raises; prop_save_load_identity ] );
    ]
