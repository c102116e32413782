(* The mixed-fault campaign in quick mode (the 200-scenario long mode
   lives behind `bench campaign` / FAULT_CAMPAIGN_ITERS), plus the
   determinism contract: a scenario is a pure function of its seed, so
   any failure replays byte-for-byte. *)

let test_campaign_quick () =
  let n = Fault_campaign.iters ~default:8 in
  let failures, outcomes = Fault_campaign.run ~base_seed:1_000 ~n () in
  Alcotest.(check int) "no invariant violations" 0 failures;
  let faults =
    List.fold_left (fun a o -> a + o.Fault_campaign.oc_faults) 0 outcomes
  in
  Alcotest.(check bool) "faults were actually injected" true (faults > 0);
  let reboots =
    List.fold_left (fun a o -> a + o.Fault_campaign.oc_reboots) 0 outcomes
  in
  ignore reboots (* crash faults are rare; reboots may be zero in 8 runs *)

let trace_lines o = List.map Fault_inject.trace_line o.Fault_campaign.oc_trace

(* Outcomes compared field for field: a dump's registers render through
   a function, so dumps compare by their JSON rendering, every field
   included. *)
let comparable o =
  ({ o with Fault_campaign.oc_dumps = [] }, List.map Forensics.dump_json o.Fault_campaign.oc_dumps)

let test_replay_deterministic () =
  let a = Fault_campaign.run_scenario ~seed:42 () in
  let b = Fault_campaign.run_scenario ~seed:42 () in
  Alcotest.(check (list string))
    "fault traces identical byte-for-byte" (trace_lines a) (trace_lines b);
  Alcotest.(check int) "cycle counts identical" a.Fault_campaign.oc_cycles
    b.Fault_campaign.oc_cycles;
  Alcotest.(check int) "fault counts identical" a.Fault_campaign.oc_faults
    b.Fault_campaign.oc_faults;
  Alcotest.(check int) "reboot counts identical" a.Fault_campaign.oc_reboots
    b.Fault_campaign.oc_reboots;
  Alcotest.(check (list string))
    "seed 42 holds all invariants" [] a.Fault_campaign.oc_violations

(* Every line of the engine's fault trace must have a twin
   [Obs.Fault_note] event in the machine's trace, with the identical
   message and the identical cycle stamp — a 1:1 match, in order. *)
let test_faults_appear_in_trace () =
  let obs = Obs.create ~capacity:(1 lsl 16) () in
  let o = Fault_campaign.run_scenario ~trace:obs ~seed:42 () in
  Alcotest.(check int) "no trace events dropped" 0 (Obs.dropped obs);
  let notes =
    List.filter_map
      (fun e ->
        match e.Obs.kind with
        | Obs.Fault_note { note } ->
            Some (Printf.sprintf "[%d] %s" e.Obs.cycle note)
        | _ -> None)
      (Obs.events obs)
  in
  Alcotest.(check (list string))
    "fault trace lines == Fault_note events (message + cycle stamp)"
    (trace_lines o) notes;
  Alcotest.(check bool) "campaign actually injected faults" true
    (o.Fault_campaign.oc_faults > 0);
  (* The sink changes nothing observable: the traced scenario replays
     byte-for-byte against an untraced run of the same seed. *)
  let plain = Fault_campaign.run_scenario ~seed:42 () in
  Alcotest.(check int) "cycles identical with trace sink attached"
    plain.Fault_campaign.oc_cycles o.Fault_campaign.oc_cycles;
  Alcotest.(check (list string))
    "fault history identical with trace sink attached"
    (trace_lines plain) (trace_lines o)

(* The flight recorder rides every scenario: each injected crash yields
   exactly one well-formed dump blaming the injected target (these are
   also campaign invariants — a violation would fail oc_violations on
   all 200 long-mode scenarios — but this pins the dump contents
   directly on a seed known to deliver crashes). *)
let test_crash_dumps_match_injected_faults () =
  let o = Fault_campaign.run_scenario ~seed:7 () in
  Alcotest.(check (list string))
    "seed 7 holds all invariants" [] o.Fault_campaign.oc_violations;
  let dumps = o.Fault_campaign.oc_dumps in
  Alcotest.(check bool) "seed 7 delivers crashes" true (dumps <> []);
  let delivered =
    List.length
      (List.filter
         (fun line ->
           Astring.String.is_infix ~affix:"crash delivered" line)
         (trace_lines o))
  in
  let injected =
    List.filter (fun d -> d.Forensics.d_cause = "injected crash") dumps
  in
  Alcotest.(check int) "one dump per delivered crash" delivered
    (List.length injected);
  List.iter
    (fun d ->
      Alcotest.(check string) "dump blames the injected target" "svc"
        d.Forensics.d_comp;
      Alcotest.(check int) "full register file" 16
        (List.length (Forensics.regs d));
      Alcotest.(check bool) "handler ran" true d.Forensics.d_handler_ran;
      let j = Forensics.dump_json d in
      match Json.of_string (Json.to_string j) with
      | Ok rt ->
          Alcotest.(check bool) "dump JSON round-trips" true (Json.equal j rt)
      | Error e -> Alcotest.failf "dump JSON failed to parse back: %s" e)
    dumps

(* A crash seen in a campaign replays bit-exactly from a fresh boot
   (`bench -- crashdump <seed>`): the campaign forks each scenario from
   a post-boot snapshot, and the fork must agree with the fresh boot on
   every observable field, dumps included. *)
let test_fresh_boot_replays_campaign () =
  let seeds = [ 42; 43 ] in
  let _, campaign =
    Fault_campaign.run ~base_seed:(List.hd seeds) ~n:(List.length seeds) ()
  in
  List.iter2
    (fun seed forked ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: fresh boot == farmed campaign" seed)
        true
        (comparable (Fault_campaign.run_scenario ~seed ()) = comparable forked))
    seeds campaign

let test_distinct_seeds_diverge () =
  let a = Fault_campaign.run_scenario ~seed:1 () in
  let b = Fault_campaign.run_scenario ~seed:2 () in
  Alcotest.(check bool) "different seeds inject different faults" true
    (a.Fault_campaign.oc_trace <> b.Fault_campaign.oc_trace)

let suite =
  [
    Alcotest.test_case "quick campaign holds invariants" `Quick
      test_campaign_quick;
    Alcotest.test_case "seed replay is deterministic" `Quick
      test_replay_deterministic;
    Alcotest.test_case "every injected fault appears in the trace" `Quick
      test_faults_appear_in_trace;
    Alcotest.test_case "crash dumps match injected faults" `Quick
      test_crash_dumps_match_injected_faults;
    Alcotest.test_case "fresh-boot seed replay is bit-exact" `Quick
      test_fresh_boot_replays_campaign;
    Alcotest.test_case "distinct seeds diverge" `Quick
      test_distinct_seeds_diverge;
  ]

let () = Alcotest.run "cheriot_fault_campaign" [ ("fault-campaign", suite) ]
