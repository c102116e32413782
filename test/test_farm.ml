(* The farm's determinism contract (see farm.mli) and the campaign's use
   of it: results in submission order whatever the job count, jobs = 1
   running entirely in the calling domain, lowest-index exception wins,
   a parallel fault campaign producing outcome-for-outcome the same
   results as the sequential one, and each forked scenario matching its
   fresh boot. *)

(* Uneven busy-work so that, with several domains, completion order
   differs from submission order. *)
let churn n =
  let acc = ref 0 in
  for i = 1 to (n * 7919) mod 50_000 do
    acc := (!acc + i) land 0xffffff
  done;
  !acc

let test_order_preserved () =
  let n = 37 in
  let tasks = Array.init n (fun i -> fun () -> (i, churn i)) in
  List.iter
    (fun jobs ->
      let got = Farm.run ~jobs tasks in
      Array.iteri
        (fun i (j, _) ->
          Alcotest.(check int) (Printf.sprintf "slot %d (jobs=%d)" i jobs) i j)
        got)
    [ 1; 2; 4; 8; 64 ]

let test_jobs_one_stays_home () =
  let home = Domain.self () in
  let doms =
    Farm.run ~jobs:1 (Array.init 5 (fun _ -> fun () -> Domain.self ()))
  in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "ran in calling domain" true (d = home))
    doms

let test_lowest_index_exception () =
  let tasks =
    Array.init 10 (fun i ->
        fun () ->
          ignore (churn i);
          if i = 3 then failwith "t3";
          if i = 7 then failwith "t7";
          i)
  in
  List.iter
    (fun jobs ->
      match Farm.run ~jobs tasks with
      | _ -> Alcotest.failf "jobs=%d: expected Failure t3" jobs
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "lowest-index exception (jobs=%d)" jobs)
            "t3" m)
    [ 1; 4 ]

let test_map_variants () =
  let sq x = x * x in
  let arr = Array.init 20 (fun i -> i) in
  Alcotest.(check (array int))
    "map order" (Array.map sq arr)
    (Farm.map ~jobs:4 sq arr);
  let l = List.init 20 (fun i -> i + 100) in
  Alcotest.(check (list int))
    "map_list order" (List.map sq l)
    (Farm.map_list ~jobs:4 sq l)

let test_chunks () =
  List.iter
    (fun len ->
      let xs = List.init len (fun i -> i) in
      List.iter
        (fun jobs ->
          let cs = Farm.chunks ~jobs xs in
          let what = Printf.sprintf "len=%d jobs=%d" len jobs in
          Alcotest.(check (list int)) (what ^ ": concat") xs (List.concat cs);
          Alcotest.(check bool)
            (what ^ ": at most max 1 jobs chunks")
            true
            (List.length cs <= max 1 jobs);
          Alcotest.(check bool) (what ^ ": no empty chunk") true
            (not (List.mem [] cs)))
        [ -1; 0; 1; 2; 3; 4; 7; 64 ])
    [ 0; 1; 2; 5; 6; 200 ]

let test_empty_and_clamp () =
  Alcotest.(check (array int)) "empty" [||] (Farm.run ~jobs:4 [||]);
  Alcotest.(check (array int))
    "jobs clamped to 1" [| 9 |]
    (Farm.run ~jobs:(-3) [| (fun () -> 9) |])

(* Outcomes are plain data (ints, strings, lists, dump records) but for
   each dump's register renderer, so an outcome compares structurally
   with its dumps replaced by their JSON rendering, which carries every
   dump field: cycles, fault traces and crash dumps are all covered. *)
let comparable o =
  ({ o with Fault_campaign.oc_dumps = [] }, List.map Forensics.dump_json o.Fault_campaign.oc_dumps)

(* At test scale, a farmed campaign is
   outcome-for-outcome identical to the sequential one. *)
let test_campaign_parallel_equals_sequential () =
  let run jobs = Fault_campaign.run ~jobs ~base_seed:5000 ~n:6 () in
  let bad_seq, out_seq = run 1 in
  let bad_par, out_par = run 4 in
  Alcotest.(check int) "violation count" bad_seq bad_par;
  Alcotest.(check int) "outcome count" (List.length out_seq)
    (List.length out_par);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "seed order" a.Fault_campaign.oc_seed b.Fault_campaign.oc_seed;
      Alcotest.(check bool)
        (Printf.sprintf "outcome for seed %d identical" a.Fault_campaign.oc_seed)
        true (comparable a = comparable b))
    out_seq out_par

(* A campaign forks every scenario from its chunk's post-boot snapshot
   (restore + reseed instead of rebooting).  Each outcome must equal the
   fresh boot of the same seed on every field, at every job count: the
   snapshot carries the *whole* machine, so only the wall clock may
   differ. *)
let test_campaign_forked_equals_fresh () =
  let fresh =
    List.init 6 (fun i -> Fault_campaign.run_scenario ~seed:(5000 + i) ())
  in
  List.iter
    (fun jobs ->
      let bad, forked = Fault_campaign.run ~jobs ~base_seed:5000 ~n:6 () in
      Alcotest.(check int)
        (Printf.sprintf "violations (jobs=%d)" jobs)
        0 bad;
      Alcotest.(check int)
        (Printf.sprintf "outcome count (jobs=%d)" jobs)
        (List.length fresh) (List.length forked);
      List.iter2
        (fun a b ->
          Alcotest.(check int) "seed order" a.Fault_campaign.oc_seed
            b.Fault_campaign.oc_seed;
          Alcotest.(check bool)
            (Printf.sprintf "forked outcome for seed %d identical (jobs=%d)"
               a.Fault_campaign.oc_seed jobs)
            true (comparable a = comparable b))
        fresh forked)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "cheriot_farm"
    [
      ( "farm",
        [
          Alcotest.test_case "results in submission order" `Quick
            test_order_preserved;
          Alcotest.test_case "jobs=1 runs in calling domain" `Quick
            test_jobs_one_stays_home;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception;
          Alcotest.test_case "map/map_list preserve order" `Quick
            test_map_variants;
          Alcotest.test_case "empty input and jobs clamping" `Quick
            test_empty_and_clamp;
          Alcotest.test_case "chunks: contiguous, at most jobs" `Quick
            test_chunks;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "parallel campaign == sequential" `Slow
            test_campaign_parallel_equals_sequential;
          Alcotest.test_case "forked campaign == fresh boots" `Slow
            test_campaign_forked_equals_fresh;
        ] );
    ]
