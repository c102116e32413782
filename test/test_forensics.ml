(* The flight recorder (lib/obs/forensics): streaming histogram
   properties, crash-dump capture on a real injected fault, the
   kernel's reboot hook, JSON escaping round-trips and the CHERIOT_OBS
   selector. *)

module F = Firmware
module Cap = Capability

(* -------------------------------------------------------------------- *)
(* Streaming log2 histograms: exact count/sum/min/max, and quantile
   estimates within the bucket bound (v <= est < 2v) of the true
   sorted-sample quantile.                                              *)

let gen_samples = QCheck.Gen.(list_size (int_range 1 200) (int_range 0 1_000_000))

let exact_quantile sorted q =
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  List.nth sorted (rank - 1)

let prop_hist_exact_counters =
  QCheck.Test.make ~name:"histogram count/sum/min/max are exact" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       gen_samples)
    (fun samples ->
      let h = Forensics.hist_create () in
      List.iter (Forensics.hist_add h) samples;
      Forensics.hist_count h = List.length samples
      && Forensics.hist_sum h = List.fold_left ( + ) 0 samples
      && Forensics.hist_min h = List.fold_left min max_int samples
      && Forensics.hist_max h = List.fold_left max min_int samples)

let prop_hist_quantile_bounds =
  QCheck.Test.make
    ~name:"histogram quantiles bound the exact quantile within a bucket"
    ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       gen_samples)
    (fun samples ->
      let h = Forensics.hist_create () in
      List.iter (Forensics.hist_add h) samples;
      let sorted = List.sort compare samples in
      List.for_all
        (fun q ->
          let est = Forensics.hist_quantile h q in
          let v = exact_quantile sorted q in
          if v = 0 then est = 0 else est >= v && est <= 2 * v)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

let prop_hist_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantile is monotone in q" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       gen_samples)
    (fun samples ->
      let h = Forensics.hist_create () in
      List.iter (Forensics.hist_add h) samples;
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let ests = List.map (Forensics.hist_quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono ests)

let test_hist_empty () =
  let h = Forensics.hist_create () in
  Alcotest.(check int) "count" 0 (Forensics.hist_count h);
  Alcotest.(check int) "p50 of empty" 0 (Forensics.hist_quantile h 0.5)

(* -------------------------------------------------------------------- *)
(* Merge algebra (the fleet-rollup building block): merging equals
   ingesting the concatenated streams, and merge is associative and
   commutative with the empty histogram as identity.                    *)

let hist_of samples =
  let h = Forensics.hist_create () in
  List.iter (Forensics.hist_add h) samples;
  h

(* Full observable equality: counters, both quantile probes and the
   bucket list. *)
let hist_eq a b =
  Forensics.hist_count a = Forensics.hist_count b
  && Forensics.hist_sum a = Forensics.hist_sum b
  && Forensics.hist_min a = Forensics.hist_min b
  && Forensics.hist_max a = Forensics.hist_max b
  && Forensics.hist_buckets a = Forensics.hist_buckets b
  && List.for_all
       (fun q -> Forensics.hist_quantile a q = Forensics.hist_quantile b q)
       [ 0.0; 0.5; 0.99; 1.0 ]

let gen_two = QCheck.Gen.(pair gen_samples gen_samples)
let gen_three = QCheck.Gen.(triple gen_samples gen_samples gen_samples)
let pr l = String.concat "," (List.map string_of_int l)

let prop_merge_is_concat_ingest =
  QCheck.Test.make
    ~name:"hist merge equals ingesting the concatenated streams" ~count:200
    (QCheck.make ~print:(fun (a, b) -> pr a ^ " | " ^ pr b) gen_two)
    (fun (xs, ys) ->
      hist_eq
        (Forensics.hist_merge (hist_of xs) (hist_of ys))
        (hist_of (xs @ ys)))

let prop_merge_commutative =
  QCheck.Test.make ~name:"hist merge is commutative" ~count:200
    (QCheck.make ~print:(fun (a, b) -> pr a ^ " | " ^ pr b) gen_two)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      hist_eq (Forensics.hist_merge a b) (Forensics.hist_merge b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"hist merge is associative" ~count:200
    (QCheck.make
       ~print:(fun (a, b, c) -> pr a ^ " | " ^ pr b ^ " | " ^ pr c)
       gen_three)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      hist_eq
        (Forensics.hist_merge (Forensics.hist_merge a b) c)
        (Forensics.hist_merge a (Forensics.hist_merge b c)))

let prop_merge_identity =
  QCheck.Test.make
    ~name:"empty histogram is the merge identity; inputs not mutated"
    ~count:200
    (QCheck.make ~print:pr gen_samples)
    (fun xs ->
      let a = hist_of xs in
      let before = Forensics.hist_buckets a in
      let merged = Forensics.hist_merge a (Forensics.hist_create ()) in
      hist_eq merged a
      && hist_eq (Forensics.hist_merge (Forensics.hist_create ()) a) a
      && hist_eq (Forensics.hist_copy a) a
      && Forensics.hist_buckets a = before)

(* -------------------------------------------------------------------- *)
(* Ingest mechanics on a hand-fed event stream: call latency, IRQ
   entry-to-dispatch, allocation lifecycle and owner attribution.       *)

let ingest t cycle kind = Forensics.ingest t ~cycle kind

let test_ingest_call_latency () =
  let t = Forensics.create () in
  ingest t 0 (Obs.Thread_dispatch { tid = 0; name = "main" });
  ingest t 100 (Obs.Call_enter { caller = "a"; callee = "b"; entry = "e"; tid = 0 });
  ingest t 350 (Obs.Call_leave { callee = "b"; tid = 0; faulted = false });
  let h = Forensics.call_latency t in
  Alcotest.(check int) "one call" 1 (Forensics.hist_count h);
  Alcotest.(check int) "latency min" 250 (Forensics.hist_min h);
  Alcotest.(check int) "latency max" 250 (Forensics.hist_max h);
  let r = Forensics.report_json t ~total_cycles:400 in
  let b = Json.(member "b" (member "compartments" r)) in
  Alcotest.(check (option int)) "b.calls" (Some 1)
    Json.(to_int_opt (member "calls" b));
  Alcotest.(check (option int)) "b.call_cycles_total" (Some 250)
    Json.(to_int_opt (member "call_cycles_total" b))

let test_ingest_irq_latency () =
  let t = Forensics.create () in
  ingest t 100 (Obs.Irq_enter { irq = 3 });
  ingest t 130 (Obs.Thread_dispatch { tid = 1; name = "handler" });
  (* a second dispatch without a pending IRQ adds nothing *)
  ingest t 200 (Obs.Thread_dispatch { tid = 0; name = "main" });
  let h = Forensics.irq_latency t in
  Alcotest.(check int) "one irq" 1 (Forensics.hist_count h);
  Alcotest.(check int) "entry-to-dispatch" 30 (Forensics.hist_min h)

let test_ingest_quarantine_residency () =
  let t = Forensics.create () in
  ingest t 0 (Obs.Thread_dispatch { tid = 0; name = "main" });
  ingest t 5 (Obs.Call_enter { caller = "a"; callee = "b"; entry = "e"; tid = 0 });
  ingest t 10 (Obs.Alloc { base = 0x1000; size = 64 });
  ingest t 50 (Obs.Free { base = 0x1000; size = 64 });
  ingest t 50 (Obs.Quarantine { base = 0x1000; size = 64 });
  ingest t 550 (Obs.Release { base = 0x1000; size = 64 });
  Alcotest.(check int) "alloc size recorded" 64
    (Forensics.hist_min (Forensics.alloc_size t));
  let h = Forensics.quarantine_residency t in
  Alcotest.(check int) "one residency sample" 1 (Forensics.hist_count h);
  Alcotest.(check int) "residency cycles" 500 (Forensics.hist_min h);
  (* the chunk is attributed to the compartment that allocated it *)
  let r = Forensics.report_json t ~total_cycles:600 in
  let b = Json.(member "b" (member "compartments" r)) in
  Alcotest.(check (option int)) "owner residency p99" (Some 500)
    Json.(to_int_opt (member "quarantine_p99_cycles" b));
  Alcotest.(check (option int)) "heap high water" (Some 64)
    Json.(to_int_opt (member "heap_high_water" b));
  Alcotest.(check (option int)) "heap live back to zero" (Some 0)
    Json.(to_int_opt (member "heap_live_bytes" b))

(* Heap accounting against a model: random allocate / free /
   quarantine / release streams over a pool of 64 chunk bases (so the
   recorder's tables grow, collide and shift entries back on removal),
   from three threads whose owners differ (a callee, another callee, a
   thread name).  The model keeps its tables in [Hashtbl]s.             *)

let prop_heap_accounting_model =
  let gen =
    QCheck.Gen.(list_size (int_range 1 400) (quad (int_bound 3) (int_bound 63) (int_range 1 512) (int_bound 2)))
  in
  QCheck.Test.make ~name:"heap accounting == a hashtable model" ~count:200
    (QCheck.make ~print:(fun l -> string_of_int (List.length l) ^ " ops") gen)
    (fun ops ->
      let t = Forensics.create () in
      let cycle = ref 0 in
      let emit kind =
        cycle := !cycle + 7;
        Forensics.ingest t ~cycle:!cycle kind
      in
      (* tid 0 runs inside a call to "a", tid 1 inside "b", tid 2 in no
         call, so its allocations belong to its name. *)
      List.iter
        (fun (tid, name, callee) ->
          emit (Obs.Thread_dispatch { tid; name });
          Option.iter
            (fun callee -> emit (Obs.Call_enter { caller = "app"; callee; entry = "e"; tid }))
            callee)
        [ (0, "t0", Some "a"); (1, "t1", Some "b"); (2, "t2", None) ];
      let owner_of_tid = [| "a"; "b"; "t2" |] in
      let live = Hashtbl.create 16 and freed = Hashtbl.create 16 and quar = Hashtbl.create 16 in
      let row = Hashtbl.create 8 in
      let row_of o =
        match Hashtbl.find_opt row o with
        | Some r -> r
        | None ->
            let r = (ref 0, ref 0, Forensics.hist_create ()) in
            Hashtbl.add row o r;
            r
      in
      let residency = Forensics.hist_create () in
      List.iter
        (fun (op, k, size, tid) ->
          let base = 0x2000_0000 + (16 * k) in
          match op with
          | 0 ->
              emit (Obs.Thread_dispatch { tid; name = [| "t0"; "t1"; "t2" |].(tid) });
              let o = owner_of_tid.(tid) in
              emit (Obs.Alloc { base; size });
              Hashtbl.replace live base (size, o);
              let l, h, _ = row_of o in
              l := !l + size;
              if !l > !h then h := !l
          | 1 -> (
              match Hashtbl.find_opt live base with
              | Some (size, o) ->
                  emit (Obs.Free { base; size });
                  Hashtbl.remove live base;
                  Hashtbl.replace freed base o;
                  let l, _, _ = row_of o in
                  l := !l - size
              | None -> ())
          | 2 ->
              let o =
                match Hashtbl.find_opt freed base with
                | Some o ->
                    Hashtbl.remove freed base;
                    o
                | None -> (
                    match Hashtbl.find_opt live base with Some (_, o) -> o | None -> "kernel")
              in
              emit (Obs.Quarantine { base; size });
              Hashtbl.replace quar base (!cycle, o)
          | _ -> (
              match Hashtbl.find_opt quar base with
              | Some (entered, o) ->
                  emit (Obs.Release { base; size });
                  Hashtbl.remove quar base;
                  let d = !cycle - entered in
                  Forensics.hist_add residency d;
                  let _, _, q = row_of o in
                  Forensics.hist_add q d
              | None -> ()))
        ops;
      let report = Forensics.report_json t ~total_cycles:(!cycle + 1) in
      let field o f = Json.(to_int_opt (member f (member o (member "compartments" report)))) in
      Hashtbl.fold
        (fun o (l, h, q) ok ->
          ok
          && field o "heap_live_bytes" = Some !l
          && field o "heap_high_water" = Some !h
          && field o "quarantine_p99_cycles" = Some (Forensics.hist_quantile q 0.99))
        row true
      && Forensics.hist_count (Forensics.quarantine_residency t) = Forensics.hist_count residency
      && Forensics.hist_sum (Forensics.quarantine_residency t) = Forensics.hist_sum residency)

(* -------------------------------------------------------------------- *)
(* A real injected fault on a real kernel: the dump carries the right
   compartment, cause, 16 registers, the caller chain and the reboot
   mark; the kernel's reboot hook fires once per reboot.                *)

let firmware () =
  System.image ~name:"forensics"
    ~threads:
      [
        F.thread ~name:"driver" ~comp:"app" ~entry:"main" ~stack_size:4096
          ~trusted_stack_frames:16 ();
      ]
    [
      F.compartment "app" ~globals_size:16
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:1024 ]
        ~imports:
          (System.standard_imports @ [ F.Call { comp = "svc"; entry = "work" } ]);
      F.compartment "svc" ~globals_size:16 ~error_handler:true
        ~entries:[ F.entry "work" ~arity:0 ~min_stack:512 ]
        ~imports:System.standard_imports;
    ]

(* Boot, crash the service once at the call boundary, micro-reboot it,
   and return the machine's flight recorder.  [setup] runs last before
   the run, so it may replace any handler installed here. *)
let run_crash ?(setup = fun (_ : Kernel.t) -> ()) () =
  let machine = Machine.create () in
  Machine.set_trace machine (Some (Obs.create ()));
  let frn = Forensics.create () in
  Machine.set_forensics machine (Some frn);
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let k = sys.System.kernel in
  Kernel.implement1 k ~comp:"svc" ~entry:"work" (fun _ _ ->
      Interp.int_value 1);
  Kernel.set_error_handler k ~comp:"svc" (fun cctx _fi ->
      Kernel.micro_reboot cctx
        {
          Kernel.wake_blocked = (fun () -> ());
          release_heap = (fun () -> ());
          reset_state = (fun () -> ());
        };
      `Unwind);
  let crash_next = ref true in
  Kernel.set_call_fault_hook k
    (Some
       (fun ~comp ~entry:_ ->
         if comp = "svc" && !crash_next then begin
           crash_next := false;
           true
         end
         else false));
  Kernel.implement1 k ~comp:"app" ~entry:"main" (fun ctx _ ->
      (match Kernel.call1 ctx ~import:"svc.work" [] with
      | Error Kernel.Fault_in_callee -> ()
      | Ok _ -> Alcotest.fail "injected crash did not surface"
      | Error e -> Alcotest.failf "unexpected error: %a" Kernel.pp_call_error e);
      Cap.null);
  setup k;
  System.run ~until_cycles:500_000_000 sys;
  frn

let test_crash_dump_fields () =
  let frn = run_crash () in
  match Forensics.dumps frn with
  | [ d ] ->
      Alcotest.(check string) "compartment" "svc" d.Forensics.d_comp;
      Alcotest.(check string) "cause" "injected crash" d.Forensics.d_cause;
      Alcotest.(check int) "full register file" 16
        (List.length (Forensics.regs d));
      Alcotest.(check bool) "handler ran" true d.Forensics.d_handler_ran;
      Alcotest.(check bool) "micro-rebooted" true d.Forensics.d_rebooted;
      (match d.Forensics.d_chain with
      | { Obs.Tracker.caller; callee; entry; _ } :: _ ->
          Alcotest.(check string) "innermost caller" "app" caller;
          Alcotest.(check string) "innermost callee" "svc" callee;
          Alcotest.(check string) "innermost entry" "work" entry
      | [] -> Alcotest.fail "empty call chain");
      Alcotest.(check bool) "recent events captured" true
        (d.Forensics.d_recent <> []);
      (* the dump serializes to JSON that parses back identically *)
      let j = Forensics.dump_json d in
      let rt = Result.get_ok (Json.of_string (Json.to_string j)) in
      Alcotest.(check bool) "dump JSON round-trips" true (Json.equal j rt)
  | ds -> Alcotest.failf "expected exactly one dump, got %d" (List.length ds)

(* The kernel's one reboot hook: it fires once per completed reboot,
   with the compartment and the cycle the reboot completed at; [None]
   silences it; [Machine.restore] brings back the hook set at snapshot
   time; and it belongs to one kernel, so another kernel's reboots never
   reach it. *)
let test_microreboot_hook () =
  let seen = ref [] and done_at = ref 0 in
  let record ~comp ~cycle = seen := (comp, cycle) :: !seen in
  let quiet = ref 0 in
  ignore
    (run_crash
       ~setup:(fun k ->
         (* The cycle [micro_reboot] returns at is the reboot's completion. *)
         Kernel.set_error_handler k ~comp:"svc" (fun cctx _fi ->
             Kernel.micro_reboot cctx
               {
                 Kernel.wake_blocked = (fun () -> ());
                 release_heap = (fun () -> ());
                 reset_state = (fun () -> ());
               };
             done_at := Machine.cycles (Kernel.machine k);
             `Unwind);
         let m = Kernel.machine k in
         Kernel.set_reboot_hook k (Some record);
         let snap = Machine.snapshot m in
         Kernel.set_reboot_hook k (Some (fun ~comp:_ ~cycle:_ -> incr quiet));
         Machine.restore m snap)
       ());
  Alcotest.(check (list (pair string int)))
    "restored hook fired once, for svc, at the completion cycle"
    [ ("svc", !done_at) ] !seen;
  Alcotest.(check int) "hook replaced after the snapshot stays quiet" 0 !quiet;
  ignore
    (run_crash
       ~setup:(fun k ->
         Kernel.set_reboot_hook k (Some (fun ~comp:_ ~cycle:_ -> incr quiet));
         Kernel.set_reboot_hook k None)
       ());
  Alcotest.(check int) "None silences the hook" 0 !quiet;
  Alcotest.(check int) "another kernel's reboot never reaches the hook" 1
    (List.length !seen)

(* A dump renders on read, from what it took at the fault: a copy of
   the register file and the ring events it selected.  So rendering it
   after the registers are clobbered, the ring has wrapped and the
   machine is restored to a post-boot snapshot gives the bytes a
   rendering at the fault gave, and so does rendering it from a second
   domain.                                                              *)

let test_dump_renders_state_at_fault () =
  let kernel = ref None and snap = ref None and at_fault = ref None in
  let frn =
    run_crash
      ~setup:(fun k ->
        kernel := Some k;
        Kernel.set_error_handler k ~comp:"svc" (fun cctx _fi ->
            (* The handler runs right after the capture: render the
               dump now, and the live register file independently. *)
            (match List.rev (Forensics.dumps (Option.get (Machine.forensics (Kernel.machine k)))) with
            | d :: _ ->
                let live = Array.map Cap.to_string (Interp.read_regs (Kernel.interp k)) in
                at_fault := Some (Forensics.regs d, Forensics.recent_lines d, Array.to_list live)
            | [] -> Alcotest.fail "no dump before the handler ran");
            Kernel.micro_reboot cctx
              {
                Kernel.wake_blocked = (fun () -> ());
                release_heap = (fun () -> ());
                reset_state = (fun () -> ());
              };
            `Unwind);
        snap := Some (Machine.snapshot (Kernel.machine k)))
      ()
  in
  let k = Option.get !kernel in
  let m = Kernel.machine k in
  let d = match Forensics.dumps frn with [ d ] -> d | _ -> Alcotest.fail "expected one dump" in
  let regs, recent, live = Option.get !at_fault in
  let rendering = Alcotest.(pair (list (pair string string)) (list string)) in
  Alcotest.(check (list string)) "registers at the fault are the live file's" live
    (List.map snd regs);
  Alcotest.(check bool) "recent events selected" true (recent <> []);
  (* Clobber the register file, wrap the recorder's ring with calls
     into the faulting compartment, then restore the post-boot image. *)
  for r = 1 to 15 do
    Interp.set_reg (Kernel.interp k) r (Interp.int_value (0xbad0 + r))
  done;
  for i = 1 to 600 do
    Machine.emit m
      (if i land 1 = 1 then Obs.Call_enter { caller = "app"; callee = "svc"; entry = "work"; tid = 0 }
       else Obs.Call_leave { callee = "svc"; tid = 0; faulted = false })
  done;
  Machine.restore m (Option.get !snap);
  let render d = (Forensics.regs d, Forensics.recent_lines d) in
  Alcotest.(check rendering) "rendered after clobber, wrap and restore" (regs, recent) (render d);
  let other = Domain.join (Domain.spawn (fun () -> render d)) in
  Alcotest.(check rendering) "rendered from a second domain" (regs, recent) other

(* -------------------------------------------------------------------- *)
(* JSON escaping: hostile strings survive the Chrome exporter and the
   crash-dump serializer.                                               *)

let hostile = "qu\"ote back\\slash tab\t nl\n bell\x07 nul\x00 end"

let test_json_escaping_chrome () =
  let evs =
    [
      { Obs.cycle = 0; kind = Obs.Thread_dispatch { tid = 0; name = hostile } };
      {
        Obs.cycle = 10;
        kind =
          Obs.Call_enter
            { caller = hostile; callee = "c\\d"; entry = "e\nf"; tid = 0 };
      };
      { Obs.cycle = 20; kind = Obs.Call_leave { callee = "c\\d"; tid = 0; faulted = false } };
      { Obs.cycle = 30; kind = Obs.Fault_note { note = hostile } };
    ]
  in
  let j = Obs.to_chrome evs in
  match Json.of_string (Json.to_string j) with
  | Ok rt -> Alcotest.(check bool) "chrome JSON round-trips" true (Json.equal j rt)
  | Error e -> Alcotest.failf "chrome JSON failed to parse back: %s" e

let test_json_escaping_dump () =
  let t = Forensics.create () in
  Forensics.record_fault t ~cycle:42 ~comp:hostile ~thread:0 ~cause:hostile
    ~addr:(-1) ~pc:0 ~instr:hostile
    ~regs:[| hostile |] ~reg_value:(fun _ -> hostile)
    ~handler_ran:false;
  match Forensics.dumps t with
  | [ d ] -> (
      let j = Forensics.dump_json d in
      match Json.of_string (Json.to_string j) with
      | Ok rt ->
          Alcotest.(check bool) "dump JSON round-trips" true (Json.equal j rt);
          Alcotest.(check (option string)) "cause intact" (Some hostile)
            Json.(to_string_opt (member "cause" rt))
      | Error e -> Alcotest.failf "dump JSON failed to parse back: %s" e)
  | _ -> Alcotest.fail "expected one dump"

(* -------------------------------------------------------------------- *)
(* The CHERIOT_OBS selector.                                            *)

let with_obs v f =
  Unix.putenv "CHERIOT_OBS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "CHERIOT_OBS" "") f

let test_obs_env () =
  with_obs "trace" (fun () ->
      Alcotest.(check bool) "trace attaches a ring" true
        (Option.is_some (Machine.trace (Machine.create ()))));
  with_obs " forensics,profile " (fun () ->
      let m = Machine.create () in
      Alcotest.(check bool) "no ring" true (Option.is_none (Machine.trace m));
      Alcotest.(check bool) "recorder" true (Option.is_some (Machine.forensics m));
      Alcotest.(check bool) "profiler" true (Option.is_some (Machine.profiler m)));
  with_obs "" (fun () ->
      Alcotest.(check bool) "empty selects nothing" false
        (Machine.tracing (Machine.create ())));
  with_obs "trace,tracing" (fun () ->
      match Machine.create () with
      | exception Failure msg ->
          Alcotest.(check bool) "names the unknown sink" true
            (Astring.String.is_infix ~affix:"\"tracing\"" msg);
          Alcotest.(check bool) "names the accepted sinks" true
            (Astring.String.is_infix ~affix:"trace, forensics, profile" msg)
      | _ -> Alcotest.fail "unknown sink accepted")

(* -------------------------------------------------------------------- *)
(* The report on a real run: attribution is exact, the table renders
   it, and it comes from the recorder's tracker, so a ring too small to
   hold the run does not truncate it.                                   *)

let run_svc_workload ~capacity =
  let machine = Machine.create () in
  let obs = Obs.create ~capacity () in
  Machine.set_trace machine (Some obs);
  let frn = Forensics.create () in
  Machine.set_forensics machine (Some frn);
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  Kernel.implement1 sys.System.kernel ~comp:"svc" ~entry:"work" (fun _ _ ->
      Interp.int_value 1);
  Kernel.implement1 sys.System.kernel ~comp:"app" ~entry:"main" (fun ctx _ ->
      for _ = 1 to 5 do
        ignore (Kernel.call1 ctx ~import:"svc.work" [])
      done;
      Cap.null);
  System.run ~until_cycles:500_000_000 sys;
  (Machine.cycles machine, obs, frn)

let test_report_sum_check () =
  let total_cycles, _, frn = run_svc_workload ~capacity:65536 in
  let r = Forensics.report_json frn ~total_cycles in
  Alcotest.(check (option bool)) "sum check exact" (Some true)
    (match Json.(member "exact" (member "sum_check" r)) with
    | Json.Bool b -> Some b
    | _ -> None);
  Alcotest.(check (option int)) "attributed equals total" (Some total_cycles)
    Json.(to_int_opt (member "attributed_cycles" (member "sum_check" r)));
  let table = Forensics.report_table frn ~total_cycles in
  Alcotest.(check bool) "table marks the sum exact" true
    (Astring.String.is_infix ~affix:", exact" table);
  Alcotest.(check (option int)) "five calls counted" (Some 5)
    Json.(to_int_opt (member "calls" (member "svc" (member "compartments" r))))

let test_report_truncated_ring () =
  let total_cycles, small, frn = run_svc_workload ~capacity:16 in
  let total_full, full, _ = run_svc_workload ~capacity:(1 lsl 20) in
  Alcotest.(check int) "same run" total_full total_cycles;
  Alcotest.(check bool) "the 16-slot ring dropped events" true
    (Obs.dropped small > 0);
  Alcotest.(check int) "the unbounded ring dropped none" 0 (Obs.dropped full);
  let reported =
    match Json.member "compartments" (Forensics.report_json frn ~total_cycles) with
    | Json.Obj rows ->
        List.filter_map
          (fun (label, row) ->
            match Json.(to_int_opt (member "attributed_cycles" row)) with
            | Some 0 | None -> None
            | Some n -> Some (label, n))
          rows
    | _ -> []
  in
  Alcotest.(check (list (pair string int)))
    "report attribution equals Obs.attribute over the unbounded ring"
    (Obs.attribute ~total_cycles (Obs.events full))
    reported

let suite =
  [
    Qcheck_seed.to_alcotest prop_hist_exact_counters;
    Qcheck_seed.to_alcotest prop_hist_quantile_bounds;
    Qcheck_seed.to_alcotest prop_hist_quantile_monotone;
    Qcheck_seed.to_alcotest prop_merge_is_concat_ingest;
    Qcheck_seed.to_alcotest prop_merge_commutative;
    Qcheck_seed.to_alcotest prop_merge_associative;
    Qcheck_seed.to_alcotest prop_merge_identity;
    Qcheck_seed.to_alcotest prop_heap_accounting_model;
    Alcotest.test_case "empty histogram" `Quick test_hist_empty;
    Alcotest.test_case "ingest: call latency" `Quick test_ingest_call_latency;
    Alcotest.test_case "ingest: irq-to-dispatch" `Quick test_ingest_irq_latency;
    Alcotest.test_case "ingest: quarantine residency" `Quick
      test_ingest_quarantine_residency;
    Alcotest.test_case "crash dump fields" `Quick test_crash_dump_fields;
    Alcotest.test_case "microreboot hook" `Quick test_microreboot_hook;
    Alcotest.test_case "dump renders the state at the fault" `Quick
      test_dump_renders_state_at_fault;
    Alcotest.test_case "JSON escaping: chrome exporter" `Quick
      test_json_escaping_chrome;
    Alcotest.test_case "JSON escaping: crash dump" `Quick
      test_json_escaping_dump;
    Alcotest.test_case "CHERIOT_OBS selector" `Quick test_obs_env;
    Alcotest.test_case "report sum-check" `Quick test_report_sum_check;
    Alcotest.test_case "report attribution survives a 16-slot ring" `Quick
      test_report_truncated_ring;
  ]

let () = Alcotest.run "cheriot_forensics" [ ("forensics", suite) ]
