(* See agg.mli.  Everything here is a pure post-run fold over copied
   state: no aliasing of live recorders, no wall-clock, and every
   iteration is over sorted keys so rendering is byte-stable across
   farm job counts. *)

type comp = {
  ac_comp : string;
  ac_calls : int;
  ac_faults : int;
  ac_reboots : int;
}

type t = {
  ag_machines : int;
  ag_cycles : int;
  ag_comps : comp list;
  ag_call_lat : Forensics.hist;
  ag_irq_lat : Forensics.hist;
  ag_alloc_sz : Forensics.hist;
  ag_quar_res : Forensics.hist;
}

let empty () =
  {
    ag_machines = 0;
    ag_cycles = 0;
    ag_comps = [];
    ag_call_lat = Forensics.hist_create ();
    ag_irq_lat = Forensics.hist_create ();
    ag_alloc_sz = Forensics.hist_create ();
    ag_quar_res = Forensics.hist_create ();
  }

let of_forensics f ~cycles =
  {
    ag_machines = 1;
    ag_cycles = cycles;
    ag_comps =
      List.map
        (fun (name, calls, faults, reboots) ->
          { ac_comp = name; ac_calls = calls; ac_faults = faults;
            ac_reboots = reboots })
        (Forensics.comp_counters f);
    ag_call_lat = Forensics.hist_copy (Forensics.call_latency f);
    ag_irq_lat = Forensics.hist_copy (Forensics.irq_latency f);
    ag_alloc_sz = Forensics.hist_copy (Forensics.alloc_size f);
    ag_quar_res = Forensics.hist_copy (Forensics.quarantine_residency f);
  }

(* Merge two name-sorted compartment lists, adding counters on equal
   names — a sorted-merge so the result stays sorted without resorting. *)
let rec merge_comps a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      if x.ac_comp < y.ac_comp then x :: merge_comps xs b
      else if y.ac_comp < x.ac_comp then y :: merge_comps a ys
      else
        {
          ac_comp = x.ac_comp;
          ac_calls = x.ac_calls + y.ac_calls;
          ac_faults = x.ac_faults + y.ac_faults;
          ac_reboots = x.ac_reboots + y.ac_reboots;
        }
        :: merge_comps xs ys

let merge a b =
  {
    ag_machines = a.ag_machines + b.ag_machines;
    ag_cycles = a.ag_cycles + b.ag_cycles;
    ag_comps = merge_comps a.ag_comps b.ag_comps;
    ag_call_lat = Forensics.hist_merge a.ag_call_lat b.ag_call_lat;
    ag_irq_lat = Forensics.hist_merge a.ag_irq_lat b.ag_irq_lat;
    ag_alloc_sz = Forensics.hist_merge a.ag_alloc_sz b.ag_alloc_sz;
    ag_quar_res = Forensics.hist_merge a.ag_quar_res b.ag_quar_res;
  }

let merge_all l = List.fold_left merge (empty ()) l

let hist_lines =
  [
    ("call-latency-cycles", fun t -> t.ag_call_lat);
    ("irq-to-dispatch-cycles", fun t -> t.ag_irq_lat);
    ("alloc-size-bytes", fun t -> t.ag_alloc_sz);
    ("quarantine-residency-cycles", fun t -> t.ag_quar_res);
  ]

let table t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "fleet rollup  (machines = %d, simulated cycles = %d)\n"
    t.ag_machines t.ag_cycles;
  Printf.bprintf b "%-20s %9s %7s %8s\n" "compartment" "calls" "faults"
    "reboots";
  List.iter
    (fun c ->
      Printf.bprintf b "%-20s %9d %7d %8d\n" c.ac_comp c.ac_calls c.ac_faults
        c.ac_reboots)
    t.ag_comps;
  Buffer.add_string b "histograms:\n";
  List.iter
    (fun (name, get) ->
      let h = get t in
      Printf.bprintf b "  %-28s count=%d min=%d max=%d p50=%d p99=%d\n" name
        (Forensics.hist_count h) (Forensics.hist_min h)
        (Forensics.hist_max h)
        (Forensics.hist_quantile h 0.50)
        (Forensics.hist_quantile h 0.99))
    hist_lines;
  Buffer.contents b

(* OpenMetrics text exposition.  Histogram buckets are cumulative per
   the format; only observed bucket bounds are listed, plus +Inf. *)
let to_openmetrics t =
  let b = Buffer.create 2048 in
  Printf.bprintf b "# TYPE cheriot_machines gauge\ncheriot_machines %d\n"
    t.ag_machines;
  Printf.bprintf b
    "# TYPE cheriot_simulated_cycles_total counter\ncheriot_simulated_cycles_total %d\n"
    t.ag_cycles;
  let counter name help get =
    Printf.bprintf b "# HELP %s %s\n# TYPE %s counter\n" name help name;
    List.iter
      (fun c ->
        Printf.bprintf b "%s{compartment=\"%s\"} %d\n" name c.ac_comp (get c))
      t.ag_comps
  in
  counter "cheriot_compartment_calls_total" "cross-compartment calls"
    (fun c -> c.ac_calls);
  counter "cheriot_compartment_faults_total" "compartment faults"
    (fun c -> c.ac_faults);
  counter "cheriot_compartment_reboots_total" "compartment micro-reboots"
    (fun c -> c.ac_reboots);
  let histogram name help h =
    Printf.bprintf b "# HELP %s %s\n# TYPE %s histogram\n" name help name;
    let cum = ref 0 in
    List.iter
      (fun (le, n) ->
        cum := !cum + n;
        Printf.bprintf b "%s_bucket{le=\"%d\"} %d\n" name le !cum)
      (Forensics.hist_buckets h);
    Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name
      (Forensics.hist_count h);
    Printf.bprintf b "%s_sum %d\n" name (Forensics.hist_sum h);
    Printf.bprintf b "%s_count %d\n" name (Forensics.hist_count h)
  in
  histogram "cheriot_call_latency_cycles" "compartment-call latency"
    t.ag_call_lat;
  histogram "cheriot_irq_to_dispatch_cycles" "IRQ entry to thread dispatch"
    t.ag_irq_lat;
  histogram "cheriot_alloc_size_bytes" "allocation size" t.ag_alloc_sz;
  histogram "cheriot_quarantine_residency_cycles" "free to release latency"
    t.ag_quar_res;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
