(* Prints one line per fault-campaign seed 0..199: the seed, the number
   of events the scenario emitted, and an MD5 over its rendered event
   stream plus every crash dump's registers, recent lines and brief.
   Diffed against golden_campaign_stream.expected by runtest, so any
   change to a traced campaign's events, cycle stamps or dump rendering
   fails with the seed that moved.  Renders through Obs.pp_event and
   the dump fields exactly as recorded, independent of how the recorder
   renders them internally. *)

let () =
  let ring = Obs.create ~capacity:(1 lsl 18) () in
  let b = Buffer.create (1 lsl 20) in
  for seed = 0 to 199 do
    Obs.clear ring;
    Buffer.clear b;
    let o = Fault_campaign.run_scenario ~trace:ring ~seed () in
    if Obs.dropped ring > 0 then
      failwith (Printf.sprintf "seed %d: ring dropped events" seed);
    List.iter
      (fun e -> Buffer.add_string b (Format.asprintf "%a\n" Obs.pp_event e))
      (Obs.events ring);
    List.iter
      (fun d ->
        List.iter
          (fun (r, v) -> Printf.bprintf b "reg %s %s\n" r v)
          (Forensics.regs d);
        List.iter (Printf.bprintf b "recent %s\n") (Forensics.recent_lines d);
        Printf.bprintf b "brief %s\n" (Forensics.dump_brief d))
      o.Fault_campaign.oc_dumps;
    Printf.printf "seed %3d events %6d dumps %2d md5 %s\n" seed
      (Obs.total ring) (List.length o.oc_dumps)
      (Digest.to_hex (Digest.string (Buffer.contents b)))
  done
