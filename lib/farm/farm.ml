(* Domain-parallel work farm for independent deterministic simulations.

   The contract callers rely on: results come back in task-submission
   order regardless of completion order, and [jobs = 1] (or a single
   task) never touches [Domain] at all — it is exactly a sequential
   [Array.map], so sequential runs of the campaign, sweeps and property
   suites are byte-for-byte the code path they were before the farm
   existed.

   Tasks must be self-contained: each thunk builds its own [Machine]
   (and everything hanging off it) and returns a value.  Nothing in the
   simulation libraries may reach shared mutable state — see DESIGN.md
   "no cross-machine global state".  Tasks must also not print; output
   belongs to the caller, after the merge, in task order. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let sequential f tasks = Array.map f tasks

let run ?jobs (tasks : (unit -> 'a) array) : 'a array =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length tasks in
  if jobs = 1 || n <= 1 then sequential (fun t -> t ()) tasks
  else begin
    let results : 'a option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array =
      Array.make n None
    in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match tasks.(i) () with
          | v -> results.(i) <- Some v
          | exception e ->
              errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    (* jobs-1 spawned domains plus the calling domain itself.  Each
       result/error slot is written by exactly one worker and read only
       after [Domain.join], which provides the happens-before edge. *)
    let domains =
      Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join domains;
    Array.iteri
      (fun i -> function
        | Some (e, bt) ->
            ignore i;
            Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map
      (function Some v -> v | None -> assert false (* all slots filled *))
      results
  end

let map ?jobs f tasks = run ?jobs (Array.map (fun x () -> f x) tasks)

let map_list ?jobs f tasks =
  Array.to_list (run ?jobs (Array.of_list (List.map (fun x () -> f x) tasks)))

let chunks ~jobs xs =
  let jobs = max 1 jobs in
  let size = max 1 ((List.length xs + jobs - 1) / jobs) in
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs
