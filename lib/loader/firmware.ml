type posture = Interrupts_enabled | Interrupts_disabled

type entry = {
  entry_name : string;
  arity : int;
  min_stack : int;
  posture : posture;
}

let entry ?(arity = 6) ?(min_stack = 256) ?(posture = Interrupts_enabled) name =
  if arity < 0 || arity > 6 then invalid_arg "entry: arity must be 0..6";
  if min_stack < 0 then invalid_arg "entry: negative min_stack";
  { entry_name = name; arity; min_stack; posture }

type import =
  | Call of { comp : string; entry : string }
  | Lib_call of { lib : string; entry : string }
  | Mmio of { device : string }
  | Static_sealed of { target : string }
  | Unseal_key of { sealed_as : string }

let import_name = function
  | Call { comp; entry } -> Printf.sprintf "%s.%s" comp entry
  | Lib_call { lib; entry } -> Printf.sprintf "%s.%s" lib entry
  | Mmio { device } -> Printf.sprintf "mmio:%s" device
  | Static_sealed { target } -> Printf.sprintf "sealed:%s" target
  | Unseal_key { sealed_as } -> Printf.sprintf "key:%s" sealed_as

type kind = Compartment | Library

type compartment = {
  comp_name : string;
  kind : kind;
  code_loc : int;
  globals_size : int;
  entries : entry list;
  imports : import list;
  has_error_handler : bool;
}

let compartment ?(kind = Compartment) ?(code_loc = 100) ?(globals_size = 0)
    ?(entries = []) ?(imports = []) ?(error_handler = false) name =
  if kind = Library && globals_size > 0 then
    invalid_arg
      (Printf.sprintf
         "compartment %s: shared libraries must not have mutable globals" name);
  {
    comp_name = name;
    kind;
    code_loc;
    globals_size;
    entries;
    imports;
    has_error_handler = error_handler;
  }

let client_imports c =
  List.map
    (fun e ->
      match c.kind with
      | Compartment -> Call { comp = c.comp_name; entry = e.entry_name }
      | Library -> Lib_call { lib = c.comp_name; entry = e.entry_name })
    c.entries

type static_sealed = {
  sobj_name : string;
  sealed_as : string;
  payload : int list;
}

type thread = {
  thread_name : string;
  entry_comp : string;
  entry_point : string;
  priority : int;
  stack_size : int;
  trusted_stack_frames : int;
}

let thread ?(priority = 1) ?(stack_size = 1024) ?(trusted_stack_frames = 16)
    ~name ~comp ~entry () =
  {
    thread_name = name;
    entry_comp = comp;
    entry_point = entry;
    priority;
    stack_size;
    trusted_stack_frames;
  }

type t = {
  image_name : string;
  compartments : compartment list;
  sealed_objects : static_sealed list;
  threads : thread list;
}

let create ?(sealed_objects = []) ?(threads = []) ~name compartments =
  { image_name = name; compartments; sealed_objects; threads }

let find_compartment t name =
  List.find_opt (fun c -> c.comp_name = name) t.compartments

let validate t =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let unique what names =
    let sorted = List.sort compare names in
    let rec dup = function
      | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
      | [ _ ] | [] -> None
    in
    match dup sorted with
    | Some n -> err "duplicate %s: %s" what n
    | None -> Ok ()
  in
  let* () = unique "compartment" (List.map (fun c -> c.comp_name) t.compartments) in
  let* () = unique "thread" (List.map (fun th -> th.thread_name) t.threads) in
  let* () = unique "sealed object" (List.map (fun s -> s.sobj_name) t.sealed_objects) in
  let find_entry cname ename =
    match find_compartment t cname with
    | None -> err "unknown compartment %s" cname
    | Some c ->
        if List.exists (fun e -> e.entry_name = ename) c.entries then Ok c
        else err "compartment %s has no entry %s" cname ename
  in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        List.fold_left
          (fun acc imp ->
            let* () = acc in
            match imp with
            | Call { comp; entry } -> (
                let* target = find_entry comp entry in
                match target.kind with
                | Compartment -> Ok ()
                | Library -> err "%s: Call import %s targets a library" c.comp_name comp)
            | Lib_call { lib; entry } -> (
                let* target = find_entry lib entry in
                match target.kind with
                | Library -> Ok ()
                | Compartment ->
                    err "%s: Lib_call import %s targets a compartment" c.comp_name lib)
            | Mmio _ -> Ok ()
            | Static_sealed { target } ->
                if List.exists (fun s -> s.sobj_name = target) t.sealed_objects then
                  Ok ()
                else err "%s: unknown sealed object %s" c.comp_name target
            | Unseal_key _ -> Ok ())
          (Ok ()) c.imports)
      (Ok ()) t.compartments
  in
  let* () =
    List.fold_left
      (fun acc th ->
        let* () = acc in
        let* target = find_entry th.entry_comp th.entry_point in
        match target.kind with
        | Compartment -> Ok ()
        | Library -> err "thread %s starts in a library" th.thread_name)
      (Ok ()) t.threads
  in
  Ok ()

let bytes_per_loc = 19
let code_bytes c = ((c.code_loc * bytes_per_loc) + 15) / 16 * 16
