(* Snapshot gate (`make snapshot-gate`): every [mutable] record field a
   component declares must be reached by one of its snapshot captures.

   [Machine.snapshot] rewinds a machine by running each component's
   capture; a mutable field no capture mentions keeps its post-snapshot
   value across a restore, and nothing but a behavioural test that
   happens to reach that state notices.  This gate reads the typed trees
   dune writes under _build/default (the same .cmt files as
   tools/api_gate.ml) and, for each library unit holding a capture root,
   checks every mutable field declared anywhere in that unit:

   - a capture root is any argument of an application of
     [Machine.on_snapshot], or the body of any value named [snapshot];
   - a root reaches the fields it reads ([e.f], a record pattern, the
     kept fields of [{ e with ... }]) or writes ([e.f <- v]), and,
     transitively, those of every function of the same unit it refers
     to (so a helper such as [Table.capture] or [dirty] counts).

   A mutable field reached by no root fails the gate.  It has no
   exemption: a field that is deliberately not part of the snapshot
   state would have to stop being mutable.  In-place containers held in
   immutable fields (a [Bytes.t], a [Hashtbl.t]) and mutable fields
   another unit declares are outside the gate's sight. *)

let build_root = "_build/default"

let rec files_under dir ext acc =
  Array.fold_left
    (fun acc name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then files_under p ext acc
      else if Filename.check_suffix name ext then p :: acc
      else acc)
    acc (Sys.readdir dir)

let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

let is_on_snapshot (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, vd) ->
      Path.last p = "on_snapshot"
      && Filename.basename (Filename.remove_extension vd.val_loc.loc_start.pos_fname)
         = "machine"
  | _ -> false

(* The mutable fields [str] declares, its capture roots, and its
   value bindings by definition site. *)
let scan_unit (str : Typedtree.structure) =
  let fields = ref [] in
  let roots = ref [] in
  let defs = Hashtbl.create 256 in
  let add_labels ty_name lds =
    List.iter
      (fun (ld : Typedtree.label_declaration) ->
        if ld.ld_mutable = Asttypes.Mutable then
          fields := (ld.ld_loc, ty_name, ld.ld_name.txt) :: !fields)
      lds
  in
  let type_declaration self (td : Typedtree.type_declaration) =
    (match td.typ_kind with
    | Ttype_record lds -> add_labels td.typ_name.txt lds
    | Ttype_variant cds ->
        List.iter
          (fun (cd : Typedtree.constructor_declaration) ->
            match cd.cd_args with
            | Cstr_record lds -> add_labels (td.typ_name.txt ^ "." ^ cd.cd_name.txt) lds
            | Cstr_tuple _ -> ())
          cds
    | Ttype_abstract | Ttype_open -> ());
    Tast_iterator.default_iterator.type_declaration self td
  in
  let value_binding self (vb : Typedtree.value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (_, name) ->
        Hashtbl.replace defs (key name.loc) vb.vb_expr;
        if name.txt = "snapshot" then roots := vb.vb_expr :: !roots
    | _ -> ());
    Tast_iterator.default_iterator.value_binding self vb
  in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (f, args) when is_on_snapshot f ->
        List.iter (function _, Some a -> roots := a :: !roots | _, None -> ()) args
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it =
    { Tast_iterator.default_iterator with type_declaration; value_binding; expr }
  in
  it.structure it str;
  (List.rev !fields, !roots, defs)

(* Definition sites of the fields the roots reach, following references
   to the unit's own bindings. *)
let reached roots defs =
  let touched = Hashtbl.create 256 in
  let visited = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter (fun r -> Queue.push r queue) roots;
  let touch (lbl : Types.label_description) = Hashtbl.replace touched (key lbl.lbl_loc) () in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_field (_, _, lbl) | Texp_setfield (_, _, lbl, _) -> touch lbl
    | Texp_record { fields; extended_expression = Some _; _ } ->
        Array.iter
          (fun (lbl, def) ->
            match def with Typedtree.Kept _ -> touch lbl | Overridden _ -> ())
          fields
    | Texp_ident (_, _, vd) -> (
        let k = key vd.val_loc in
        match Hashtbl.find_opt defs k with
        | Some body when not (Hashtbl.mem visited k) ->
            Hashtbl.replace visited k ();
            Queue.push body queue
        | Some _ | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let pat (type k) self (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Tpat_record (fs, _) -> List.iter (fun (_, lbl, _) -> touch lbl) fs
    | _ -> ());
    Tast_iterator.default_iterator.pat self p
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  while not (Queue.is_empty queue) do
    it.expr it (Queue.pop queue)
  done;
  touched

(* Every mutable field of [cmt]'s unit that no capture root reaches;
   [None] for a unit with no root, which is not a snapshot component. *)
let unreached cmt =
  match Cmt_format.read_cmt cmt with
  | { cmt_annots = Implementation str; cmt_sourcefile = Some src; _ } -> (
      match scan_unit str with
      | _, [], _ -> None
      | fields, roots, defs ->
          let touched = reached roots defs in
          Some
            (List.filter_map
               (fun ((loc : Location.t), ty, f) ->
                 if Hashtbl.mem touched (key loc) then None
                 else Some (src, loc.loc_start.pos_lnum, ty, f))
               fields))
  | _ -> None

let () =
  let lib = Filename.concat build_root "lib" in
  if not (Sys.file_exists lib) then begin
    prerr_endline
      "snapshot-gate: no _build/default/lib; run `dune build @check` from the repository root";
    exit 2
  end;
  let results = List.filter_map unreached (List.sort compare (files_under lib ".cmt" [])) in
  let missed = List.concat results in
  List.iter
    (fun (src, line, ty, f) ->
      Printf.printf
        "snapshot-gate: %s:%d: mutable field %s.%s is never read or written by a \
         snapshot capture\n"
        src line ty f)
    missed;
  if missed <> [] then begin
    Printf.printf
      "snapshot-gate: FAIL — %d mutable fields outside every capture: capture each (or \
       move it into the component's immutable state record), or drop its [mutable]\n"
      (List.length missed);
    exit 1
  end;
  Printf.printf
    "snapshot-gate: every mutable field of the %d snapshot components is reached by a \
     capture\n"
    (List.length results)
