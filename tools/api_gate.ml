(* Interface gate (`make api-gate`): every [val] a library interface
   (lib/*/*.mli) exports must be used by some other compilation unit.

   It reads the typed trees dune already writes under _build/default
   (.cmti for each interface, .cmt for each implementation).  In a typed
   tree, a use of a value carries the value description it resolved to,
   through any open, module alias or include, and for a value imported
   from another unit that description holds the location of its [val]
   in the interface.  So an export counts as used exactly when a
   reference from another unit resolves to its declaration, however it
   is spelled there; a name that merely appears elsewhere does not
   count.  The gate has no exemption list: a failure is fixed by
   dropping the [val] from the .mli (if the build then reports warning
   32, deleting the definition too) or by giving it a caller or a
   test. *)

let build_root = "_build/default"
let scanned = [ "lib"; "test"; "bench"; "examples"; "perfbench"; "bin" ]

let rec files_under dir ext acc =
  Array.fold_left
    (fun acc name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then files_under p ext acc
      else if Filename.check_suffix name ext then p :: acc
      else acc)
    acc (Sys.readdir dir)

let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* Declaration site -> the source files whose code refers to it. *)
let users : (string * int, string) Hashtbl.t = Hashtbl.create 8192

let record_uses cmt =
  match Cmt_format.read_cmt cmt with
  | { cmt_annots = Implementation str; cmt_sourcefile = Some src; _ } ->
      let expr self (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (_, _, vd) -> Hashtbl.add users (key vd.val_loc) src
        | _ -> ());
        Tast_iterator.default_iterator.expr self e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it str
  | _ -> ()

(* Every [val] (nested module signatures included) that [cmti], a
   library interface, declares and no other unit uses. *)
let unused_exports cmti =
  match Cmt_format.read_cmt cmti with
  | { cmt_annots = Interface sg; cmt_sourcefile = Some mli; _ } ->
      let ml = Filename.remove_extension mli ^ ".ml" in
      let unused = ref [] in
      let value_description self (vd : Typedtree.value_description) =
        if not (List.exists (fun src -> src <> ml) (Hashtbl.find_all users (key vd.val_loc)))
        then unused := (mli, vd.val_name.txt) :: !unused;
        Tast_iterator.default_iterator.value_description self vd
      in
      let it = { Tast_iterator.default_iterator with value_description } in
      it.signature it sg;
      List.rev !unused
  | _ -> []

let () =
  let dir d = Filename.concat build_root d in
  if not (Sys.file_exists (dir "lib")) then begin
    prerr_endline "api-gate: no _build/default/lib; run `dune build @check` from the repository root";
    exit 2
  end;
  List.iter (fun d -> List.iter record_uses (files_under (dir d) ".cmt" [])) scanned;
  let interfaces = List.sort compare (files_under (dir "lib") ".cmti" []) in
  let unused = List.concat_map unused_exports interfaces in
  List.iter
    (fun (mli, v) ->
      Printf.printf "api-gate: %s exports %s, which no other compilation unit uses\n" mli v)
    unused;
  if unused <> [] then begin
    Printf.printf
      "api-gate: FAIL — %d unused exports: drop each from its .mli, or delete it if its \
       module does not use it either\n"
      (List.length unused);
    exit 1
  end;
  Printf.printf "api-gate: every exported val in lib/*/*.mli (%d interfaces) is used by another unit\n"
    (List.length interfaces)
