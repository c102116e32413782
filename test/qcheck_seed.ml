(* Shared seeding for the property-test suites: every QCheck test draws
   from an explicit [Random.State] built from one seed, so runs are
   reproducible by default and any failure prints the seed to re-run
   with [QCHECK_SEED=<seed> dune runtest].

   Each test derives its own independent state from (seed, test name)
   rather than sharing one stream: the draws a test sees then depend
   only on the seed and its name — not on which other tests ran, in what
   order, or on which domain — so results are identical whether suites
   run sequentially or farmed in parallel. *)

let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 0xc4e71057

let rand_for name = Random.State.make [| seed; Hashtbl.hash name |]

let to_alcotest test =
  let test_name =
    match test with QCheck2.Test.Test cell -> QCheck2.Test.get_name cell
  in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(rand_for test_name) test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.eprintf
          "\n[qcheck] random seed was %d — reproduce with QCHECK_SEED=%d\n%!"
          seed seed;
        raise e )

(* Hostile variants of well-formed seed texts, for "never raises" parser
   fuzzing: one to three of truncation, nesting up to a million deep,
   numbers no machine integer holds, bad escapes and junk bytes, applied
   in sequence. *)
let gen_mutated seeds =
  let open QCheck.Gen in
  let insert x s pos =
    let p = pos mod (String.length s + 1) in
    String.sub s 0 p ^ x ^ String.sub s p (String.length s - p)
  in
  let repeat s n =
    let b = Buffer.create (n * String.length s) in
    for _ = 1 to n do Buffer.add_string b s done;
    Buffer.contents b
  in
  let truncate s = map (fun k -> String.sub s 0 (k mod (String.length s + 1))) nat in
  let nest s =
    let* o, c =
      oneofl [ ("[", "]"); ("{", "}"); ("(", ")"); ("{\"a\":", "}"); ("-", ""); ("!", "") ]
    and* depth = frequency [ (40, return 3); (20, return 1_000); (1, return 1_000_000) ]
    and* closed = bool in
    map
      (insert (repeat o depth ^ if closed then repeat c depth else "") s)
      nat
  in
  let number s =
    let* n =
      oneofl
        [ "99999999999999999999999"; "-12345678901234567890123"; "1e400"; "0x1f"; "-" ]
    in
    map (insert n s) nat
  in
  let bad_escape s =
    let* e = oneofl [ "\"\\u12zz\""; "\\"; "\"\\x41\""; "\"\\u"; "\"\\"; "\"\\uD800\"" ] in
    map (insert e s) nat
  in
  let junk s =
    let* j = string_size ~gen:char (int_range 1 8) in
    map (insert j s) nat
  in
  let mutation s = oneof (List.map (fun f -> f s) [ truncate; nest; number; bad_escape; junk ]) in
  let rec apply n s = if n = 0 then return s else mutation s >>= apply (n - 1) in
  let* s = oneofl seeds in
  let* n = int_range 1 3 in
  apply n s

(* Failing inputs can be a megabyte long: print the head and the size. *)
let print_mutated s =
  if String.length s <= 200 then String.escaped s
  else
    Printf.sprintf "%s... (%d bytes)" (String.escaped (String.sub s 0 200))
      (String.length s)
