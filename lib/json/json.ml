type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string ?(pretty = false) t =
  let b = Buffer.create 256 in
  let rec go indent t =
    let pad n = if pretty then Buffer.add_string b (String.make (2 * n) ' ') in
    let nl () = if pretty then Buffer.add_char b '\n' in
    match t with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_char b '[';
        nl ();
        List.iteri
          (fun i x ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (indent + 1);
            go (indent + 1) x)
          xs;
        nl ();
        pad indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        nl ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (indent + 1);
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b (if pretty then "\": " else "\":");
            go (indent + 1) v)
          fields;
        nl ();
        pad indent;
        Buffer.add_char b '}'
  in
  go 0 t;
  Buffer.contents b

exception Parse_error of string * int

let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              if not (String.for_all is_hex_digit hex) then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ hex) in
              pos := !pos + 4;
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?';
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some ('-' | '0' .. '9') -> (
        let start = !pos in
        if peek () = Some '-' then advance ();
        let rec digits () =
          match peek () with
          | Some '0' .. '9' ->
              advance ();
              digits ()
          | _ -> ()
        in
        digits ();
        match int_of_string_opt (String.sub s start (!pos - start)) with
        | Some v -> Int v
        | None -> fail "bad or out-of-range integer")
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let index i = function
  | List xs -> ( match List.nth_opt xs i with Some v -> v | None -> Null)
  | _ -> Null

let to_int_opt = function Int n -> Some n | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list = function List xs -> xs | _ -> []
let keys = function Obj fields -> List.map fst fields | _ -> []

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> x = y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && equal v1 v2) xs ys
  | (Null | Bool _ | Int _ | Str _ | List _ | Obj _), _ -> false
