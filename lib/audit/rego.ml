(* Lexer *)

type token =
  | Tident of string
  | Tint of int
  | Tstr of string
  | Tpunct of string  (* {, }, [, ], (, ), ., ,, :=, ==, !=, <=, >=, <, >, +, - *)
  | Teof

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let err = ref None in
  let push t = toks := t :: !toks in
  while !i < n && !err = None do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '#' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      while
        !i < n
        && (let c = src.[!i] in
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c = '_')
      do
        incr i
      done;
      push (Tident (String.sub src start (!i - start)))
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
        incr i
      done;
      match int_of_string_opt (String.sub src start (!i - start)) with
      | Some v -> push (Tint v)
      | None -> err := Some "integer literal out of range"
    end
    else if c = '"' then begin
      incr i;
      let b = Buffer.create 16 in
      let closed = ref false in
      while !i < n && not !closed do
        if src.[!i] = '"' then closed := true
        else begin
          if src.[!i] = '\\' && !i + 1 < n then begin
            incr i;
            Buffer.add_char b
              (match src.[!i] with 'n' -> '\n' | 't' -> '\t' | c -> c)
          end
          else Buffer.add_char b src.[!i]
        end;
        incr i
      done;
      if not !closed then err := Some "unterminated string"
      else push (Tstr (Buffer.contents b))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | ":=" | "==" | "!=" | "<=" | ">=" ->
          push (Tpunct two);
          i := !i + 2
      | _ -> (
          match c with
          | '{' | '}' | '[' | ']' | '(' | ')' | '.' | ',' | '<' | '>' | '+'
          | '-' | ';' ->
              push (Tpunct (String.make 1 c));
              incr i
          | _ -> err := Some (Printf.sprintf "unexpected character '%c'" c))
    end
  done;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.rev (Teof :: !toks))

(* AST *)

type expr =
  | Eint of int
  | Estr of string
  | Ebool of bool
  | Evar of string
  | Ecall of string * expr list
  | Ebinop of string * expr * expr

type stmt = Sassign of string * expr | Sexpr of expr

type rule = { rule_name : string; bracket : string option; body : stmt list }

type t = { rules : rule list }

(* Parser *)

exception Pfail of string

let parse src =
  match lex src with
  | Error e -> Error e
  | Ok tokens -> (
      let toks = ref tokens in
      let peek () = match !toks with t :: _ -> t | [] -> Teof in
      let advance () = match !toks with _ :: rest -> toks := rest | [] -> () in
      let expect_punct p =
        match peek () with
        | Tpunct q when q = p -> advance ()
        | _ -> raise (Pfail (Printf.sprintf "expected '%s'" p))
      in
      let ident () =
        match peek () with
        | Tident x ->
            advance ();
            x
        | _ -> raise (Pfail "expected identifier")
      in
      (* Paths: data.compartment.foo collapses to foo. *)
      let rec path_tail x =
        match peek () with
        | Tpunct "." ->
            advance ();
            path_tail (ident ())
        | _ -> x
      in
      let rec expr () = cmp ()
      and cmp () =
        let lhs = add () in
        match peek () with
        | Tpunct (("==" | "!=" | "<" | ">" | "<=" | ">=") as op) ->
            advance ();
            Ebinop (op, lhs, add ())
        | _ -> lhs
      and add () =
        let rec go lhs =
          match peek () with
          | Tpunct (("+" | "-") as op) ->
              advance ();
              go (Ebinop (op, lhs, atom ()))
          | _ -> lhs
        in
        go (atom ())
      and atom () =
        match peek () with
        | Tint v ->
            advance ();
            Eint v
        | Tstr s ->
            advance ();
            Estr s
        | Tident "true" ->
            advance ();
            Ebool true
        | Tident "false" ->
            advance ();
            Ebool false
        | Tident x -> (
            advance ();
            let x = path_tail x in
            match peek () with
            | Tpunct "(" ->
                advance ();
                let args =
                  if peek () = Tpunct ")" then []
                  else
                    let rec go acc =
                      let a = expr () in
                      match peek () with
                      | Tpunct "," ->
                          advance ();
                          go (a :: acc)
                      | _ -> List.rev (a :: acc)
                    in
                    go []
                in
                expect_punct ")";
                Ecall (x, args)
            | _ -> Evar x)
        | Tpunct "(" ->
            advance ();
            let e = expr () in
            expect_punct ")";
            e
        | _ -> raise (Pfail "expected expression")
      in
      let stmt () =
        match (peek (), !toks) with
        | Tident x, _ :: Tpunct ":=" :: _ ->
            advance ();
            advance ();
            Sassign (x, expr ())
        | _ -> Sexpr (expr ())
      in
      let rule () =
        let name = ident () in
        let bracket =
          match peek () with
          | Tpunct "[" ->
              advance ();
              let v = ident () in
              expect_punct "]";
              Some v
          | _ -> None
        in
        expect_punct "{";
        let body = ref [] in
        while peek () <> Tpunct "}" do
          (match peek () with Tpunct ";" -> advance () | _ -> ());
          if peek () <> Tpunct "}" then body := stmt () :: !body
        done;
        expect_punct "}";
        { rule_name = name; bracket; body = List.rev !body }
      in
      try
        (* Optional "package <path>" header. *)
        (match peek () with
        | Tident "package" ->
            advance ();
            ignore (path_tail (ident ()))
        | _ -> ());
        let rules = ref [] in
        while peek () <> Teof do
          rules := rule () :: !rules
        done;
        Ok { rules = List.rev !rules }
      with Pfail e -> Error e)

let rule_names t =
  List.sort_uniq compare (List.map (fun r -> r.rule_name) t.rules)

(* Evaluation *)

exception Undefined of string

let truthy = function
  | Json.Bool b -> b
  | Json.Null -> false
  | Json.Int n -> n <> 0
  | Json.Str _ | Json.List _ | Json.Obj _ -> true

(* Builtins over the report *)

let comp_names report = Json.keys (Json.member "compartments" report)
let comp report name = Json.member name (Json.member "compartments" report)

let imports_of report name =
  Json.to_list (Json.member "imports" (comp report name))

let import_targets_call imp =
  match Json.to_string_opt (Json.member "kind" imp) with
  | Some ("compartment_call" | "library_call") ->
      let c =
        Option.value ~default:"" (Json.to_string_opt (Json.member "compartment_name" imp))
      in
      let f =
        Option.value ~default:"" (Json.to_string_opt (Json.member "function" imp))
      in
      Some (c, f)
  | _ -> None

let str s = Json.Str s
let strlist xs = Json.List (List.map str xs)

let builtin report name (args : Json.t list) =
  let s = function
    | Json.Str s -> s
    | v -> raise (Undefined ("expected string argument, got " ^ Json.to_string v))
  in
  match (name, args) with
  | "compartments", [] -> strlist (comp_names report)
  | "compartments_calling", [ target ] ->
      let target = s target in
      strlist
        (List.filter
           (fun c ->
             List.exists
               (fun imp ->
                 match import_targets_call imp with
                 | Some (tc, tf) -> tc = target || tc ^ "." ^ tf = target
                 | None -> false)
               (imports_of report c))
           (comp_names report))
  | "imports", [ c ] ->
      Json.List
        (List.filter_map (fun i -> Some (Json.member "name" i)) (imports_of report (s c)))
  | "exports", [ c ] ->
      Json.List
        (List.map
           (fun e -> Json.member "function" e)
           (Json.to_list (Json.member "exports" (comp report (s c)))))
  | "mmio_users", [ device ] ->
      let device = s device in
      strlist
        (List.filter
           (fun c ->
             List.exists
               (fun imp ->
                 Json.to_string_opt (Json.member "device" imp) = Some device)
               (imports_of report c))
           (comp_names report))
  | "sealed_users", [ target ] ->
      let target = s target in
      strlist
        (List.filter
           (fun c ->
             List.exists
               (fun imp ->
                 Json.to_string_opt (Json.member "target" imp) = Some target)
               (imports_of report c))
           (comp_names report))
  | "quota", [ o ] ->
      Json.index 0
        (Json.member "payload" (Json.member (s o) (Json.member "sealed_objects" report)))
  | "total_quota", [] ->
      let objs = Json.member "sealed_objects" report in
      Json.Int
        (List.fold_left
           (fun acc k ->
             let o = Json.member k objs in
             if Json.to_string_opt (Json.member "sealed_as" o) = Some "allocator"
             then
               acc
               + Option.value ~default:0
                   (Json.to_int_opt (Json.index 0 (Json.member "payload" o)))
             else acc)
           0 (Json.keys objs))
  | "heap_size", [] -> Json.member "size" (Json.member "heap" report)
  | "code_size", [ c ] -> Json.member "code_size" (comp report (s c))
  | "globals_size", [ c ] -> Json.member "globals_size" (comp report (s c))
  | "has_error_handler", [ c ] -> Json.member "error_handler" (comp report (s c))
  | "thread_count", [] ->
      Json.Int (List.length (Json.to_list (Json.member "threads" report)))
  | "threads_in", [ c ] ->
      let cname = s c in
      Json.List
        (List.filter_map
           (fun th ->
             if Json.to_string_opt (Json.member "compartment" th) = Some cname
             then Some (Json.member "name" th)
             else None)
           (Json.to_list (Json.member "threads" report)))
  | "disables_interrupts", [ c ] ->
      Json.List
        (List.filter_map
           (fun e ->
             if
               Json.to_string_opt (Json.member "interrupt_posture" e)
               = Some "disabled"
             then Some (Json.member "function" e)
             else None)
           (Json.to_list (Json.member "exports" (comp report (s c)))))
  | "count", [ v ] -> (
      match v with
      | Json.List xs -> Json.Int (List.length xs)
      | Json.Obj fields -> Json.Int (List.length fields)
      | Json.Str s -> Json.Int (String.length s)
      | _ -> raise (Undefined "count: not countable"))
  | "sum", [ Json.List xs ] ->
      Json.Int
        (List.fold_left
           (fun acc v -> acc + Option.value ~default:0 (Json.to_int_opt v))
           0 xs)
  | "contains", [ Json.List xs; v ] -> Json.Bool (List.exists (Json.equal v) xs)
  | "startswith", [ a; b ] ->
      let a = s a and b = s b in
      Json.Bool (String.length a >= String.length b && String.sub a 0 (String.length b) = b)
  | "endswith", [ a; b ] ->
      let a = s a and b = s b in
      Json.Bool
        (String.length a >= String.length b
        && String.sub a (String.length a - String.length b) (String.length b) = b)
  | _ ->
      raise
        (Undefined
           (Printf.sprintf "unknown builtin %s/%d" name (List.length args)))

let rec eval_expr report env = function
  | Eint n -> Json.Int n
  | Estr s -> Json.Str s
  | Ebool b -> Json.Bool b
  | Evar x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> raise (Undefined ("unbound variable " ^ x)))
  | Ecall (f, args) -> builtin report f (List.map (eval_expr report env) args)
  | Ebinop (op, a, b) -> (
      let va = eval_expr report env a and vb = eval_expr report env b in
      match op with
      | "==" -> Json.Bool (Json.equal va vb)
      | "!=" -> Json.Bool (not (Json.equal va vb))
      | "+" | "-" -> (
          match (va, vb) with
          | Json.Int x, Json.Int y ->
              Json.Int (if op = "+" then x + y else x - y)
          | _ -> raise (Undefined "arithmetic on non-integers"))
      | "<" | ">" | "<=" | ">=" -> (
          match (va, vb) with
          | Json.Int x, Json.Int y ->
              Json.Bool
                (match op with
                | "<" -> x < y
                | ">" -> x > y
                | "<=" -> x <= y
                | _ -> x >= y)
          | _ -> raise (Undefined "comparison on non-integers"))
      | _ -> raise (Undefined ("unknown operator " ^ op)))

(* A rule body succeeds when every statement evaluates truthily; the
   result is the bracket variable's binding (Bool true otherwise). *)
let eval_body report rule =
  let rec go env = function
    | [] -> (
        match rule.bracket with
        | None -> Some (Json.Bool true)
        | Some v -> List.assoc_opt v env)
    | Sassign (x, e) :: rest -> go ((x, eval_expr report env e) :: env) rest
    | Sexpr e :: rest -> if truthy (eval_expr report env e) then go env rest else None
  in
  try go [] rule.body with Undefined _ -> None

let eval_rule t ~report name =
  let matching = List.filter (fun r -> r.rule_name = name) t.rules in
  if matching = [] then Error (Printf.sprintf "no rule named %s" name)
  else Ok (List.filter_map (eval_body report) matching)

let denials t ~report =
  match eval_rule t ~report "deny" with
  | Error _ -> []
  | Ok vs ->
      List.map
        (fun v ->
          match v with Json.Str s -> s | v -> Json.to_string v)
        vs

let allowed t ~report =
  denials t ~report = []
  &&
  match eval_rule t ~report "allow" with
  | Error _ -> true (* no allow rule: default allow *)
  | Ok vs -> vs <> []
