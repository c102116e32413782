(* Lexer *)

type token =
  | Tnum of int
  | Tstr of string
  | Tident of string
  | Tkw of string
  | Top of string
  | Teof

let keywords = [ "let"; "if"; "else"; "while"; "return"; "function"; "true"; "false"; "null" ]

let lex src =
  let n = String.length src in
  let i = ref 0 in
  let out = ref [] in
  let error = ref None in
  while !i < n && !error = None do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
        incr i
      done;
      match int_of_string_opt (String.sub src start (!i - start)) with
      | Some v -> out := Tnum v :: !out
      | None -> error := Some "number literal out of range"
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$' then begin
      let start = !i in
      while
        !i < n
        && (let c = src.[!i] in
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c = '_' || c = '$')
      do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      out := (if List.mem word keywords then Tkw word else Tident word) :: !out
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      incr i;
      let b = Buffer.create 16 in
      let closed = ref false in
      while !i < n && not !closed do
        if src.[!i] = quote then closed := true
        else if src.[!i] = '\\' && !i + 1 < n then begin
          incr i;
          Buffer.add_char b (match src.[!i] with 'n' -> '\n' | 't' -> '\t' | c -> c)
        end
        else Buffer.add_char b src.[!i];
        incr i
      done;
      if !closed then out := Tstr (Buffer.contents b) :: !out
      else error := Some "unterminated string"
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | ">=" | "&&" | "||" ->
          out := Top two :: !out;
          i := !i + 2
      | _ -> (
          match c with
          | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' | '(' | ')' | '{' | '}'
          | '[' | ']' | ',' | ';' | '!' | '.' ->
              out := Top (String.make 1 c) :: !out;
              incr i
          | _ -> error := Some (Printf.sprintf "unexpected character %c" c))
    end
  done;
  match !error with Some e -> Error e | None -> Ok (List.rev (Teof :: !out))

(* AST *)

type expr =
  | Enum of int
  | Estr of string
  | Ebool of bool
  | Enull
  | Evar of string
  | Earr of expr list
  | Eindex of expr * expr
  | Emember of expr * string
  | Ecall of expr * expr list
  | Eunop of string * expr
  | Ebinop of string * expr * expr
  | Eassign of string * expr
  | Eindex_assign of expr * expr * expr
  | Efun of string list * ast_stmt list

and ast_stmt =
  | Slet of string * expr
  | Sexpr of expr
  | Sif of expr * ast_stmt list * ast_stmt list
  | Swhile of expr * ast_stmt list
  | Sreturn of expr option
  | Sfundef of string * string list * ast_stmt list

type program = ast_stmt list

(* Values and environments *)

type value =
  | Null
  | Bool of bool
  | Num of int
  | Str of string
  | Arr of value list
  | Fn of string list * ast_stmt list * env
  | Host of (value list -> value)

and env = { mutable vars : (string * value ref) list; parent : env option }

let rec lookup env name =
  match List.assoc_opt name env.vars with
  | Some r -> Some r
  | None -> ( match env.parent with Some p -> lookup p name | None -> None)

let rec value_to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num n -> string_of_int n
  | Str s -> s
  | Arr vs -> "[" ^ String.concat "," (List.map value_to_string vs) ^ "]"
  | Fn _ -> "<function>"
  | Host _ -> "<host function>"

let rec equal_value a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> x = y
  | Arr x, Arr y -> List.length x = List.length y && List.for_all2 equal_value x y
  | _ -> false

(* Parser (recursive descent with precedence climbing) *)

exception Parse_fail of string

let parse src =
  match lex src with
  | Error e -> Error e
  | Ok tokens -> (
      let toks = ref tokens in
      let peek () = match !toks with t :: _ -> t | [] -> Teof in
      let peek2 () = match !toks with _ :: t :: _ -> t | _ -> Teof in
      let advance () = match !toks with _ :: r -> toks := r | [] -> () in
      let expect_op o =
        match peek () with
        | Top o' when o' = o -> advance ()
        | _ -> raise (Parse_fail (Printf.sprintf "expected '%s'" o))
      in
      let ident () =
        match peek () with
        | Tident x ->
            advance ();
            x
        | _ -> raise (Parse_fail "expected identifier")
      in
      let prec = function
        | "||" -> 1
        | "&&" -> 2
        | "==" | "!=" -> 3
        | "<" | ">" | "<=" | ">=" -> 4
        | "+" | "-" -> 5
        | "*" | "/" | "%" -> 6
        | _ -> -1
      in
      let rec expr () = assign_expr ()
      and assign_expr () =
        match (peek (), peek2 ()) with
        | Tident x, Top "=" ->
            advance ();
            advance ();
            Eassign (x, assign_expr ())
        | _ -> binary 1
      and binary min_prec =
        let lhs = ref (unary ()) in
        let continue_ = ref true in
        while !continue_ do
          match peek () with
          | Top o when prec o >= min_prec ->
              advance ();
              let rhs = binary (prec o + 1) in
              lhs := Ebinop (o, !lhs, rhs)
          | _ -> continue_ := false
        done;
        !lhs
      and unary () =
        match peek () with
        | Top "!" ->
            advance ();
            Eunop ("!", unary ())
        | Top "-" ->
            advance ();
            Eunop ("-", unary ())
        | _ -> postfix (atom ())
      and postfix e =
        match peek () with
        | Top "(" ->
            advance ();
            let args = call_args () in
            postfix (Ecall (e, args))
        | Top "[" -> (
            advance ();
            let idx = expr () in
            expect_op "]";
            (* array index assignment? *)
            match peek () with
            | Top "=" ->
                advance ();
                Eindex_assign (e, idx, expr ())
            | _ -> postfix (Eindex (e, idx)))
        | Top "." ->
            advance ();
            let m = ident () in
            postfix (Emember (e, m))
        | _ -> e
      and call_args () =
        if peek () = Top ")" then begin
          advance ();
          []
        end
        else begin
          let rec go acc =
            let a = expr () in
            match peek () with
            | Top "," ->
                advance ();
                go (a :: acc)
            | Top ")" ->
                advance ();
                List.rev (a :: acc)
            | _ -> raise (Parse_fail "expected ',' or ')'")
          in
          go []
        end
      and atom () =
        match peek () with
        | Tnum n ->
            advance ();
            Enum n
        | Tstr s ->
            advance ();
            Estr s
        | Tkw "true" ->
            advance ();
            Ebool true
        | Tkw "false" ->
            advance ();
            Ebool false
        | Tkw "null" ->
            advance ();
            Enull
        | Tkw "function" ->
            advance ();
            expect_op "(";
            let params = param_list () in
            Efun (params, block ())
        | Tident x ->
            advance ();
            Evar x
        | Top "(" ->
            advance ();
            let e = expr () in
            expect_op ")";
            e
        | Top "[" ->
            advance ();
            if peek () = Top "]" then begin
              advance ();
              Earr []
            end
            else begin
              let rec go acc =
                let a = expr () in
                match peek () with
                | Top "," ->
                    advance ();
                    go (a :: acc)
                | Top "]" ->
                    advance ();
                    Earr (List.rev (a :: acc))
                | _ -> raise (Parse_fail "expected ',' or ']'")
              in
              go []
            end
        | _ -> raise (Parse_fail "expected expression")
      and param_list () =
        if peek () = Top ")" then begin
          advance ();
          []
        end
        else begin
          let rec go acc =
            let p = ident () in
            match peek () with
            | Top "," ->
                advance ();
                go (p :: acc)
            | Top ")" ->
                advance ();
                List.rev (p :: acc)
            | _ -> raise (Parse_fail "expected ',' or ')'")
          in
          go []
        end
      and block () =
        expect_op "{";
        let stmts = ref [] in
        while peek () <> Top "}" do
          stmts := stmt () :: !stmts
        done;
        advance ();
        List.rev !stmts
      and stmt () =
        match peek () with
        | Tkw "let" ->
            advance ();
            let x = ident () in
            expect_op "=";
            let e = expr () in
            semi ();
            Slet (x, e)
        | Tkw "if" ->
            advance ();
            expect_op "(";
            let c = expr () in
            expect_op ")";
            let then_ = block () in
            let else_ =
              match peek () with
              | Tkw "else" ->
                  advance ();
                  if peek () = Tkw "if" then [ stmt () ] else block ()
              | _ -> []
            in
            Sif (c, then_, else_)
        | Tkw "while" ->
            advance ();
            expect_op "(";
            let c = expr () in
            expect_op ")";
            Swhile (c, block ())
        | Tkw "return" ->
            advance ();
            if peek () = Top ";" then begin
              advance ();
              Sreturn None
            end
            else begin
              let e = expr () in
              semi ();
              Sreturn (Some e)
            end
        | Tkw "function" when (match peek2 () with Tident _ -> true | _ -> false) ->
            advance ();
            let name = ident () in
            expect_op "(";
            let params = param_list () in
            Sfundef (name, params, block ())
        | _ ->
            let e = expr () in
            semi ();
            Sexpr e
      and semi () = match peek () with Top ";" -> advance () | _ -> ()
      in
      try
        let stmts = ref [] in
        while peek () <> Teof do
          stmts := stmt () :: !stmts
        done;
        Ok (List.rev !stmts)
      with Parse_fail e -> Error e)

(* Evaluator *)

let step_cycles = 14
let fuel_budget = 1_000_000

exception Return_exn of value
exception Eval_fail of string

let truthy = function
  | Null -> false
  | Bool b -> b
  | Num n -> n <> 0
  | Str s -> s <> ""
  | Arr _ | Fn _ | Host _ -> true

let run ~machine ~globals program =
  let fuel = ref fuel_budget in
  let step () =
    decr fuel;
    if !fuel <= 0 then raise (Eval_fail "out of fuel");
    Machine.tick machine step_cycles
  in
  let root = { vars = List.map (fun (k, v) -> (k, ref v)) globals; parent = None } in
  let rec eval env e =
    step ();
    match e with
    | Enum n -> Num n
    | Estr s -> Str s
    | Ebool b -> Bool b
    | Enull -> Null
    | Evar x -> (
        match lookup env x with
        | Some r -> !r
        | None -> raise (Eval_fail ("unbound variable " ^ x)))
    | Earr es -> Arr (List.map (eval env) es)
    | Eindex (a, i) -> (
        match (eval env a, eval env i) with
        | Arr vs, Num n when n >= 0 && n < List.length vs -> List.nth vs n
        | Str s, Num n when n >= 0 && n < String.length s -> Str (String.make 1 s.[n])
        | _ -> Null)
    | Eindex_assign (a, i, v) -> (
        (* only variables holding arrays are assignable *)
        match a with
        | Evar x -> (
            match lookup env x with
            | Some r -> (
                match (!r, eval env i) with
                | Arr vs, Num n when n >= 0 && n < List.length vs ->
                    let v' = eval env v in
                    r := Arr (List.mapi (fun j old -> if j = n then v' else old) vs);
                    v'
                | _ -> raise (Eval_fail "bad index assignment"))
            | None -> raise (Eval_fail ("unbound variable " ^ x)))
        | _ -> raise (Eval_fail "bad index assignment target"))
    | Emember (e, m) -> (
        match eval env e with
        | Arr vs when m = "length" -> Num (List.length vs)
        | Str s when m = "length" -> Num (String.length s)
        | v -> raise (Eval_fail ("no member " ^ m ^ " on " ^ value_to_string v)))
    | Ecall (f, args) -> (
        let fv = eval env f in
        let argv = List.map (eval env) args in
        match fv with
        | Host h -> h argv
        | Fn (params, body, closure) ->
            let frame =
              {
                vars =
                  List.mapi
                    (fun i p ->
                      (p, ref (match List.nth_opt argv i with Some v -> v | None -> Null)))
                    params;
                parent = Some closure;
              }
            in
            (try
               exec_block frame body;
               Null
             with Return_exn v -> v)
        | v -> raise (Eval_fail ("not callable: " ^ value_to_string v)))
    | Eunop ("!", e) -> Bool (not (truthy (eval env e)))
    | Eunop ("-", e) -> (
        match eval env e with
        | Num n -> Num (-n)
        | _ -> raise (Eval_fail "negation of non-number"))
    | Eunop (o, _) -> raise (Eval_fail ("unknown unary " ^ o))
    | Ebinop ("&&", a, b) ->
        let va = eval env a in
        if truthy va then eval env b else va
    | Ebinop ("||", a, b) ->
        let va = eval env a in
        if truthy va then va else eval env b
    | Ebinop (o, a, b) -> binop o (eval env a) (eval env b)
    | Eassign (x, e) -> (
        let v = eval env e in
        match lookup env x with
        | Some r ->
            r := v;
            v
        | None -> raise (Eval_fail ("assignment to unbound variable " ^ x)))
    | Efun (params, body) -> Fn (params, body, env)
  and binop o a b =
    match (o, a, b) with
    | "==", a, b -> Bool (equal_value a b)
    | "!=", a, b -> Bool (not (equal_value a b))
    | "+", Num x, Num y -> Num (x + y)
    | "+", Str x, y -> Str (x ^ value_to_string y)
    | "+", x, Str y -> Str (value_to_string x ^ y)
    | "+", Arr x, Arr y -> Arr (x @ y)
    | "-", Num x, Num y -> Num (x - y)
    | "*", Num x, Num y -> Num (x * y)
    | "/", Num x, Num y -> if y = 0 then raise (Eval_fail "division by zero") else Num (x / y)
    | "%", Num x, Num y -> if y = 0 then raise (Eval_fail "division by zero") else Num (x mod y)
    | "<", Num x, Num y -> Bool (x < y)
    | ">", Num x, Num y -> Bool (x > y)
    | "<=", Num x, Num y -> Bool (x <= y)
    | ">=", Num x, Num y -> Bool (x >= y)
    | "<", Str x, Str y -> Bool (x < y)
    | ">", Str x, Str y -> Bool (x > y)
    | _ -> raise (Eval_fail (Printf.sprintf "bad operands for %s" o))
  and exec env s =
    step ();
    match s with
    | Slet (x, e) -> env.vars <- (x, ref (eval env e)) :: env.vars
    | Sexpr e -> last_value := eval env e
    | Sif (c, then_, else_) ->
        if truthy (eval env c) then exec_block { vars = []; parent = Some env } then_
        else exec_block { vars = []; parent = Some env } else_
    | Swhile (c, body) ->
        while truthy (eval env c) do
          exec_block { vars = []; parent = Some env } body
        done
    | Sreturn e -> raise (Return_exn (match e with Some e -> eval env e | None -> Null))
    | Sfundef (name, params, body) ->
        env.vars <- (name, ref (Fn (params, body, env))) :: env.vars
  and exec_block env stmts = List.iter (exec env) stmts
  and last_value = ref Null in
  try
    exec_block root program;
    Ok !last_value
  with
  | Return_exn v -> Ok v
  | Eval_fail e -> Error e

let eval_string ~machine ~globals src =
  match parse src with
  | Error e -> Error ("parse error: " ^ e)
  | Ok p -> run ~machine ~globals p

let firmware_library () =
  Firmware.compartment "microvium" ~kind:Firmware.Library ~code_loc:780
    ~entries:[ Firmware.entry "run" ~arity:3 ~min_stack:0 ]
