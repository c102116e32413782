(* Tests for the Microvium-substitute JavaScript interpreter. *)

let machine () = Machine.create ()

let eval ?(globals = []) src =
  match Jsvm.eval_string ~machine:(machine ()) ~globals src with
  | Ok v -> v
  | Error e -> Alcotest.failf "eval %S: %s" src e

let check_num what expected src =
  match eval src with
  | Jsvm.Num n -> Alcotest.(check int) what expected n
  | v -> Alcotest.failf "%s: got %s" what (Jsvm.value_to_string v)

let check_str what expected src =
  match eval src with
  | Jsvm.Str s -> Alcotest.(check string) what expected s
  | v -> Alcotest.failf "%s: got %s" what (Jsvm.value_to_string v)

let test_arithmetic () =
  check_num "add" 7 "3 + 4;";
  check_num "precedence" 14 "2 + 3 * 4;";
  check_num "parens" 20 "(2 + 3) * 4;";
  check_num "mod" 2 "17 % 5;";
  check_num "neg" (-5) "-5;";
  check_num "div" 3 "10 / 3;"

let test_variables () =
  check_num "let" 10 "let x = 4; let y = 6; x + y;";
  check_num "assign" 9 "let x = 1; x = x + 8; x;"

let test_strings () =
  check_str "concat" "hello world" {|"hello" + " " + "world";|};
  check_num "length" 5 {|"hello".length;|};
  check_str "num concat" "n=42" {|"n=" + 42;|}

let test_control_flow () =
  check_num "if" 1 "let x = 0; if (3 > 2) { x = 1; } else { x = 2; } x;";
  check_num "else" 2 "let x = 0; if (3 < 2) { x = 1; } else { x = 2; } x;";
  check_num "else if" 3
    "let x = 0; if (1 > 2) { x = 1; } else if (2 > 3) { x = 2; } else { x = 3; } x;";
  check_num "while sum" 55 "let i = 1; let s = 0; while (i <= 10) { s = s + i; i = i + 1; } s;"

let test_functions () =
  check_num "simple fn" 25 "function sq(x) { return x * x; } sq(5);";
  check_num "recursion" 120 "function f(n) { if (n <= 1) { return 1; } return n * f(n - 1); } f(5);";
  check_num "closure" 8
    "function adder(n) { return function(x) { return x + n; }; } let add3 = adder(3); add3(5);";
  check_num "anon fn" 6 "let twice = function(x) { return 2 * x; }; twice(3);"

let test_arrays () =
  check_num "index" 20 "let a = [10, 20, 30]; a[1];";
  check_num "length" 3 "[1, 2, 3].length;";
  check_num "index assign" 99 "let a = [1, 2, 3]; a[2] = 99; a[2];";
  check_num "concat" 4 "([1,2] + [3,4]).length;"

let test_logic () =
  check_num "and shortcircuit" 0 "let x = 0; false && (x = 1); x;";
  check_num "or value" 5 "let v = 0 || 5; v;";
  (match eval "1 == 1;" with
  | Jsvm.Bool true -> ()
  | _ -> Alcotest.fail "equality");
  match eval "!0;" with
  | Jsvm.Bool true -> ()
  | _ -> Alcotest.fail "not"

let test_host_functions () =
  let blinks = ref 0 in
  let globals =
    [
      ("blink", Jsvm.Host (fun _ -> incr blinks; Jsvm.Null));
      ("temp", Jsvm.Host (fun _ -> Jsvm.Num 21));
    ]
  in
  (match
     Jsvm.eval_string ~machine:(machine ()) ~globals
       "let t = temp(); if (t > 20) { blink(); blink(); } t;"
   with
  | Ok (Jsvm.Num 21) -> ()
  | Ok v -> Alcotest.failf "got %s" (Jsvm.value_to_string v)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "host called" 2 !blinks

let test_errors () =
  let expect_error src =
    match Jsvm.eval_string ~machine:(machine ()) ~globals:[] src with
    | Ok _ -> Alcotest.failf "accepted %S" src
    | Error _ -> ()
  in
  expect_error "1 +;";
  expect_error "let;";
  expect_error "undefined_variable;";
  expect_error "1 / 0;";
  expect_error "\"a\"(1);";
  expect_error "while (true) { }" (* out of fuel *)

let test_number_overflow () =
  match Jsvm.parse "99999999999999999999999;" with
  | Ok _ -> Alcotest.fail "accepted an out-of-range number literal"
  | Error e -> Alcotest.(check string) "message" "number literal out of range" e

let test_charges_cycles () =
  let m = machine () in
  let c0 = Machine.cycles m in
  (match Jsvm.eval_string ~machine:m ~globals:[] "let s = 0; let i = 0; while (i < 100) { s = s + i; i = i + 1; } s;" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "interpreted cost" true (Machine.cycles m - c0 > 1000)

(* Hostile scripts: the parser returns an error, it never raises. *)
let js_seeds =
  [
    "function f(n) { if (n <= 1) { return 1; } return n * f(n - 1); } f(5);";
    "let a = [10, 20, 30]; a[2] = \"x\\n\" + a.length; let t = function(x) { return !x || a[0] == 1; };";
    "let i = 1; let s = 0; while (i <= 10) { s = s + i % 3; i = i + 1; } if (s > 2) { s; } else { -s; }";
  ]

let prop_parse_never_raises =
  QCheck.Test.make ~name:"Jsvm.parse on mutated scripts never raises" ~count:300
    (QCheck.make ~print:Qcheck_seed.print_mutated (Qcheck_seed.gen_mutated js_seeds))
    (fun src -> match Jsvm.parse src with Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "variables" `Quick test_variables;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "host functions" `Quick test_host_functions;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "number overflow" `Quick test_number_overflow;
    Alcotest.test_case "charges cycles" `Quick test_charges_cycles;
    Qcheck_seed.to_alcotest prop_parse_never_raises;
  ]

let () = Alcotest.run "cheriot_jsvm" [ ("jsvm", suite) ]
