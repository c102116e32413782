(* Tests for the JSON substrate, firmware reports and the mini-Rego
   policy engine (§4). *)

module F = Firmware

let test_json_roundtrip () =
  let open Json in
  let v =
    Obj
      [
        ("a", Int 42); ("b", Str "hi \"there\"\n"); ("c", List [ Bool true; Null ]);
        ("d", Obj [ ("nested", Int (-7)) ]);
      ]
  in
  (match of_string (to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact roundtrip" true (equal v v')
  | Error e -> Alcotest.fail e);
  match of_string (to_string ~pretty:true v) with
  | Ok v' -> Alcotest.(check bool) "pretty roundtrip" true (equal v v')
  | Error e -> Alcotest.fail e

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nulll"; "1 2" ]

(* Numbers the lexer accepts but [int_of_string] cannot represent, and
   a \u escape that is not four hex digits, come back as [Error] (they
   raised [Failure "int_of_string"] once). *)
let test_json_numeric_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "-"; "123456789012345678901234567890"; "{\"a\":-}"; "[-]";
      "\"\\u12zz\""; "\"\\u_123\"" ];
  Alcotest.(check bool) "max_int still parses" true
    (Json.of_string (string_of_int max_int) = Ok (Json.Int max_int));
  Alcotest.(check bool) "a valid \\u escape still parses" true
    (Json.of_string "\"\\u0041\"" = Ok (Json.Str "A"))

let gen_json =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) small_signed_int;
            map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 12));
          ]
      else
        frequency
          [
            (2, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
            ( 2,
              map
                (fun l ->
                  Json.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
                (list_size (int_bound 4) (self (n / 2))) );
            (1, map (fun i -> Json.Int i) small_signed_int);
          ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make ~print:Json.to_string gen_json) (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error _ -> false)

(* A firmware image mirroring the paper's HTTP-client example: one
   compartment is supposed to use the network API; the backdoored image
   adds a second. *)
let http_image ~backdoored =
  let net_api =
    F.compartment "NetAPI" ~code_loc:150
      ~entries:[ F.entry "network_socket_connect_tcp" ~arity:3 ]
  in
  let http_client =
    F.compartment "http_client" ~code_loc:200 ~globals_size:32
      ~entries:[ F.entry "run" ~arity:0 ]
      ~imports:[ F.Call { comp = "NetAPI"; entry = "network_socket_connect_tcp" } ]
  in
  let liblzma =
    F.compartment "liblzma" ~code_loc:300
      ~entries:[ F.entry "decompress" ~arity:2 ]
      ~imports:
        (if backdoored then
           [ F.Call { comp = "NetAPI"; entry = "network_socket_connect_tcp" } ]
         else [])
  in
  F.create ~name:(if backdoored then "http-backdoored" else "http")
    ~sealed_objects:[ Allocator.alloc_capability ~name:"client_quota" ~quota:1024 ]
    ~threads:[ F.thread ~name:"main" ~comp:"http_client" ~entry:"run" () ]
    [ net_api; http_client; liblzma ]

let report_of fw =
  let machine = Machine.create () in
  let interp = Interp.create machine in
  match Loader.load fw machine interp with
  | Ok ld -> Audit_report.of_loader ld
  | Error e -> Alcotest.failf "load: %s" e

let test_report_structure () =
  let report = report_of (http_image ~backdoored:false) in
  let comps = Json.member "compartments" report in
  Alcotest.(check (list string)) "compartments"
    [ "NetAPI"; "http_client"; "liblzma" ]
    (List.sort compare (Json.keys comps));
  let imports = Json.to_list (Json.member "imports" (Json.member "http_client" comps)) in
  Alcotest.(check bool) "net import present" true
    (List.exists
       (fun i ->
         Json.to_string_opt (Json.member "compartment_name" i) = Some "NetAPI")
       imports);
  (* The report is valid JSON end-to-end. *)
  match Json.of_string (Json.to_string ~pretty:true report) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* The paper's Fig. 4 policy: there must be only one caller of NetAPI. *)
let fig4_policy =
  {|
package policy

deny[msg] {
  count(data.compartment.compartments_calling("NetAPI")) > 1
  msg := "more than one compartment may reach the network API"
}
|}

let test_fig4_policy_passes_clean () =
  let policy = Result.get_ok (Rego.parse fig4_policy) in
  let report = report_of (http_image ~backdoored:false) in
  Alcotest.(check (list string)) "no denials" [] (Rego.denials policy ~report);
  Alcotest.(check bool) "allowed" true (Rego.allowed policy ~report)

let test_fig4_policy_catches_backdoor () =
  (* §5.1.3: the backdoored liblzma grows a NetAPI import; auditing makes
     it impossible to hide. *)
  let policy = Result.get_ok (Rego.parse fig4_policy) in
  let report = report_of (http_image ~backdoored:true) in
  match Rego.denials policy ~report with
  | [ msg ] ->
      Alcotest.(check bool) "message" true
        (String.length msg > 0);
      Alcotest.(check bool) "not allowed" false (Rego.allowed policy ~report)
  | other -> Alcotest.failf "expected one denial, got %d" (List.length other)

let test_quota_policy () =
  let policy =
    Result.get_ok
      (Rego.parse
         {|
deny[msg] {
  total_quota() > heap_size()
  msg := "allocation capabilities oversubscribe the heap"
}
|})
  in
  let report = report_of (http_image ~backdoored:false) in
  Alcotest.(check (list string)) "quota fits" [] (Rego.denials policy ~report)

let test_builtins () =
  let report = report_of (http_image ~backdoored:true) in
  let run src rule =
    let p = Result.get_ok (Rego.parse src) in
    Result.get_ok (Rego.eval_rule p ~report rule)
  in
  (* compartments_calling with comp.entry syntax *)
  let callers =
    match
      run
        {|r[x] { x := compartments_calling("NetAPI.network_socket_connect_tcp") }|}
        "r"
    with
    | [ Json.List xs ] -> List.length xs
    | _ -> -1
  in
  Alcotest.(check int) "callers of entry" 2 callers;
  Alcotest.(check bool) "count compartments" true
    (run {|r { count(compartments()) == 3 }|} "r" <> []);
  Alcotest.(check bool) "exports builtin" true
    (run {|r { contains(exports("NetAPI"), "network_socket_connect_tcp") }|} "r" <> []);
  Alcotest.(check bool) "quota builtin" true
    (run {|r { quota("client_quota") == 1024 }|} "r" <> []);
  Alcotest.(check bool) "string ops" true
    (run {|r { startswith("http_client", "http"); endswith("liblzma", "lzma") }|} "r" <> [])

let test_rego_parse_errors () =
  List.iter
    (fun src ->
      match Rego.parse src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [ "deny[ { }"; "deny { count( }"; "{ }"; "deny { x := }" ]

let test_rego_integer_overflow () =
  match Rego.parse "deny { x := 99999999999999999999999 }" with
  | Ok _ -> Alcotest.fail "accepted an out-of-range integer literal"
  | Error e ->
      Alcotest.(check string) "message" "integer literal out of range" e

let test_allow_rule () =
  let report = report_of (http_image ~backdoored:false) in
  let p =
    Result.get_ok
      (Rego.parse {|allow { has_error_handler("http_client") == false }|})
  in
  Alcotest.(check bool) "allow rule true" true (Rego.allowed p ~report);
  let p2 = Result.get_ok (Rego.parse {|allow { has_error_handler("http_client") }|}) in
  Alcotest.(check bool) "allow rule false" false (Rego.allowed p2 ~report)

let test_mmio_users () =
  (* An image with a device import. *)
  let machine = Machine.create () in
  Machine.add_device machine ~base:0x1000_0000 ~size:16
    (Machine.Device.ram ~name:"led" ~size:16);
  let fw =
    F.create ~name:"dev"
      ~threads:[ F.thread ~name:"t" ~comp:"driver" ~entry:"run" () ]
      [
        F.compartment "driver" ~code_loc:50
          ~entries:[ F.entry "run" ~arity:0 ]
          ~imports:[ F.Mmio { device = "led" } ];
        F.compartment "bystander" ~code_loc:50 ~entries:[ F.entry "noop" ~arity:0 ];
      ]
  in
  let interp = Interp.create machine in
  let report = Audit_report.of_loader (Result.get_ok (Loader.load fw machine interp)) in
  let p =
    Result.get_ok
      (Rego.parse
         {|deny[msg] { count(mmio_users("led")) != 1; msg := "led must have exactly one driver" }|})
  in
  Alcotest.(check (list string)) "exactly one led user" [] (Rego.denials p ~report);
  Alcotest.(check bool) "summary mentions driver" true
    (let s = Audit_report.summary report in
     String.length s > 0)

(* Hostile inputs (§5.1.3: the auditor reads reports and policies an
   attacker may have shaped): the parsers and the policy evaluator
   return, they never raise. *)

(* The linker report of the built-in iot-app image, as the audit tool
   builds it. *)
let iot_report =
  lazy
    (let machine = Machine.create () in
     Machine.add_device machine ~base:0x1000_0000 ~size:16
       (Machine.Device.ram ~name:"led" ~size:16);
     ignore (Netsim.attach machine);
     let interp = Interp.create machine in
     match Loader.load (Iot_scenario.firmware ()) machine interp with
     | Ok ld -> Audit_report.of_loader ld
     | Error e -> failwith e)

let audit_policy =
  {|
package policy

deny[msg] {
  count(data.compartment.compartments_calling("netapi")) > 2
  msg := "too many network clients"
}
deny[msg] { total_quota() > heap_size(); msg := "quota oversubscribed" }
deny[msg] { count(mmio_users("led")) != 1; msg := "led must have one driver" }
deny[msg] { contains(exports("tcpip"), "rx_step"); has_error_handler("tcpip") == false; msg := "tcpip has no handler" }
deny[msg] { count(imports("app")) + thread_count() > 100; msg := "app imports too much" }
deny[msg] { code_size("tls") - globals_size("tls") < 0; msg := "tls sizes" }
deny[msg] { count(disables_interrupts("sched")) > 3; msg := "sched" }
deny[msg] { quota("dns_quota") > 4096; startswith("mqtt", "mq"); msg := "dns quota" }
deny[msg] { count(sealed_users("dns_quota")) > 1; count(threads_in("app")) == 0; endswith("x", "y"); msg := "shared" }
allow { count(compartments()) > 0 }
|}

let json_seeds =
  lazy
    [
      Json.to_string (Lazy.force iot_report);
      {|{"a": [1, -2, "s\"\nA\u0041", true, null, {"b": {}}], "c": []}|};
      {|[[[[0]]], {"k": "v"}]|};
    ]

let rego_seeds =
  [ audit_policy; fig4_policy; {|r[x] { x := compartments_calling("NetAPI.f") }|} ]

let never_raises name ~count seeds f =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:Qcheck_seed.print_mutated
       (QCheck.Gen.delay (fun () -> Qcheck_seed.gen_mutated (seeds ()))))
    (fun s ->
      f s;
      true)

let prop_json_never_raises =
  never_raises "Json.of_string on mutated reports never raises" ~count:300
    (fun () -> Lazy.force json_seeds)
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok v ->
          (* What parses prints back to the same value. *)
          match Json.of_string (Json.to_string v) with
          | Ok v' when Json.equal v v' -> ()
          | _ -> failwith "print/parse is not the identity")

let prop_rego_never_raises =
  never_raises "Rego.parse on mutated policies never raises" ~count:300
    (fun () -> rego_seeds)
    (fun s -> match Rego.parse s with Ok _ | Error _ -> ())

(* A well-formed policy over a report whose values were replaced at
   random by values of the wrong shape, the wrong sign or no value at
   all. *)
let gen_mutated_report =
  let open QCheck.Gen in
  let junk =
    oneofl
      [ Json.Null; Json.Bool true; Json.Int max_int; Json.Int (-1); Json.Str "";
        Json.List []; Json.Obj []; Json.List [ Json.Null ] ]
  in
  let rec walk p (v : Json.t) st =
    if float_bound_inclusive 1.0 st < p then junk st
    else
      match v with
      | Json.List l -> Json.List (List.map (fun x -> walk p x st) l)
      | Json.Obj kvs -> Json.Obj (List.map (fun (k, x) -> (k, walk p x st)) kvs)
      | v -> v
  in
  let* p = oneofl [ 0.001; 0.01; 0.1 ] in
  fun st -> walk p (Lazy.force iot_report) st

let prop_denials_never_raise =
  let policy = Result.get_ok (Rego.parse audit_policy) in
  QCheck.Test.make ~name:"Rego.denials on a mutated iot-app report never raises"
    ~count:200
    (QCheck.make ~print:(fun r -> Qcheck_seed.print_mutated (Json.to_string r))
       gen_mutated_report)
    (fun report ->
      ignore (Rego.denials policy ~report);
      ignore (Rego.allowed policy ~report);
      true)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json numeric errors" `Quick test_json_numeric_errors;
    Qcheck_seed.to_alcotest prop_json_roundtrip;
    Qcheck_seed.to_alcotest prop_json_never_raises;
    Qcheck_seed.to_alcotest prop_rego_never_raises;
    Qcheck_seed.to_alcotest prop_denials_never_raise;
    Alcotest.test_case "report structure" `Quick test_report_structure;
    Alcotest.test_case "fig4 policy clean" `Quick test_fig4_policy_passes_clean;
    Alcotest.test_case "fig4 catches backdoor" `Quick test_fig4_policy_catches_backdoor;
    Alcotest.test_case "quota policy" `Quick test_quota_policy;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "rego parse errors" `Quick test_rego_parse_errors;
    Alcotest.test_case "rego integer overflow" `Quick test_rego_integer_overflow;
    Alcotest.test_case "allow rule" `Quick test_allow_rule;
    Alcotest.test_case "mmio users" `Quick test_mmio_users;
  ]

let () = Alcotest.run "cheriot_audit" [ ("audit", suite) ]
