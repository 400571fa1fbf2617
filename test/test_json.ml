(* Tests for the JSON substrate: parse/print round-trips, escapes,
   accessors and error reporting. *)

open Util

let parse s =
  match Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let test_scalars () =
  check_bool "null" true (parse "null" = Json.Null);
  check_bool "true" true (parse "true" = Json.Bool true);
  check_bool "false" true (parse "false" = Json.Bool false);
  check_bool "int" true (parse "42" = Json.Number 42.0);
  check_bool "negative" true (parse "-7" = Json.Number (-7.0));
  check_bool "float" true (parse "2.5" = Json.Number 2.5);
  check_bool "exponent" true (parse "1e3" = Json.Number 1000.0);
  check_bool "string" true (parse "\"hi\"" = Json.String "hi")

let test_structures () =
  check_bool "array" true
    (parse "[1, 2, 3]" = Json.Array [ Json.Number 1.0; Json.Number 2.0; Json.Number 3.0 ]);
  check_bool "empty array" true (parse "[]" = Json.Array []);
  check_bool "empty object" true (parse "{}" = Json.Object []);
  check_bool "object" true
    (parse "{\"a\": 1, \"b\": [true]}"
    = Json.Object
        [ ("a", Json.Number 1.0); ("b", Json.Array [ Json.Bool true ]) ]);
  check_bool "nested" true
    (parse "{\"x\": {\"y\": null}}"
    = Json.Object [ ("x", Json.Object [ ("y", Json.Null) ]) ])

let test_string_escapes () =
  check_bool "basic escapes" true
    (parse "\"a\\n\\t\\\"b\\\\c\"" = Json.String "a\n\t\"b\\c");
  check_bool "unicode" true (parse "\"\\u00e9\"" = Json.String "\xc3\xa9");
  check_bool "surrogate pair" true
    (parse "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80")

let test_errors () =
  List.iter
    (fun src ->
      check_bool src true (Result.is_error (Json.of_string src)))
    [ ""; "{"; "[1,"; "\"abc"; "tru"; "{\"a\" 1}"; "[1 2]"; "nul";
      "{\"a\":1} extra"; "\"\\q\"" ]

let test_roundtrip () =
  let v =
    Json.Object
      [ ("name", Json.String "shex \"quoted\"\nline");
        ("counts", Json.Array [ Json.int 1; Json.int 2 ]);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("pi", Json.Number 3.25) ]
  in
  check_bool "pretty roundtrip" true (parse (Json.to_string v) = v);
  check_bool "minified roundtrip" true
    (parse (Json.to_string ~minify:true v) = v)

(* [to_channel] must write exactly [to_string]'s bytes, including
   across its 64 KiB spills: each random document is also checked
   between two padding arrays that push the output well past that
   size. *)
let gen_text =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneofl
           [ 'a'; 'z'; ' '; '"'; '\\'; '\n'; '\t'; '\001'; '\x7f';
             '\xc3'; '\xa9' ])
      (int_bound 12))

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 40)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map Json.int small_signed_int;
                 map (fun f -> Json.Number f) float;
                 map (fun s -> Json.String s) gen_text ]
           in
           if n <= 1 then leaf
           else
             frequency
               [ (2, leaf);
                 ( 1,
                   map (fun l -> Json.Array l)
                     (list_size (int_bound 5) (self (n / 3))) );
                 ( 1,
                   map (fun l -> Json.Object l)
                     (list_size (int_bound 5) (pair gen_text (self (n / 3))))
                 ) ]))

let via_channel t =
  let path = Filename.temp_file "shex_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Json.to_channel oc t);
      In_channel.with_open_bin path In_channel.input_all)

let prop_to_channel =
  QCheck.Test.make ~count:20
    ~name:"to_channel ≡ to_string"
    (QCheck.make ~print:(Json.to_string ~minify:true) gen_json)
    (fun doc ->
      let pad =
        Json.Array
          (List.init 1_600 (fun _ -> Json.String "\"q\" \\ \n padding"))
      in
      let big = Json.Array [ pad; doc; pad; doc ] in
      String.length (Json.to_string ~minify:true big) > 65_536
      && List.for_all
           (fun t -> String.equal (via_channel t) (Json.to_string t))
           [ doc; big ])

let test_accessors () =
  let v = parse "{\"a\": 1, \"b\": \"x\", \"c\": [1,2]}" in
  Alcotest.(check (option int)) "find_int" (Some 1) (Json.find_int "a" v);
  Alcotest.(check (option string)) "find_string" (Some "x")
    (Json.find_string "b" v);
  check_bool "find_list" true (Json.find_list "c" v <> None);
  check_bool "missing" true (Json.find "zz" v = None);
  check_bool "as_int non-integer" true (Json.as_int (Json.Number 1.5) = None)

let suites =
  [ ( "json",
      [ Alcotest.test_case "scalars" `Quick test_scalars;
        Alcotest.test_case "structures" `Quick test_structures;
        Alcotest.test_case "string escapes" `Quick test_string_escapes;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "accessors" `Quick test_accessors;
        QCheck_alcotest.to_alcotest prop_to_channel ] ) ]
