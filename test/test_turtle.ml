(* Tests for the Turtle lexer/parser/writer and N-Triples. *)

open Util

let parse src =
  match Turtle.Parse.parse_graph src with
  | Ok g -> g
  | Error msg -> Alcotest.fail msg

let parse_err src =
  match Turtle.Parse.parse_graph src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let test_simple_triple () =
  let g = parse "<http://e.org/s> <http://e.org/p> <http://e.org/o> ." in
  check_int "one triple" 1 (Rdf.Graph.cardinal g);
  check_bool "the triple" true
    (Rdf.Graph.mem
       (Rdf.Triple.make (iri "http://e.org/s")
          (Rdf.Iri.of_string_exn "http://e.org/p")
          (iri "http://e.org/o"))
       g)

let test_prefixes () =
  let g =
    parse
      "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
       @prefix : <http://example.org/> .\n\
       :john foaf:age 23 ."
  in
  check_bool "expanded" true
    (Rdf.Graph.mem (triple (node "john") (foaf "age") (num 23)) g)

let test_sparql_style_directives () =
  let g =
    parse
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
       BASE <http://example.org/>\n\
       <john> foaf:age 23 ."
  in
  check_bool "base resolved + prefix" true
    (Rdf.Graph.mem (triple (node "john") (foaf "age") (num 23)) g)

let test_base_resolution () =
  let g = parse "@base <http://example.org/dir/> . <x> <p> <../y> ." in
  check_bool "relative subject" true
    (Rdf.Graph.mem
       (Rdf.Triple.make
          (iri "http://example.org/dir/x")
          (Rdf.Iri.of_string_exn "http://example.org/dir/p")
          (iri "http://example.org/y"))
       g)

(* The paper's Example 2 document, verbatim Turtle. *)
let example2_src =
  "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
   @prefix : <http://example.org/> .\n\
   :john foaf:age 23;\n\
  \      foaf:name \"John\";\n\
  \      foaf:knows :bob .\n\
   :bob foaf:age 34;\n\
  \     foaf:name \"Bob\", \"Robert\" .\n\
   :mary foaf:age 50, 65 .\n"

let test_example2_document () =
  let g = parse example2_src in
  check_int "8 triples" 8 (Rdf.Graph.cardinal g);
  check_bool "bob has two names" true
    (List.length (Rdf.Graph.objects_of (node "bob") (foaf "name") g) = 2);
  check_bool "mary has two ages" true
    (List.length (Rdf.Graph.objects_of (node "mary") (foaf "age") g) = 2)

let test_a_keyword () =
  let g = parse "@prefix : <http://e.org/> . :x a :T ." in
  check_bool "rdf:type" true
    (Rdf.Graph.mem
       (Rdf.Triple.make (iri "http://e.org/x") Rdf.Namespace.Vocab.rdf_type
          (iri "http://e.org/T"))
       g)

let test_literals () =
  let g =
    parse
      "@prefix : <http://e.org/> .\n\
       @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
       :x :s \"plain\" ;\n\
      \   :l \"hola\"@es ;\n\
      \   :t \"2015-03-27\"^^xsd:date ;\n\
      \   :i 42 ;\n\
      \   :n -3.14 ;\n\
      \   :d 1.0e6 ;\n\
      \   :b true ;\n\
      \   :f false ."
  in
  check_int "8 triples" 8 (Rdf.Graph.cardinal g);
  let obj p =
    match Rdf.Graph.objects_of (iri "http://e.org/x")
            (Rdf.Iri.of_string_exn ("http://e.org/" ^ p)) g
    with
    | [ Rdf.Term.Literal l ] -> l
    | _ -> Alcotest.fail ("missing literal for " ^ p)
  in
  check_bool "lang" true (Rdf.Literal.lang (obj "l") = Some "es");
  check_bool "date" true (Rdf.Literal.has_datatype (obj "t") Rdf.Xsd.Date);
  check_bool "integer" true (Rdf.Literal.has_datatype (obj "i") Rdf.Xsd.Integer);
  check_bool "decimal" true
    (Rdf.Literal.has_datatype (obj "n") Rdf.Xsd.Decimal);
  check_bool "double" true (Rdf.Literal.has_datatype (obj "d") Rdf.Xsd.Double);
  check_bool "boolean true" true (Rdf.Literal.as_bool (obj "b") = Some true);
  check_bool "boolean false" true (Rdf.Literal.as_bool (obj "f") = Some false)

let test_string_escapes () =
  let g =
    parse "@prefix : <http://e.org/> . :x :p \"a\\\"b\\nc\\td\\\\e\" ."
  in
  match Rdf.Graph.to_list g with
  | [ tr ] -> (
      match Rdf.Triple.obj tr with
      | Rdf.Term.Literal l ->
          check_string "decoded" "a\"b\nc\td\\e" (Rdf.Literal.lexical l)
      | _ -> Alcotest.fail "expected literal")
  | _ -> Alcotest.fail "expected one triple"

let test_unicode_escape () =
  let g = parse "@prefix : <http://e.org/> . :x :p \"caf\\u00e9\" ." in
  match Rdf.Graph.to_list g with
  | [ tr ] -> (
      match Rdf.Triple.obj tr with
      | Rdf.Term.Literal l ->
          check_string "utf8" "caf\xc3\xa9" (Rdf.Literal.lexical l)
      | _ -> Alcotest.fail "expected literal")
  | _ -> Alcotest.fail "expected one triple"

let test_long_strings () =
  let g =
    parse
      "@prefix : <http://e.org/> . :x :p \"\"\"line1\nline2 \"quoted\"\"\"\" ."
  in
  match Rdf.Graph.to_list g with
  | [ tr ] -> (
      match Rdf.Triple.obj tr with
      | Rdf.Term.Literal l ->
          check_string "long string" "line1\nline2 \"quoted\""
            (Rdf.Literal.lexical l)
      | _ -> Alcotest.fail "expected literal")
  | _ -> Alcotest.fail "expected one triple"

let test_blank_nodes () =
  let g =
    parse "@prefix : <http://e.org/> . _:b1 :p _:b2 . _:b1 :q :o ."
  in
  check_int "2 triples" 2 (Rdf.Graph.cardinal g);
  check_bool "same label same node" true
    (List.length (Rdf.Graph.subjects g) = 1)

let test_anon_bnode () =
  let g = parse "@prefix : <http://e.org/> . [] :p :o ." in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g);
  match Rdf.Graph.to_list g with
  | [ tr ] -> check_bool "bnode subject" true
                (Rdf.Term.is_bnode (Rdf.Triple.subject tr))
  | _ -> Alcotest.fail "expected one triple"

let test_bnode_property_list () =
  let g =
    parse
      "@prefix : <http://e.org/> .\n\
       :x :knows [ :name \"Anna\" ; :age 30 ] ."
  in
  check_int "3 triples" 3 (Rdf.Graph.cardinal g);
  (* The bnode is both an object of :knows and the subject of two arcs. *)
  match Rdf.Graph.objects_of (iri "http://e.org/x")
          (Rdf.Iri.of_string_exn "http://e.org/knows") g
  with
  | [ (Rdf.Term.Bnode _ as b) ] ->
      check_int "bnode neighbourhood" 2
        (List.length (Rdf.Graph.out_triples b g))
  | _ -> Alcotest.fail "expected a bnode object"

let test_bnode_property_list_as_subject () =
  let g =
    parse "@prefix : <http://e.org/> . [ :name \"Anna\" ] :knows :x ."
  in
  check_int "2 triples" 2 (Rdf.Graph.cardinal g)

let test_collections () =
  let g = parse "@prefix : <http://e.org/> . :x :list (1 2 3) ." in
  (* 1 arc to the head + 3 cells × (first, rest) = 7 triples *)
  check_int "7 triples" 7 (Rdf.Graph.cardinal g);
  (* The chain must terminate at rdf:nil. *)
  let nil = Rdf.Term.Iri Rdf.Namespace.Vocab.rdf_nil in
  check_bool "ends in nil" true
    (List.exists
       (fun tr -> Rdf.Term.equal (Rdf.Triple.obj tr) nil)
       (Rdf.Graph.to_list g))

let test_empty_collection () =
  let g = parse "@prefix : <http://e.org/> . :x :list () ." in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g);
  match Rdf.Graph.to_list g with
  | [ tr ] ->
      check_bool "object is nil" true
        (Rdf.Term.equal (Rdf.Triple.obj tr)
           (Rdf.Term.Iri Rdf.Namespace.Vocab.rdf_nil))
  | _ -> Alcotest.fail "expected one triple"

let test_comments_and_whitespace () =
  let g =
    parse
      "# leading comment\n@prefix : <http://e.org/> . # inline\n\n:x :p :o . # done"
  in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g)

let test_trailing_semicolon () =
  let g = parse "@prefix : <http://e.org/> . :x :p :o ; ." in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g)

let test_parse_errors () =
  let cases =
    [ ("missing dot", "@prefix : <http://e.org/> . :x :p :o");
      ("unbound prefix", "nope:x <http://e.org/p> <http://e.org/o> .");
      ("literal subject", "@prefix : <http://e.org/> . 23 :p :o .");
      ("unterminated iri", "<http://e.org/x :p :o .");
      ("unterminated string", "@prefix : <http://e.org/> . :x :p \"abc .");
      ("bad escape", "@prefix : <http://e.org/> . :x :p \"a\\qb\" .");
      ("lonely caret", "@prefix : <http://e.org/> . :x :p \"v\"^<t> .") ]
  in
  List.iter
    (fun (name, src) ->
      check_bool name true (String.length (parse_err src) > 0))
    cases

let test_error_position () =
  let msg = parse_err "@prefix : <http://e.org/> .\n:x :p :o" in
  (* Error is on line 2. *)
  check_bool "mentions line 2" true
    (let has_sub sub s =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has_sub "2:" msg)

(* ------------------------------------------------------------------ *)
(* Writer round-trips                                                 *)
(* ------------------------------------------------------------------ *)

let test_write_roundtrip () =
  let g = parse example2_src in
  let written = Turtle.Write.to_string g in
  let g' = parse written in
  Alcotest.check graph "roundtrip" g g'

let test_write_roundtrip_literals () =
  let src =
    "@prefix : <http://e.org/> .\n\
     :x :s \"he said \\\"hi\\\"\" ; :l \"hola\"@es ; :i 42 ; :b true ;\n\
    \   :d \"2015-03-27\"^^<http://www.w3.org/2001/XMLSchema#date> ."
  in
  let g = parse src in
  Alcotest.check graph "roundtrip" g (parse (Turtle.Write.to_string g))

let test_write_uses_a () =
  let g = parse "@prefix : <http://e.org/> . :x a :T ." in
  let s = Turtle.Write.to_string g in
  check_bool "uses a" true
    (let has_sub sub s =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has_sub " a " s)

(* ------------------------------------------------------------------ *)
(* N-Triples                                                          *)
(* ------------------------------------------------------------------ *)

let test_ntriples_roundtrip () =
  let g = parse example2_src in
  let nt = Turtle.Ntriples.to_string g in
  match Turtle.Ntriples.strict_parse nt with
  | Ok g' -> Alcotest.check graph "roundtrip" g g'
  | Error msg -> Alcotest.fail msg

let test_ntriples_strict_rejects_turtle () =
  List.iter
    (fun src ->
      check_bool "rejected" true
        (Result.is_error (Turtle.Ntriples.strict_parse src)))
    [ "@prefix : <http://e.org/> . :x :p :o .";
      "<http://e.org/x> <http://e.org/p> 23 .";
      "<http://e.org/x> a <http://e.org/T> .";
      "<http://e.org/x> <http://e.org/p> <http://e.org/o> ; <http://e.org/q> <http://e.org/r> ." ]

let test_ntriples_strict_accepts () =
  let src =
    "<http://e.org/x> <http://e.org/p> \"v\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
     _:b <http://e.org/q> \"hola\"@es .\n"
  in
  match Turtle.Ntriples.strict_parse src with
  | Ok g -> check_int "2 triples" 2 (Rdf.Graph.cardinal g)
  | Error msg -> Alcotest.fail msg

let suites =
  [ ( "turtle.parse",
      [ Alcotest.test_case "simple triple" `Quick test_simple_triple;
        Alcotest.test_case "prefixes" `Quick test_prefixes;
        Alcotest.test_case "SPARQL-style directives" `Quick
          test_sparql_style_directives;
        Alcotest.test_case "base resolution" `Quick test_base_resolution;
        Alcotest.test_case "Example 2 document" `Quick
          test_example2_document;
        Alcotest.test_case "a keyword" `Quick test_a_keyword;
        Alcotest.test_case "literal forms" `Quick test_literals;
        Alcotest.test_case "string escapes" `Quick test_string_escapes;
        Alcotest.test_case "unicode escapes" `Quick test_unicode_escape;
        Alcotest.test_case "long strings" `Quick test_long_strings;
        Alcotest.test_case "blank nodes" `Quick test_blank_nodes;
        Alcotest.test_case "anonymous blank node" `Quick test_anon_bnode;
        Alcotest.test_case "bnode property list" `Quick
          test_bnode_property_list;
        Alcotest.test_case "bnode property list subject" `Quick
          test_bnode_property_list_as_subject;
        Alcotest.test_case "collections" `Quick test_collections;
        Alcotest.test_case "empty collection" `Quick test_empty_collection;
        Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
        Alcotest.test_case "trailing semicolon" `Quick
          test_trailing_semicolon;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "error positions" `Quick test_error_position ] );
    ( "turtle.write",
      [ Alcotest.test_case "roundtrip Example 2" `Quick test_write_roundtrip;
        Alcotest.test_case "roundtrip literals" `Quick
          test_write_roundtrip_literals;
        Alcotest.test_case "rdf:type as a" `Quick test_write_uses_a ] );
    ( "turtle.ntriples",
      [ Alcotest.test_case "canonical roundtrip" `Quick
          test_ntriples_roundtrip;
        Alcotest.test_case "strict rejects Turtle" `Quick
          test_ntriples_strict_rejects_turtle;
        Alcotest.test_case "strict accepts N-Triples" `Quick
          test_ntriples_strict_accepts ] ) ]
