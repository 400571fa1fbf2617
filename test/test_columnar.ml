(* The storage layer: term interner, columnar run, the graph's edit
   delta over it, and the streaming N-Triples bulk loader — plus the
   property that validation cannot tell how the store holds a graph's
   triples. *)

open Util

let term_t = term

(* ------------------------------------------------------------------ *)
(* Interner                                                            *)
(* ------------------------------------------------------------------ *)

let test_interner_roundtrip () =
  let t = Rdf.Interner.create () in
  let terms = [ node "a"; num 1; node "b"; Rdf.Term.str "x" ] in
  let ids = List.map (Rdf.Interner.intern t) terms in
  List.iter2
    (fun term id ->
      Alcotest.check term_t "resolve ∘ intern = id" term
        (Rdf.Interner.resolve t id))
    terms ids;
  (* Dense: ids are 0..n-1 in first-intern order. *)
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2; 3 ] ids;
  check_int "cardinal" 4 (Rdf.Interner.cardinal t)

let test_interner_idempotent () =
  let t = Rdf.Interner.create () in
  let id1 = Rdf.Interner.intern t (node "a") in
  ignore (Rdf.Interner.intern t (num 2));
  let id2 = Rdf.Interner.intern t (node "a") in
  check_int "same term, same id" id1 id2;
  check_int "no duplicate entry" 2 (Rdf.Interner.cardinal t);
  Alcotest.(check (option int))
    "find" (Some id1)
    (Rdf.Interner.find t (node "a"));
  Alcotest.(check (option int)) "find misses" None
    (Rdf.Interner.find t (node "zzz"))

let test_interner_bnode_scoping () =
  let t = Rdf.Interner.create () in
  let b1 = Rdf.Interner.intern t (Rdf.Term.Bnode (Rdf.Bnode.of_string "x")) in
  let b2 = Rdf.Interner.intern t (Rdf.Term.Bnode (Rdf.Bnode.of_string "y")) in
  let b1' = Rdf.Interner.intern t (Rdf.Term.Bnode (Rdf.Bnode.of_string "x")) in
  (* An IRI never shares an id with a bnode, whatever the spelling. *)
  let i1 = Rdf.Interner.intern t (node "x") in
  check_int "same label, same id" b1 b1';
  check_bool "distinct labels distinct" true (b1 <> b2);
  check_bool "bnode ≠ iri of same text" true (b1 <> i1)

let test_interner_compact_sorted () =
  let t = Rdf.Interner.create () in
  (* Intern out of term order on purpose. *)
  List.iter
    (fun term -> ignore (Rdf.Interner.intern t term))
    [ num 3; node "c"; Rdf.Term.str "s"; node "a"; num 1 ];
  check_bool "unsorted before compact" false (Rdf.Interner.sorted t);
  let compacted, remap = Rdf.Interner.compact t in
  check_bool "sorted after compact" true (Rdf.Interner.sorted compacted);
  check_int "same cardinal" (Rdf.Interner.cardinal t)
    (Rdf.Interner.cardinal compacted);
  (* The remap sends every old id to the new id of the same term. *)
  Rdf.Interner.iteri
    (fun old_id term ->
      Alcotest.check term_t "remap preserves terms" term
        (Rdf.Interner.resolve compacted remap.(old_id)))
    t

let test_interner_bad_id () =
  let t = Rdf.Interner.create () in
  ignore (Rdf.Interner.intern t (node "a"));
  Alcotest.check_raises "resolve out of range"
    (Invalid_argument "Interner.resolve: unknown id 7") (fun () ->
      ignore (Rdf.Interner.resolve t 7))

(* ------------------------------------------------------------------ *)
(* Columnar store                                                      *)
(* ------------------------------------------------------------------ *)

(* Triples with fan-out, fan-in, shared terms, a self-referencing
   object, literals and bnodes — enough shape to exercise all three
   index directions. *)
let sample_triples =
  [ t3 "n" "a" (num 1);
    t3 "n" "b" (num 1);
    t3 "n" "b" (num 2);
    t3 "m" "a" (node "n");
    t3 "m" "c" (Rdf.Term.str "hello");
    Rdf.Triple.make
      (Rdf.Term.Bnode (Rdf.Bnode.of_string "b0"))
      (ex "a") (node "m");
    t3 "o" "c" (node "n") ]

(* Graphs of up to 32 triples live in the delta alone; the filler
   pushes the sample past that, so [sample_graph] is one frozen run. *)
let filler = List.init 40 (fun k -> t3 (Printf.sprintf "f%d" k) "a" (num k))
let sample_graph = graph_of (sample_triples @ filler)

(* The reference model: a sorted, duplicate-free triple list. *)
let reference trs = Rdf.Triple.Set.(elements (of_list trs))

let store_of trs =
  let b = Rdf.Columnar.builder () in
  List.iter (Rdf.Columnar.add_triple b) trs;
  Rdf.Columnar.freeze b

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let triples = Alcotest.(list (testable Rdf.Triple.pp Rdf.Triple.equal))

let test_columnar_roundtrip () =
  let c = store_of (sample_triples @ sample_triples) in
  Alcotest.check triples "to_seq lists the set in triple order"
    (reference sample_triples)
    (List.of_seq (Rdf.Columnar.to_seq c));
  check_int "cardinal" (List.length sample_triples) (Rdf.Columnar.cardinal c);
  check_ok "Columnar.check" (Rdf.Columnar.check c);
  List.iter
    (fun tr -> check_bool "mem" true (Rdf.Columnar.mem c tr))
    sample_triples;
  check_bool "absent triple" false (Rdf.Columnar.mem c (t3 "n" "a" (num 2)));
  check_ok "empty store" (Rdf.Columnar.check Rdf.Columnar.empty);
  check_bool "sample graph is frozen" true
    (Rdf.Columnar.cardinal (Rdf.Graph.base sample_graph)
    = Rdf.Graph.cardinal sample_graph)

(* The column slices against a graph small enough to live in its delta,
   whose slices are ranges of two balanced triple sets. *)
let test_columnar_slices_agree () =
  let c = store_of sample_triples in
  let structural = graph_of sample_triples in
  check_int "the comparison graph is delta-only" 0
    (Rdf.Columnar.cardinal (Rdf.Graph.base structural));
  let trs = reference sample_triples in
  List.iter
    (fun n ->
      let out = Rdf.Graph.out_triples n structural
      and inc = Rdf.Graph.in_triples n structural in
      Alcotest.check triples "out slice" out (Rdf.Columnar.out_triples c n);
      Alcotest.check triples "in slice" inc (Rdf.Columnar.in_triples c n);
      check_int "out_degree" (List.length out) (Rdf.Columnar.out_degree c n);
      check_int "in_degree" (List.length inc) (Rdf.Columnar.in_degree c n))
    (node "absent" :: Rdf.Graph.nodes structural);
  List.iter
    (fun p ->
      Alcotest.check triples "predicate slice"
        (List.filter
           (fun tr -> Rdf.Iri.equal (Rdf.Triple.predicate tr) p)
           trs)
        (Rdf.Columnar.triples_with_predicate c p))
    [ ex "a"; ex "b"; ex "c"; ex "zzz" ];
  Alcotest.check (Alcotest.list term_t) "nodes"
    (Rdf.Graph.nodes (graph_of sample_triples))
    (Rdf.Columnar.nodes c)

let test_columnar_dedup () =
  let b = Rdf.Columnar.builder () in
  let tr = t3 "n" "a" (num 1) in
  Rdf.Columnar.add_triple b tr;
  Rdf.Columnar.add_triple b tr;
  Rdf.Columnar.add b (node "n") (ex "a") (num 1);
  check_int "adds counted raw" 3 (Rdf.Columnar.triples_added b);
  let c = Rdf.Columnar.freeze b in
  check_int "a graph is a set" 1 (Rdf.Columnar.cardinal c)

let test_columnar_literal_subject () =
  let b = Rdf.Columnar.builder () in
  match Rdf.Columnar.add b (num 1) (ex "a") (num 2) with
  | () -> Alcotest.fail "literal subject accepted"
  | exception Invalid_argument _ -> ()

(* A frozen run, the same run under a delta of inserts and
   tombstones, and a delta-only graph: Σgn must be the reference
   slice, in triple order, whichever mix holds the triples. *)
let removed = [ t3 "n" "b" (num 1); t3 "o" "c" (node "n") ]
let added = [ t3 "n" "a" (num 0); t3 "p" "a" (node "n"); t3 "n" "c" (node "n") ]

let edited_graph () =
  List.fold_left
    (fun g tr -> Rdf.Graph.add tr g)
    (List.fold_left (fun g tr -> Rdf.Graph.remove tr g) sample_graph removed)
    added

let test_neigh_of_node () =
  let expect trs n =
    let trs = reference trs in
    List.map Shex.Neigh.out
      (List.filter (fun tr -> Rdf.Term.equal (Rdf.Triple.subject tr) n) trs)
    @ List.map Shex.Neigh.inc
        (List.filter (fun tr -> Rdf.Term.equal (Rdf.Triple.obj tr) n) trs)
  in
  let edited_triples =
    added
    @ List.filter
        (fun tr -> not (List.exists (Rdf.Triple.equal tr) removed))
        (sample_triples @ filler)
  in
  List.iter
    (fun (what, g, trs) ->
      check_ok what (Rdf.Columnar.check (Rdf.Graph.base g));
      Alcotest.check triples (what ^ ": to_list") (reference trs)
        (Rdf.Graph.to_list g);
      List.iter
        (fun n ->
          check_bool (what ^ ": of_node ≡ reference") true
            (List.equal Shex.Neigh.equal (expect trs n)
               (Shex.Neigh.of_node ~include_inverse:true n g)))
        (node "absent" :: Rdf.Graph.nodes g))
    [ ("frozen", sample_graph, sample_triples @ filler);
      ("edited", edited_graph (), edited_triples);
      ("delta only", graph_of sample_triples, sample_triples) ]

(* ------------------------------------------------------------------ *)
(* Validation is independent of how the store holds the triples       *)
(* ------------------------------------------------------------------ *)

let person_schema =
  match
    Shexc.Shexc_parser.parse_schema
      "PREFIX ex: <http://example.org/>\n\
       <S> { ex:a [0 1], ex:b [1 2]* }"
  with
  | Ok s -> s
  | Error msg -> failwith msg

let report_json schema g =
  let session = Shex.Validate.session schema g in
  let assocs =
    List.concat_map
      (fun n -> List.map (fun l -> (n, l)) (Shex.Schema.labels schema))
      (Rdf.Graph.nodes g)
  in
  Json.to_string (Shex.Report.to_json (Shex.Report.run session assocs))

let test_edited_session_agrees () =
  let edited = edited_graph () in
  let fresh = graph_of (Rdf.Graph.to_list edited) in
  check_bool "the edited graph carries a delta" true
    (Rdf.Columnar.cardinal (Rdf.Graph.base edited)
    <> Rdf.Graph.cardinal edited);
  Alcotest.check graph "same triples" fresh edited;
  Alcotest.check typing "validate_graph agrees"
    (Shex.Validate.validate_graph (Shex.Validate.session person_schema fresh))
    (Shex.Validate.validate_graph (Shex.Validate.session person_schema edited));
  check_string "report JSON agrees" (report_json person_schema fresh)
    (report_json person_schema edited)

(* Tombstoning every triple of a node of the run, as subject and as
   object, removes it from [nodes]; re-adding one brings it back. *)
let test_tombstoned_node_leaves_nodes () =
  let m = node "m" in
  let touching tr =
    Rdf.Term.equal (Rdf.Triple.subject tr) m
    || Rdf.Term.equal (Rdf.Triple.obj tr) m
  in
  let gone = List.filter touching sample_triples in
  let g = List.fold_left (fun g tr -> Rdf.Graph.remove tr g) sample_graph gone in
  check_ok "tombstoned" (Rdf.Columnar.check (Rdf.Graph.base g));
  check_bool "m is still in the run" true
    (List.exists (Rdf.Term.equal m)
       (Rdf.Columnar.nodes (Rdf.Graph.base g)));
  check_bool "m left nodes" false (List.exists (Rdf.Term.equal m) (Rdf.Graph.nodes g));
  Alcotest.check (Alcotest.list term_t) "nodes ≡ reference"
    (Rdf.Graph.nodes (graph_of (Rdf.Graph.to_list g)))
    (Rdf.Graph.nodes g);
  check_int "cardinal" (Rdf.Graph.cardinal sample_graph - List.length gone)
    (Rdf.Graph.cardinal g);
  let back = Rdf.Graph.add (List.hd gone) g in
  check_bool "re-added m is back" true
    (List.exists (Rdf.Term.equal m) (Rdf.Graph.nodes back))

(* ------------------------------------------------------------------ *)
(* Streaming N-Triples loading                                         *)
(* ------------------------------------------------------------------ *)

let with_temp_nt ~lines f =
  let path = Filename.temp_file "shex_test" ".nt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> lines oc);
      f path)

let test_fold_file_agrees_with_parse () =
  with_temp_nt
    ~lines:(fun oc ->
      output_string oc
        "<http://e.org/n> <http://e.org/a> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
         _:b0 <http://e.org/a> <http://e.org/n> .\n\
         <http://e.org/n> <http://e.org/b> \"hi\"@en .\n")
    (fun path ->
      let streamed =
        match
          Turtle.Ntriples.fold_file path (fun acc tr -> tr :: acc) []
        with
        | Ok trs -> Rdf.Graph.of_list trs
        | Error msg -> failwith msg
      in
      let parsed =
        match Turtle.Parse.parse_file path with
        | Ok d -> d.Turtle.Parse.graph
        | Error msg -> failwith msg
      in
      Alcotest.check graph "fold_file ≡ parse_file" parsed streamed)

let test_load_file_columnar () =
  with_temp_nt
    ~lines:(fun oc ->
      for s = 0 to 9 do
        for o = 0 to 4 do
          Printf.fprintf oc "<http://e.org/s%d> <http://e.org/p> <http://e.org/o%d> .\n" s o
        done
      done)
    (fun path ->
      match Turtle.Ntriples.load_file path with
      | Error msg -> failwith msg
      | Ok g ->
          let c = Rdf.Graph.base g in
          check_int "all triples loaded, frozen" 50 (Rdf.Columnar.cardinal c);
          check_int "terms deduplicated" 16 (Rdf.Columnar.terms_cardinal c);
          check_ok "Columnar.check" (Rdf.Columnar.check c);
          let parsed =
            match Turtle.Parse.parse_file path with
            | Ok d -> d.Turtle.Parse.graph
            | Error msg -> failwith msg
          in
          Alcotest.check graph "≡ turtle parse" parsed g)

(* Both loaders freeze into the one store, so a session cannot tell
   which of them read the file. *)
let test_loaded_sessions_agree () =
  with_temp_nt
    ~lines:(fun oc ->
      for s = 0 to 19 do
        Printf.fprintf oc
          "<http://example.org/s%d> <http://example.org/a> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
          s (s mod 3);
        Printf.fprintf oc
          "<http://example.org/s%d> <http://example.org/b> \"2\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
          s
      done)
    (fun path ->
      let loaded =
        match Turtle.Ntriples.load_file path with
        | Ok g -> g
        | Error msg -> failwith msg
      in
      let parsed =
        match Turtle.Parse.parse_file path with
        | Ok d -> d.Turtle.Parse.graph
        | Error msg -> failwith msg
      in
      check_string "report JSON agrees" (report_json person_schema parsed)
        (report_json person_schema loaded);
      check_bool "some nodes conform" true
        (not
           (Shex.Typing.is_empty
              (Shex.Validate.validate_graph
                 (Shex.Validate.session person_schema loaded)))))

let test_fold_file_bad_input () =
  with_temp_nt
    ~lines:(fun oc ->
      output_string oc "<http://e.org/n> <http://e.org/a> ;bad .\n")
    (fun path ->
      match Turtle.Ntriples.fold_file path (fun n _ -> n + 1) 0 with
      | Ok _ -> Alcotest.fail "expected an error"
      | Error msg ->
          check_bool "position in message" true
            (String.length msg > 0
            && String.sub msg 0 13 = "not N-Triples"))

(* The satellite's memory pin: a multi-megabyte N-Triples load must not
   materialise the source text (or a token list).  The counting fold
   keeps no per-triple state, so major-heap growth should stay well
   under the file size — the old slurping loader held the whole file as
   one string before lexing even started. *)
let test_streaming_load_memory () =
  let triples = 60_000 in
  with_temp_nt
    ~lines:(fun oc ->
      for k = 0 to triples - 1 do
        Printf.fprintf oc
          "<http://example.org/subject%d> <http://example.org/predicate%d> \
           \"value %d\" .\n"
          (k mod 997) (k mod 7) k
      done)
    (fun path ->
      let file_words =
        Int64.to_int (In_channel.with_open_bin path In_channel.length) / 8
      in
      check_bool "file is multi-MB" true (file_words > 400_000);
      Gc.compact ();
      let before = (Gc.stat ()).Gc.top_heap_words in
      let count =
        match Turtle.Ntriples.fold_file path (fun n _ -> n + 1) 0 with
        | Ok n -> n
        | Error msg -> failwith msg
      in
      let delta = (Gc.stat ()).Gc.top_heap_words - before in
      check_int "every triple seen" triples count;
      if delta >= file_words / 2 then
        Alcotest.failf
          "streaming load grew the heap by %d words (file is %d words)"
          delta file_words)

(* The packed freeze keys hold the subject id from bit 42, so an id of
   2^20 or more reaches the sign bit and, if packed, sorts its row
   first.  A store just past 2^20 terms must fall back to the generic
   sort: every subject still finds its slice, and the merged node list
   stays strictly ascending.  Fresh subject, predicate and object per
   triple keep the store small; subjects sort last, so they hold the
   highest ids. *)
let test_columnar_past_packed_bound () =
  let triples = ((1 lsl 20) / 3) + 2_000 in
  let iri prefix k = Printf.sprintf "http://e/%s%d" prefix k in
  let subject k = Rdf.Term.iri (iri "s" k) in
  let b = Rdf.Columnar.builder ~terms:(3 * triples) ~triples () in
  for k = 0 to triples - 1 do
    Rdf.Columnar.add b (subject k)
      (Rdf.Iri.of_string_exn (iri "p" k))
      (Rdf.Term.iri (iri "o" k))
  done;
  let store = Rdf.Columnar.freeze b in
  check_bool "store crosses 2^20 terms" true
    (Rdf.Columnar.terms_cardinal store > 1 lsl 20);
  for k = 0 to triples - 1 do
    if Rdf.Columnar.out_triples store (subject k) = [] then
      Alcotest.failf "subject %d has an empty out_triples slice" k
  done;
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) ->
        Rdf.Term.compare a b < 0 && strictly_ascending rest
    | [ _ ] | [] -> true
  in
  let nodes = Rdf.Columnar.nodes store in
  check_int "one node per subject and object" (2 * triples)
    (List.length nodes);
  check_bool "nodes ascending, no duplicates" true (strictly_ascending nodes);
  check_ok "Columnar.check" (Rdf.Columnar.check store)

let interner_tests =
  [ Alcotest.test_case "resolve ∘ intern = id, dense ids" `Quick
      test_interner_roundtrip;
    Alcotest.test_case "interning is idempotent" `Quick
      test_interner_idempotent;
    Alcotest.test_case "bnode scoping" `Quick test_interner_bnode_scoping;
    Alcotest.test_case "compact sorts into term order" `Quick
      test_interner_compact_sorted;
    Alcotest.test_case "bad id rejected" `Quick test_interner_bad_id ]

let columnar_tests =
  [ Alcotest.test_case "freeze/to_seq roundtrip" `Quick
      test_columnar_roundtrip;
    Alcotest.test_case "slices ≡ structural indexes" `Quick
      test_columnar_slices_agree;
    Alcotest.test_case "duplicate adds collapse" `Quick test_columnar_dedup;
    Alcotest.test_case "literal subjects rejected" `Quick
      test_columnar_literal_subject;
    Alcotest.test_case "Neigh.of_node ≡ reference slices" `Quick
      test_neigh_of_node;
    Alcotest.test_case "edited session ≡ frozen session" `Quick
      test_edited_session_agrees;
    Alcotest.test_case "load_file session ≡ parse_file session" `Quick
      test_loaded_sessions_agree;
    Alcotest.test_case "tombstoned node leaves nodes" `Quick
      test_tombstoned_node_leaves_nodes;
    Alcotest.test_case "stores past 2^20 terms stay sorted" `Quick
      test_columnar_past_packed_bound ]

let streaming_tests =
  [ Alcotest.test_case "fold_file ≡ parse_file" `Quick
      test_fold_file_agrees_with_parse;
    Alcotest.test_case "load_file builds the store" `Quick
      test_load_file_columnar;
    Alcotest.test_case "malformed input is an error" `Quick
      test_fold_file_bad_input;
    Alcotest.test_case "multi-MB load never slurps the source" `Quick
      test_streaming_load_memory ]

let suites =
  [ ("rdf.interner", interner_tests);
    ("rdf.columnar", columnar_tests);
    ("turtle.streaming", streaming_tests) ]
