(* Tests for the backtracking baseline (Fig. 1 rules) and its
   agreement with the derivative matcher. *)

open Util
open Shex

(* Example 8: the backtracking matcher accepts via decomposition. *)
let test_example8 () =
  check_bool "matches" true
    (Backtrack.matches (node "n") example8_graph example5)

let test_example12_rejected () =
  check_bool "fails" false
    (Backtrack.matches (node "n") example12_graph example5)

let test_empty_graph () =
  check_bool "ε" true
    (Backtrack.matches (node "n") Rdf.Graph.empty Rse.epsilon);
  check_bool "∅" false
    (Backtrack.matches (node "n") Rdf.Graph.empty Rse.empty);
  check_bool "star" true
    (Backtrack.matches (node "n") Rdf.Graph.empty
       (Rse.star (arc_num "a" [ 1 ])))

let test_arc_exactly_one () =
  let e = arc_num "a" [ 1 ] in
  check_bool "one triple" true
    (Backtrack.matches (node "n") (graph_of [ t3 "n" "a" (num 1) ]) e);
  check_bool "two triples" false
    (Backtrack.matches (node "n")
       (graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 1) ])
       e)

let test_star_terminates () =
  (* Star2 requires a non-empty g1, so matching terminates. *)
  let e = Rse.star (arc_num "b" [ 1; 2; 3 ]) in
  let g = graph_of (List.init 3 (fun j -> t3 "n" "b" (num (j + 1)))) in
  check_bool "b* on 3 arcs" true (Backtrack.matches (node "n") g e)

let test_work_counter_grows () =
  (* The explored-rule counter must grow steeply with the
     neighbourhood: a failing ‖-match explores all 2^n
     decompositions (Example 3). *)
  let graph k = graph_of (List.init k (fun j -> t3 "n" "b" (num (j + 1)))) in
  let e =
    Rse.and_ (arc_num "a" [ 0 ])
      (Rse.star (arc_num "b" (List.init 10 (fun j -> j + 1))))
  in
  (* No a-arc in the graph, so the match fails after exhausting every
     decomposition. *)
  let work k = snd (Backtrack.matches_count (node "n") (graph k) e) in
  let w3 = work 3 and w9 = work 9 in
  check_bool "match fails" false (Backtrack.matches (node "n") (graph 9) e);
  check_bool "exponential-ish growth" true (w9 > 8 * w3)

let test_agreement_on_examples () =
  List.iter
    (fun (e, g) ->
      check_bool "backtrack = deriv" true
        (Bool.equal
           (Backtrack.matches (node "n") g e)
           (Deriv.matches (node "n") g e)))
    [ (example5, example8_graph);
      (example5, example12_graph);
      (example10, example8_graph);
      (example10, graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 2) ]);
      (Rse.plus (arc_num "b" [ 1; 2 ]), example8_graph);
      (Rse.opt (arc_num "a" [ 1 ]), Rdf.Graph.empty) ]

let test_negation () =
  let e = Rse.not_ (arc_num "a" [ 1 ]) in
  check_bool "¬ empty ok" true
    (Backtrack.matches (node "n") Rdf.Graph.empty e);
  check_bool "¬ exact rejected" false
    (Backtrack.matches (node "n") (graph_of [ t3 "n" "a" (num 1) ]) e)

let test_matches_list () =
  let dts = List.map Neigh.out (Rdf.Graph.to_list example8_graph) in
  check_bool "list API" true (Backtrack.matches_list (node "n") dts example5)

let suites =
  [ ( "backtrack",
      [ Alcotest.test_case "Example 8 accepted" `Quick test_example8;
        Alcotest.test_case "Example 12 rejected" `Quick
          test_example12_rejected;
        Alcotest.test_case "empty graph" `Quick test_empty_graph;
        Alcotest.test_case "arc needs exactly one triple" `Quick
          test_arc_exactly_one;
        Alcotest.test_case "star terminates" `Quick test_star_terminates;
        Alcotest.test_case "work counter grows steeply" `Quick
          test_work_counter_grows;
        Alcotest.test_case "agrees with derivatives" `Quick
          test_agreement_on_examples;
        Alcotest.test_case "negation" `Quick test_negation;
        Alcotest.test_case "explicit neighbourhood API" `Quick
          test_matches_list ] ) ]
