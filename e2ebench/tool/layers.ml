(* The traced in-process replay of one workload, for the per-layer
   metrics.

   The batch pipeline repeats what [shex_validate -d DATA -s SCHEMA
   --json] does, one public call per stage: ShExC parse, Turtle parse,
   session, [Graph.nodes], a cold verdict pass, [Report.run] on the
   warm session, JSON render.  The edit replay feeds the edit stream
   the harness sent to the daemon through [Session.apply] and
   [Session.check_bool].  Probes outside the pipeline (lexing alone,
   neighbourhood slicing, store size) are timed separately.

   Every timed call is bracketed by a span on a private telemetry
   registry whose sink is a [Shex_explain.Trace] recorder, so the
   stage tree (name, start, duration, parent, run id) stays in memory
   and is written as a Chrome trace when the replay ends.  Engine
   counters come from a second registry handed to the sessions, so
   per-step engine events never reach the recorder. *)

type sample = { seconds : float; minor : float; major : float }

(* Nanosecond monotonic clock: single edits take a few µs. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let stage_tele = Telemetry.create ()
let recorder = Shex_explain.Trace.create ~clock:now ()
let () = Telemetry.set_sink stage_tele (Some (Shex_explain.Trace.sink recorder))
let run_id = ref ""

let words () =
  let minor, _promoted, major = Gc.counters () in
  (minor, major)

let timed name f =
  Telemetry.emit stage_tele
    (Telemetry.span_begin name [ ("run", Telemetry.String !run_id) ]);
  let minor0, major0 = words () in
  let t0 = now () in
  let result = f () in
  let t1 = now () in
  let minor1, major1 = words () in
  let s =
    { seconds = t1 -. t0; minor = minor1 -. minor0; major = major1 -. major0 }
  in
  Telemetry.emit stage_tele
    (Telemetry.span_end name
       [ ("minor_words", Telemetry.Int (int_of_float s.minor));
         ("major_words", Telemetry.Int (int_of_float s.major)) ]);
  (result, s)

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

(* Metrics in output order: name and value. *)
let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: !metrics

let put_sample name s =
  put name s.seconds;
  put (name ^ ".minor_words") s.minor;
  put (name ^ ".major_words") s.major

(* Per-operation samples: the median time (and, when asked, the 99th
   percentile) in µs, with mean allocation per call. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (Float.of_int n *. q)))

let put_ops name ?p99 samples =
  let times =
    Array.of_list (List.map (fun s -> s.seconds *. 1e6) samples)
  in
  Array.sort Float.compare times;
  let n = Float.of_int (max 1 (List.length samples)) in
  let mean f = List.fold_left (fun acc s -> acc +. f s) 0. samples /. n in
  put name (percentile times 0.5);
  Option.iter (fun p99_name -> put p99_name (percentile times 0.99)) p99;
  put (name ^ ".minor_words") (mean (fun s -> s.minor));
  put (name ^ ".major_words") (mean (fun s -> s.major))

let counter snap name =
  Float.of_int (Option.value (Telemetry.find_counter snap name) ~default:0)

let person = Shex.Label.of_string "Person"

(* Lexing alone: the N-Triples streaming fold with a no-op step, or
   the Turtle token stream to its end. *)
let lex path =
  if Filename.check_suffix path ".nt" then
    ignore
      (ok_or_fail "lex" (Turtle.Ntriples.fold_file path (fun () _ -> ()) ()))
  else
    In_channel.with_open_bin path (fun ic ->
        let st = Turtle.Lexer.stream_of_channel ic in
        let rec go () =
          match (Turtle.Lexer.next st).Turtle.Lexer.token with
          | Turtle.Lexer.Eof -> ()
          | _ -> go ()
        in
        go ())

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* The CLI's whole-graph --json path, stage by stage.  Returns the
   loaded schema and graph, the wall time of the whole pipeline and
   the sum of its stages. *)
let pipeline ~schema_path ~data_path =
  let stages = ref 0. in
  let stage name f =
    let r, s = timed name f in
    stages := !stages +. s.seconds;
    put_sample (name ^ "_s") s;
    r
  in
  let engine_tele = Telemetry.create () in
  let (schema, graph), total =
    timed "pipeline" (fun () ->
        let schema =
          stage "shexc.parse" (fun () ->
              In_channel.with_open_bin schema_path In_channel.input_all
              |> Shexc.Shexc_parser.parse_schema
              |> ok_or_fail "schema")
        in
        let graph =
          stage "turtle.parse" (fun () ->
              (ok_or_fail "data" (Turtle.Parse.parse_file data_path))
                .Turtle.Parse.graph)
        in
        let session =
          stage "core.session" (fun () ->
              Shex.Validate.session ~telemetry:engine_tele schema graph)
        in
        let nodes = stage "rdf.nodes" (fun () -> Rdf.Graph.nodes graph) in
        let assocs =
          List.concat_map
            (fun n -> List.map (fun l -> (n, l)) (Shex.Schema.labels schema))
            nodes
        in
        stage "core.verdict" (fun () ->
            List.iter
              (fun (n, l) -> ignore (Shex.Validate.check_bool session n l))
              assocs);
        let verdict_steps =
          counter (Shex.Validate.metrics session) "deriv_steps"
        in
        let report =
          stage "core.report" (fun () -> Shex.Report.run session assocs)
        in
        let text =
          stage "json.render" (fun () ->
              Json.to_string (Shex.Report.to_json report))
        in
        let snap = Shex.Validate.metrics session in
        let all_steps = counter snap "deriv_steps" in
        put "core.deriv_steps" verdict_steps;
        put "core.report_deriv_steps" (all_steps -. verdict_steps);
        put "core.useful_step_ratio"
          (if all_steps > 0. then verdict_steps /. all_steps else 0.);
        put "core.fixpoint_iterations" (counter snap "fixpoint_iterations");
        put "core.fixpoint_flips" (counter snap "fixpoint_flips");
        put "core.memo_entries"
          (Float.of_int (Shex.Validate.memo_size session));
        put "json.report_bytes" (Float.of_int (String.length text));
        (schema, graph))
  in
  (schema, graph, total.seconds, !stages)

type request = Edit of string * string | Query of string

let read_requests path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.index_opt line '\t' with
         | None -> None
         | Some i -> (
             let kind = String.sub line 0 i
             and arg = String.sub line (i + 1) (String.length line - i - 1) in
             match kind with
             | "insert" | "delete" -> Some (Edit (kind, arg))
             | "query" -> Some (Query arg)
             | _ -> failwith ("edit log: unknown request kind " ^ kind)))

(* The daemon's work for the same stream: warm every person, then
   apply each edit and answer each query. *)
let replay_edits ~schema ~graph ~persons ~requests =
  let session =
    Shex_incremental.Session.create ~telemetry:(Telemetry.create ()) schema
      graph
  in
  List.iter
    (fun p -> ignore (Shex_incremental.Session.check_bool session p person))
    persons;
  let snippets = ref [] and updates = ref [] and applies = ref []
  and checks = ref [] in
  let frontier = ref 0 and resolved = ref 0 and changed = ref 0
  and edits = ref 0 in
  List.iter
    (function
      | Edit (kind, text) ->
          let triples, s =
            timed "turtle.snippet" (fun () ->
                Rdf.Graph.to_list
                  (ok_or_fail "snippet" (Turtle.Parse.parse_graph text)))
          in
          snippets := s :: !snippets;
          let step = if kind = "insert" then Rdf.Graph.add else Rdf.Graph.remove in
          let (), s =
            timed "rdf.update" (fun () ->
                let g = Shex_incremental.Session.graph session in
                ignore
                  (Sys.opaque_identity
                     (List.fold_left (fun g t -> step t g) g triples)))
          in
          updates := s :: !updates;
          let delta =
            if kind = "insert" then Shex_incremental.Session.insert triples
            else Shex_incremental.Session.delete triples
          in
          let stats, s =
            timed "incremental.apply" (fun () ->
                Shex_incremental.Session.apply session delta)
          in
          applies := s :: !applies;
          incr edits;
          frontier := !frontier + stats.Shex_incremental.Session.frontier;
          resolved := !resolved + stats.Shex_incremental.Session.resolved;
          changed :=
            !changed + List.length stats.Shex_incremental.Session.changed
      | Query iri ->
          let _, s =
            timed "incremental.check" (fun () ->
                Shex_incremental.Session.check_bool session (Rdf.Term.iri iri)
                  person)
          in
          checks := s :: !checks)
    requests;
  put_ops "turtle.snippet_us" !snippets;
  put_ops "rdf.update_us" !updates;
  put_ops "incremental.apply_us" ~p99:"incremental.apply_p99_us" !applies;
  put_ops "incremental.check_us" !checks;
  put "incremental.frontier_mean"
    (Float.of_int !frontier /. Float.of_int (max 1 !edits));
  put "incremental.flip_ratio"
    (if !resolved > 0 then Float.of_int !changed /. Float.of_int !resolved
     else 0.)

let persons_of_truth path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | node :: _ when String.length node > 2 ->
             Some (Rdf.Term.iri (String.sub node 1 (String.length node - 2)))
         | _ -> None)

let run ~dir ~data ~edits ~trace_out ~id =
  run_id := id;
  let path = Filename.concat dir in
  let data_path = path data and schema_path = path "person.shex" in
  let (), lex_s = timed "turtle.lex" (fun () -> lex data_path) in
  put_sample "turtle.lex_s" lex_s;
  let base = live_words () in
  let schema, graph, total, stage_sum =
    pipeline ~schema_path ~data_path
  in
  put "turtle.triples_per_s"
    (Float.of_int (Rdf.Graph.cardinal graph)
    /. List.assoc "turtle.parse_s" !metrics);
  put "rdf.store_mb" (Float.of_int ((live_words () - base) * 8) /. 1e6);
  let nodes = Rdf.Graph.nodes graph in
  let (), neigh =
    timed "rdf.neigh" (fun () ->
        List.iter
          (fun n -> ignore (Sys.opaque_identity (Shex.Neigh.of_node n graph)))
          nodes)
  in
  put_sample "rdf.neigh_s" neigh;
  replay_edits ~schema ~graph
    ~persons:(persons_of_truth (path "truth.tsv"))
    ~requests:(read_requests edits);
  Json.write_file_atomic trace_out
    (Json.to_string ~minify:true (Shex_explain.Export.chrome_json recorder));
  Json.Object
    [ ("pipeline_s", Json.Number total);
      ("stage_sum_s", Json.Number stage_sum);
      ( "metrics",
        Json.Object
          (List.rev_map (fun (k, v) -> (k, Json.Number v)) !metrics) ) ]
