(* Seeded inputs for the end-to-end benchmark.

   Each workload is a FOAF portal from [Workload.Foaf_gen] plus the
   recursive Person schema.  The generator writes what the program
   under test reads (the data file and the ShExC schema) and, apart
   from it, what only the harness reads: the recorded verdict of every
   person ([truth.tsv]) and an N-Triples copy of the graph
   ([mirror.nt]) from which the harness builds its own model for the
   edit stream.  Valid persons only know valid persons, so the
   recorded verdicts are the whole-graph verdicts: a person is invalid
   exactly when it was given a local violation. *)

type format = Turtle | Ntriples

type workload = {
  name : string;
  persons : int;
  community : int option;
      (* [None]: uniform foaf:knows, one giant component;
         [Some c]: knows confined to communities of [c] persons *)
  format : format;
}

let workloads =
  [ { name = "portal-giant"; persons = 1_500; community = None;
      format = Turtle };
    { name = "bulk-clustered"; persons = 30_000; community = Some 10;
      format = Ntriples };
    { name = "edit-stream"; persons = 20_000; community = Some 10;
      format = Turtle } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* The Example 1/14 Person schema, as the CLI and daemon read it. *)
let schema_text =
  {|PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Person> {
  foaf:age xsd:integer
  , foaf:name xsd:string+
  , foaf:knows @<Person>*
}
|}

let data_file w =
  match w.format with Turtle -> "data.ttl" | Ntriples -> "data.nt"

let write_text path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let file_bytes path = (Unix.stat path).Unix.st_size

let generate w ~seed ~dir =
  let profile =
    { Workload.Foaf_gen.n_persons = w.persons;
      invalid_fraction = 0.1;
      knows_degree = 3;
      seed }
  in
  let g =
    match w.community with
    | None -> Workload.Foaf_gen.generate profile
    | Some community -> Workload.Foaf_gen.generate_clustered ~community profile
  in
  let graph = g.Workload.Foaf_gen.graph in
  let path name = Filename.concat dir name in
  write_text (path "person.shex") schema_text;
  (match w.format with
  | Turtle ->
      let namespaces =
        Rdf.Namespace.add "p" "http://example.org/people/"
          Rdf.Namespace.default
      in
      Turtle.Write.to_file ~namespaces (path "data.ttl") graph;
      Turtle.Ntriples.to_file (path "mirror.nt") graph
  | Ntriples -> Turtle.Ntriples.to_file (path "data.nt") graph);
  Out_channel.with_open_bin (path "truth.tsv") (fun oc ->
      let line verdict p =
        Printf.fprintf oc "%s\t%d\n" (Rdf.Term.to_string p) verdict
      in
      List.iter (line 1) g.Workload.Foaf_gen.valid;
      List.iter (line 0) g.Workload.Foaf_gen.invalid);
  let terms, nodes =
    Rdf.Graph.fold
      (fun tr (terms, nodes) ->
        let s = Rdf.Triple.subject tr and o = Rdf.Triple.obj tr in
        let p = Rdf.Term.Iri (Rdf.Triple.predicate tr) in
        ( Rdf.Term.Set.(add s (add p (add o terms))),
          Rdf.Term.Set.(add s (add o nodes)) ))
      graph
      (Rdf.Term.Set.empty, Rdf.Term.Set.empty)
  in
  let focus =
    match g.Workload.Foaf_gen.invalid with
    | p :: _ -> Rdf.Term.to_string p
    | [] -> failwith "the generated portal has no invalid person"
  in
  Json.Object
    [ ("workload", Json.String w.name);
      ("seed", Json.int seed);
      ("persons", Json.int w.persons);
      ("community",
        Json.int (Option.value w.community ~default:w.persons));
      ("triples", Json.int (Rdf.Graph.cardinal graph));
      ("terms", Json.int (Rdf.Term.Set.cardinal terms));
      ("nodes", Json.int (Rdf.Term.Set.cardinal nodes));
      ("data", Json.String (data_file w));
      ("data_bytes", Json.int (file_bytes (path (data_file w))));
      ("invalid_focus", Json.String focus) ]
