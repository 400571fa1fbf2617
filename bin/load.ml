(* Input loaders shared by the one-shot CLI and the --serve daemon.
   Each returns [Error msg] with the text both print: the CLI on
   stderr before exit 2, the daemon as an "error: ..." answer.  An
   unreadable schema file raises [Sys_error], which both already
   report as "error: <reason>".

   Schema files are read whole (the ShExC/ShExJ parsers want a
   string); graph loading streams through the Turtle lexer's window,
   so a load never holds the source text. *)
let load_schema path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  let result =
    if Filename.check_suffix path ".json" then Shexc.Shexj.import_string src
    else Shexc.Shexc_parser.parse_schema src
  in
  Result.map_error (Printf.sprintf "%s: %s" path) result

let load_graph path =
  match Turtle.Parse.parse_file path with
  | Ok d -> Ok d.Turtle.Parse.graph
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

(* Accept both the exact label and a suffix match, so users can say
   "Person" for <http://…/Person>. *)
let resolve_label schema name =
  let exact = Shex.Label.of_string name in
  let labels = Shex.Schema.labels schema in
  if Shex.Schema.mem schema exact then Ok exact
  else
    match
      List.find_opt
        (fun l ->
          let s = Shex.Label.to_string l in
          let n = String.length s and m = String.length name in
          n >= m && String.sub s (n - m) m = name)
        labels
    with
    | Some l -> Ok l
    | None ->
        Error
          (Printf.sprintf "unknown shape label %S (known: %s)" name
             (String.concat ", " (List.map Shex.Label.to_string labels)))
