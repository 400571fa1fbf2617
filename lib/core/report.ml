type status = Conformant | Nonconformant

type entry = {
  node : Rdf.Term.t;
  label : Label.t;
  status : status;
  explain : Explain.t option;
}

let reason e = Option.map Explain.to_string e.explain

type t = { entries : entry list; typing : Typing.t }

(* Routed through {!Validate.check_all} so every report — CLI shape
   maps included — honours the session's [?domains] sharding; at
   [domains = 1] check_all is exactly the sequential fold this used
   to be. *)
let run session associations =
  let outcomes, typing = Validate.check_all session associations in
  let entries =
    List.map2
      (fun (node, label) (outcome : Validate.outcome) ->
        if outcome.ok then { node; label; status = Conformant; explain = None }
        else
          { node; label; status = Nonconformant; explain = outcome.explain })
      associations outcomes
  in
  { entries; typing }

let run_shape_map session shape_map graph =
  run session (Shape_map.resolve shape_map graph)

let conformant t =
  List.filter (fun e -> e.status = Conformant) t.entries

let nonconformant t =
  List.filter (fun e -> e.status = Nonconformant) t.entries

let all_conformant t = nonconformant t = []

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i e ->
      if i > 0 then Format.pp_print_cut ppf ();
      match e.status with
      | Conformant ->
          Format.fprintf ppf "PASS %a@@%a" Rdf.Term.pp e.node Label.pp e.label
      | Nonconformant ->
          Format.fprintf ppf "FAIL %a@@%a%s" Rdf.Term.pp e.node Label.pp
            e.label
            (match reason e with
            | Some reason -> "\n     " ^ reason
            | None -> ""))
    t.entries;
  Format.pp_print_cut ppf ();
  Format.fprintf ppf "%d conformant, %d nonconformant"
    (List.length (conformant t))
    (List.length (nonconformant t));
  Format.pp_close_box ppf ()

let to_result_shape_map t =
  String.concat ",\n"
    (List.map
       (fun e ->
         Printf.sprintf "%s@%s<%s>"
           (Rdf.Term.to_string e.node)
           (match e.status with Conformant -> "" | Nonconformant -> "!")
           (Label.to_string e.label))
       t.entries)

let to_json ?metrics ?profile t =
  let entry_json e =
    Json.Object
      ([ ("node", Json.String (Rdf.Term.to_string e.node));
         ("shape", Json.String (Label.to_string e.label));
         ( "status",
           Json.String
             (match e.status with
             | Conformant -> "conformant"
             | Nonconformant -> "nonconformant") ) ]
      @
      match e.explain with
      | Some ex ->
          [ ("reason", Json.String (Explain.to_string ex));
            ("explain", Explain.to_json ex) ]
      | None -> [])
  in
  Json.Object
    ([ ("entries", Json.Array (List.map entry_json t.entries));
       ("conformant", Json.int (List.length (conformant t)));
       ("nonconformant", Json.int (List.length (nonconformant t))) ]
    @
    (* Appended last so existing consumers of the report keys are
       untouched when no snapshot is supplied. *)
    (match metrics with
    | Some snap -> [ ("metrics", Telemetry.to_json snap) ]
    | None -> [])
    @
    match profile with
    | Some p -> [ ("profile", Profile.to_json p) ]
    | None -> [])
