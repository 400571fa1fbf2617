(* benchtool gen WORKLOAD SEED DIR
     write the workload's seeded inputs into DIR and print their sizes
     as one JSON line.
   benchtool layers DIR DATA EDITS TRACE_OUT RUN_ID
     replay the workload in DIR in-process with per-call spans, using
     the request log EDITS the harness sent to the daemon; write the
     span tree to TRACE_OUT as a Chrome trace and print the per-layer
     metrics as one JSON line. *)

let usage () =
  prerr_endline
    "usage: benchtool gen WORKLOAD SEED DIR\n\
    \       benchtool layers DIR DATA EDITS TRACE_OUT RUN_ID";
  exit 2

let () =
  let print json = print_endline (Json.to_string ~minify:true json) in
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; name; seed; dir ] -> (
      match (Gen.find name, int_of_string_opt seed) with
      | Some w, Some seed -> print (Gen.generate w ~seed ~dir)
      | None, _ ->
          Printf.eprintf "benchtool: unknown workload %S\n" name;
          exit 2
      | _, None -> usage ())
  | [ "layers"; dir; data; edits; trace_out; id ] ->
      print (Layers.run ~dir ~data ~edits ~trace_out ~id)
  | _ -> usage ()
