type dtriple = { triple : Rdf.Triple.t; inverse : bool }

let out triple = { triple; inverse = false }
let inc triple = { triple; inverse = true }

let focus_other_end _n dt =
  if dt.inverse then Rdf.Triple.subject dt.triple
  else Rdf.Triple.obj dt.triple

let of_node ?(include_inverse = false) n g =
  let out_list = List.map out (Rdf.Graph.out_triples n g) in
  if not include_inverse then out_list
  else out_list @ List.map inc (Rdf.Graph.in_triples n g)

let arc_matches_values (a : Rse.arc) vo dt =
  Bool.equal a.inverse dt.inverse
  && Value_set.pred_mem a.pred (Rdf.Triple.predicate dt.triple)
  &&
  let far =
    if dt.inverse then Rdf.Triple.subject dt.triple
    else Rdf.Triple.obj dt.triple
  in
  Value_set.obj_mem vo far

let pp ppf dt =
  if dt.inverse then Format.fprintf ppf "^%a" Rdf.Triple.pp dt.triple
  else Rdf.Triple.pp ppf dt.triple

let equal a b =
  Bool.equal a.inverse b.inverse && Rdf.Triple.equal a.triple b.triple

let compare a b =
  let c = Bool.compare a.inverse b.inverse in
  if c <> 0 then c else Rdf.Triple.compare a.triple b.triple
