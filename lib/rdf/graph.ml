(* A graph is a frozen columnar run plus a persistent edit delta:
   [plus] holds triples the run lacks, [minus] tombstones triples of
   the run.  Invariants: [plus] ∩ base = ∅, [minus] ⊆ base, and the
   delta stays within {!overfull}'s budget — an edit that would break
   it folds everything into a fresh run instead. *)

(* The delta's triples again, ordered by object first: the incoming
   slice of a node is then one contiguous range, like an OSP run. *)
module By_object = Set.Make (struct
  type t = Triple.t

  let compare a b =
    let c = Term.compare (Triple.obj a) (Triple.obj b) in
    if c <> 0 then c else Triple.compare a b
end)

type t = {
  base : Columnar.t;
  plus : Triple.Set.t;
  plus_in : By_object.t;  (* [plus], object-ordered *)
  minus : Triple.Set.t;
  added : int;  (* |plus| *)
  removed : int;  (* |minus| *)
}

let empty =
  { base = Columnar.empty; plus = Triple.Set.empty;
    plus_in = By_object.empty; minus = Triple.Set.empty; added = 0;
    removed = 0 }

let of_base base = { empty with base }
let base g = g.base
let cardinal g = Columnar.cardinal g.base - g.removed + g.added
let is_empty g = cardinal g = 0

(* The one compaction rule: a delta may grow to an eighth of the run
   plus a fixed slack of 32 edits.  Folding it in costs a rebuild of
   the run, which at most every n/8 edits is amortised O(log n) per
   edit; the slack keeps graphs of a few dozen triples (snippets,
   shapes' examples, decompositions) purely in the delta, never
   frozen. *)
let overfull ~base ~delta = 8 * delta > base + 256

(* Reads merge the run with the delta.  Both sides are in
   [Triple.compare] order and disjoint, so slices and whole-graph
   iteration come back in exactly the order of a sorted triple set. *)
let live g tr = g.removed = 0 || not (Triple.Set.mem tr g.minus)

let rec merge_seq a b () =
  match (a (), b ()) with
  | Seq.Nil, rest | rest, Seq.Nil -> rest
  | (Seq.Cons (x, a') as l), (Seq.Cons (y, b') as r) ->
      if Triple.compare x y <= 0 then Seq.Cons (x, merge_seq a' (fun () -> r))
      else Seq.Cons (y, merge_seq (fun () -> l) b')

let to_seq g =
  let run = Columnar.to_seq g.base in
  let run = if g.removed = 0 then run else Seq.filter (live g) run in
  if g.added = 0 then run else merge_seq run (Triple.Set.to_seq g.plus)

let frozen g = g.added = 0 && g.removed = 0

let fold f g acc =
  if frozen g then Columnar.fold f g.base acc
  else Seq.fold_left (fun acc tr -> f tr acc) acc (to_seq g)

let iter f g = if frozen g then Columnar.iter f g.base else Seq.iter f (to_seq g)
let to_list g =
  if Columnar.cardinal g.base = 0 then Triple.Set.elements g.plus
  else List.rev (fold List.cons g [])
let for_all f g = Seq.for_all f (to_seq g)
let exists f g = Seq.exists f (to_seq g)

let mem tr g =
  Triple.Set.mem tr g.plus || (live g tr && Columnar.mem g.base tr)

(* Rebuild the run from the merged view; the delta empties. *)
let compact g =
  let b = Columnar.builder ~terms:(cardinal g) ~triples:(cardinal g) () in
  iter (Columnar.add_triple b) g;
  of_base (Columnar.freeze b)

let settle g =
  if overfull ~base:(Columnar.cardinal g.base) ~delta:(g.added + g.removed)
  then compact g
  else g

let add tr g =
  if Triple.Set.mem tr g.plus then g
  else if Columnar.mem g.base tr then
    if Triple.Set.mem tr g.minus then
      { g with minus = Triple.Set.remove tr g.minus; removed = g.removed - 1 }
    else g
  else
    settle
      { g with
        plus = Triple.Set.add tr g.plus;
        plus_in = By_object.add tr g.plus_in;
        added = g.added + 1 }

let remove tr g =
  if Triple.Set.mem tr g.plus then
    { g with
      plus = Triple.Set.remove tr g.plus;
      plus_in = By_object.remove tr g.plus_in;
      added = g.added - 1 }
  else if Columnar.mem g.base tr && not (Triple.Set.mem tr g.minus) then
    settle
      { g with minus = Triple.Set.add tr g.minus; removed = g.removed + 1 }
  else g

let singleton tr = add tr empty

(* Bulk construction ends in the state the compaction rule allows:
   a handful of triples stays in the delta, anything larger is one
   frozen run. *)
let of_delta trs =
  let plus = Triple.Set.of_list trs in
  { empty with
    plus;
    plus_in = By_object.of_list trs;
    added = Triple.Set.cardinal plus }

let freeze b =
  if overfull ~base:0 ~delta:(Columnar.triples_added b) then
    of_base (Columnar.freeze b)
  else of_delta (Columnar.builder_triples b)

let of_seq seq =
  let b = Columnar.builder () in
  Seq.iter (Columnar.add_triple b) seq;
  freeze b

let of_list trs =
  if overfull ~base:0 ~delta:(List.length trs) then of_seq (List.to_seq trs)
  else of_delta trs

(* Set operations keep today's split: when one side is a small delta
   of the other, edit the larger graph; otherwise build once. *)
let small_delta d g = 8 * cardinal d <= cardinal g

let filter f g = of_seq (Seq.filter f (to_seq g))

let union g1 g2 =
  let small, large = if cardinal g1 >= cardinal g2 then (g2, g1) else (g1, g2) in
  if small_delta small large then fold add small large
  else of_seq (Seq.append (to_seq g1) (to_seq g2))

let diff g1 g2 =
  if small_delta g2 g1 then fold remove g2 g1
  else filter (fun tr -> not (mem tr g2)) g1

let inter g1 g2 = filter (fun tr -> mem tr g2) g1

let subset g1 g2 = cardinal g1 <= cardinal g2 && for_all (fun tr -> mem tr g2) g1

let equal g1 g2 =
  cardinal g1 = cardinal g2 && Seq.equal Triple.equal (to_seq g1) (to_seq g2)

(* The delta's part of a slice: the contiguous range of [set] whose
   [key] is [n], found by a monotone search. *)
let range ~find_first ~to_seq_from ~key n set =
  match find_first (fun tr -> Term.compare (key tr) n >= 0) set with
  | None -> Seq.empty
  | Some first ->
      Seq.take_while (fun tr -> Term.equal (key tr) n) (to_seq_from first set)

let slice g run added =
  let run = if g.removed = 0 then run else List.filter (live g) run in
  if g.added = 0 then run else List.of_seq (merge_seq (List.to_seq run) (added ()))

let out_triples n g =
  slice g (Columnar.out_triples g.base n) (fun () ->
      range ~find_first:Triple.Set.find_first_opt
        ~to_seq_from:Triple.Set.to_seq_from ~key:Triple.subject n g.plus)

let in_triples n g =
  slice g (Columnar.in_triples g.base n) (fun () ->
      range ~find_first:By_object.find_first_opt
        ~to_seq_from:By_object.to_seq_from ~key:Triple.obj n g.plus_in)

let objects_of s p g =
  List.filter_map
    (fun tr ->
      if Iri.equal (Triple.predicate tr) p then Some (Triple.obj tr) else None)
    (out_triples s g)

let subjects g =
  fold
    (fun tr acc ->
      match acc with
      | s :: _ when Term.equal s (Triple.subject tr) -> acc
      | _ -> Triple.subject tr :: acc)
    g []
  |> List.rev

let predicates g =
  let module Iri_set = Set.Make (Iri) in
  fold (fun tr acc -> Iri_set.add (Triple.predicate tr) acc) g Iri_set.empty
  |> Iri_set.elements

let nodes g =
  if frozen g then Columnar.nodes g.base
  else
    fold
      (fun tr acc ->
        Term.Set.add (Triple.subject tr) (Term.Set.add (Triple.obj tr) acc))
      g Term.Set.empty
    |> Term.Set.elements

let match_pattern ?s ?p ?o g =
  let candidates =
    match (s, o) with
    | Some s, _ -> out_triples s g
    | None, Some o -> in_triples o g
    | None, None -> to_list g
  in
  let keep tr =
    (match s with None -> true | Some s -> Term.equal (Triple.subject tr) s)
    && (match p with
       | None -> true
       | Some p -> Iri.equal (Triple.predicate tr) p)
    && match o with None -> true | Some o -> Term.equal (Triple.obj tr) o
  in
  List.filter keep candidates

let decompositions g =
  (* Example 3: pair every subset with its complement, ({}, g) first.
     Deliberately the naïve powerset enumeration — this is the
     baseline's cost. *)
  let rec go = function
    | [] -> [ (empty, empty) ]
    | tr :: rest ->
        let sub = go rest in
        List.concat_map
          (fun (g1, g2) -> [ (g1, add tr g2); (add tr g1, g2) ])
          sub
  in
  go (to_list g)

let pp ppf g =
  Format.pp_open_vbox ppf 0;
  let first = ref true in
  iter
    (fun tr ->
      if !first then first := false else Format.pp_print_cut ppf ();
      Triple.pp ppf tr)
    g;
  Format.pp_close_box ppf ()
