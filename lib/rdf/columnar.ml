type t = {
  ids : Interner.t;  (* canonical: id order = Term.compare order *)
  n : int;  (* distinct triples *)
  (* Parallel columns sorted lexicographically by (s, p, o). *)
  spo_s : int array;
  spo_p : int array;
  spo_o : int array;
  (* Row permutations of the SPO columns: pos_row sorted by (p, s, o),
     osp_row by (o, s, p).  Permutations instead of copied columns:
     the indirection costs one load per probe and saves 6n words. *)
  pos_row : int array;
  osp_row : int array;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  interner : Interner.t;  (* provisional ids, in arrival order *)
  mutable bs : int array;
  mutable bp : int array;
  mutable bo : int array;
  mutable blen : int;
}

(* Builders start small and double: a one-triple Turtle snippet pays
   for three 4-slot columns, not for a bulk load's capacity. *)
let builder ?(terms = 16) ?(triples = 4) () =
  let triples = max 4 triples in
  { interner = Interner.create ~capacity:terms ();
    bs = Array.make triples 0;
    bp = Array.make triples 0;
    bo = Array.make triples 0;
    blen = 0 }

let push b =
  if b.blen >= Array.length b.bs then begin
    let cap' = 2 * Array.length b.bs in
    let extend a =
      let a' = Array.make cap' 0 in
      Array.blit a 0 a' 0 b.blen;
      a'
    in
    b.bs <- extend b.bs;
    b.bp <- extend b.bp;
    b.bo <- extend b.bo
  end

let add b s p o =
  if not (Term.subject_ok s) then
    invalid_arg
      (Format.asprintf "Columnar.add: literal in subject position: %a" Term.pp
         s);
  push b;
  let i = b.blen in
  b.bs.(i) <- Interner.intern b.interner s;
  b.bp.(i) <- Interner.intern b.interner (Term.Iri p);
  b.bo.(i) <- Interner.intern b.interner o;
  b.blen <- i + 1

let add_triple b tr =
  add b (Triple.subject tr) (Triple.predicate tr) (Triple.obj tr)

let triples_added b = b.blen

let builder_triples b =
  let term id = Interner.resolve b.interner id in
  List.init b.blen (fun i ->
      match term b.bp.(i) with
      | Term.Iri p -> Triple.make (term b.bs.(i)) p (term b.bo.(i))
      | Term.Bnode _ | Term.Literal _ -> assert false)

(* Below 2^20 distinct terms, a whole (x, y, z) id triple packs into
   one 63-bit int, turning the freeze sorts into flat int comparisons —
   no second/third key probes.  Each id gets 21 bits, but the high id
   starts at bit 42, so its top bit would be the sign bit: an id of
   2^20 or more makes the key negative and sorts its row first.  Hence
   the bound is one bit short of the field width.  Past it, the sorts
   compare the three keys in turn. *)
let pack_bits = 21
let packable ids = Interner.cardinal ids < 1 lsl (pack_bits - 1)
let pack x y z = (((x lsl pack_bits) lor y) lsl pack_bits) lor z

(* Row indexes [0, n) sorted by their (k1, k2, k3) keys. *)
let sort_rows ~packed n k1 k2 k3 =
  let rows = Array.init n Fun.id in
  (if packed then
     let key = Array.init n (fun r -> pack (k1 r) (k2 r) (k3 r)) in
     Array.sort (fun a b -> Int.compare key.(a) key.(b)) rows
   else
     Array.sort
       (fun a b ->
         let c = Int.compare (k1 a) (k1 b) in
         if c <> 0 then c
         else
           let c = Int.compare (k2 a) (k2 b) in
           if c <> 0 then c else Int.compare (k3 a) (k3 b))
       rows);
  rows

let freeze b =
  let ids, remap = Interner.compact b.interner in
  let packed = packable ids in
  let column c = Array.init b.blen (fun i -> remap.(c.(i))) in
  let rs = column b.bs and rp = column b.bp and ro = column b.bo in
  let sorted =
    sort_rows ~packed b.blen (Array.get rs) (Array.get rp) (Array.get ro)
  in
  (* Keep the first of each run of equal rows — a graph is a set of
     triples, whatever the loader fed us. *)
  let rows = Array.make b.blen 0 and n = ref 0 in
  Array.iteri
    (fun i r ->
      let q = sorted.(max 0 (i - 1)) in
      if i = 0 || rs.(q) <> rs.(r) || rp.(q) <> rp.(r) || ro.(q) <> ro.(r)
      then begin
        rows.(!n) <- r;
        incr n
      end)
    sorted;
  let n = !n in
  let spo c = Array.init n (fun i -> c.(rows.(i))) in
  let spo_s = spo rs and spo_p = spo rp and spo_o = spo ro in
  let pos_row =
    sort_rows ~packed n (Array.get spo_p) (Array.get spo_s) (Array.get spo_o)
  and osp_row =
    sort_rows ~packed n (Array.get spo_o) (Array.get spo_s) (Array.get spo_p)
  in
  { ids; n; spo_s; spo_p; spo_o; pos_row; osp_row }

let empty =
  { ids = Interner.create (); n = 0; spo_s = [||]; spo_p = [||];
    spo_o = [||]; pos_row = [||]; osp_row = [||] }

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let cardinal t = t.n
let terms_cardinal t = Interner.cardinal t.ids
let id t term = Interner.find t.ids term

let pred_of t id =
  match Interner.resolve t.ids id with
  | Term.Iri p -> p
  | Term.Bnode _ | Term.Literal _ ->
      (* [add] only interns predicates as IRIs. *)
      assert false

let triple_of t row =
  Triple.make
    (Interner.resolve t.ids t.spo_s.(row))
    (pred_of t t.spo_p.(row))
    (Interner.resolve t.ids t.spo_o.(row))

(* First index in [0, n) whose key is ≥ v / > v: the usual halves. *)
let lower_bound key n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound key n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key mid <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* The contiguous [lo, hi) slice of rows with the given key id. *)
let slice key n v =
  let lo = lower_bound key n v in
  let hi = upper_bound key n v in
  (lo, hi)

let rows_to_list t project lo hi =
  let rec go i acc =
    if i < lo then acc else go (i - 1) (triple_of t (project i) :: acc)
  in
  go (hi - 1) []

let out_slice t term =
  match id t term with
  | None -> (0, 0)
  | Some sid -> slice (fun i -> t.spo_s.(i)) t.n sid

let in_slice t term =
  match id t term with
  | None -> (0, 0)
  | Some oid -> slice (fun i -> t.spo_o.(t.osp_row.(i))) t.n oid

(* The subject's slice, then a binary search on (p, o) inside it —
   the slice is (p, o)-sorted. *)
let mem t tr =
  match
    ( id t (Triple.subject tr),
      id t (Term.Iri (Triple.predicate tr)),
      id t (Triple.obj tr) )
  with
  | Some s, Some p, Some o ->
      let lo, hi = slice (fun i -> t.spo_s.(i)) t.n s in
      let lo = ref lo and hi = ref hi in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let c = Int.compare t.spo_p.(mid) p in
        let c = if c <> 0 then c else Int.compare t.spo_o.(mid) o in
        if c < 0 then lo := mid + 1 else hi := mid
      done;
      !lo < t.n && t.spo_s.(!lo) = s && t.spo_p.(!lo) = p && t.spo_o.(!lo) = o
  | _ -> false

let out_triples t term =
  let lo, hi = out_slice t term in
  rows_to_list t Fun.id lo hi

(* OSP order is (o, s, p) which, at fixed object, is exactly
   Triple.compare order on the slice. *)
let in_triples t term =
  let lo, hi = in_slice t term in
  rows_to_list t (fun i -> t.osp_row.(i)) lo hi

let triples_with_predicate t p =
  match id t (Term.Iri p) with
  | None -> []
  | Some pid ->
      let lo, hi = slice (fun i -> t.spo_p.(t.pos_row.(i))) t.n pid in
      rows_to_list t (fun i -> t.pos_row.(i)) lo hi

let out_degree t term =
  let lo, hi = out_slice t term in
  hi - lo

let in_degree t term =
  let lo, hi = in_slice t term in
  hi - lo

let nodes t =
  (* Distinct subject ids and object ids are both ascending runs of
     their sorted columns; a merge-unique of the two is the distinct
     node ids in term order (canonical ids sort like terms). *)
  let next_distinct key n i =
    let v = key i in
    let j = ref (i + 1) in
    while !j < n && key !j = v do incr j done;
    !j
  in
  let s_key i = t.spo_s.(i) and o_key i = t.spo_o.(t.osp_row.(i)) in
  let rec merge i j acc =
    if i >= t.n && j >= t.n then List.rev acc
    else if j >= t.n || (i < t.n && s_key i < o_key j) then
      merge (next_distinct s_key t.n i) j (Interner.resolve t.ids (s_key i) :: acc)
    else if i >= t.n || o_key j < s_key i then
      merge i (next_distinct o_key t.n j) (Interner.resolve t.ids (o_key j) :: acc)
    else
      merge (next_distinct s_key t.n i) (next_distinct o_key t.n j)
        (Interner.resolve t.ids (s_key i) :: acc)
  in
  merge 0 0 []

let iter f t =
  for row = 0 to t.n - 1 do
    f (triple_of t row)
  done

let fold f t acc =
  let acc = ref acc in
  for row = 0 to t.n - 1 do
    acc := f (triple_of t row) !acc
  done;
  !acc

let to_seq t = Seq.init t.n (triple_of t)

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let check t =
  let terms = Interner.cardinal t.ids in
  let column col =
    Array.length col = t.n && Array.for_all (fun id -> 0 <= id && id < terms) col
  in
  let bijection perm =
    let seen = Array.make t.n false in
    Array.length perm = t.n
    && Array.for_all
         (fun r -> 0 <= r && r < t.n && (not seen.(r)) && (seen.(r) <- true; true))
         perm
  in
  (* Rows in [perm] order have strictly ascending (a, b, c) keys:
     sorted, and no triple twice. *)
  let ascending perm a b c =
    let key i = (a.(perm i), b.(perm i), c.(perm i)) in
    let rec go i = i >= t.n || (compare (key (i - 1)) (key i) < 0 && go (i + 1)) in
    go 1
  in
  let rec distinct = function
    | a :: (b :: _ as rest) -> Term.compare a b < 0 && distinct rest
    | [ _ ] | [] -> true
  in
  let degrees degree =
    List.fold_left (fun acc n -> acc + degree t n) 0 (nodes t) = t.n
  in
  let checks =
    [ ("ids are not in term order", fun () -> Interner.sorted t.ids);
      ( "a column has a stray length or id",
        fun () -> column t.spo_s && column t.spo_p && column t.spo_o );
      ( "SPO rows are not strictly ascending",
        fun () -> ascending Fun.id t.spo_s t.spo_p t.spo_o );
      ( "POS is not a sorted bijection",
        fun () ->
          bijection t.pos_row
          && ascending (Array.get t.pos_row) t.spo_p t.spo_s t.spo_o );
      ( "OSP is not a sorted bijection",
        fun () ->
          bijection t.osp_row
          && ascending (Array.get t.osp_row) t.spo_o t.spo_s t.spo_p );
      ("nodes are not distinct", fun () -> distinct (nodes t));
      ( "degrees do not sum to the cardinality",
        fun () -> degrees out_degree && degrees in_degree ) ]
  in
  match List.find_opt (fun (_, ok) -> not (ok ())) checks with
  | None -> Ok ()
  | Some (msg, _) -> Error msg
