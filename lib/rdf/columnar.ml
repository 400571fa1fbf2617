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

let builder ?(terms = 1024) ?(triples = 4096) () =
  let triples = max 16 triples in
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

(* Sort row indexes by a (row -> key triple) projection. *)
let sort_rows rows k1 k2 k3 =
  Array.sort
    (fun a b ->
      let c = Int.compare (k1 a) (k1 b) in
      if c <> 0 then c
      else
        let c = Int.compare (k2 a) (k2 b) in
        if c <> 0 then c else Int.compare (k3 a) (k3 b))
    rows

(* Below 2^20 distinct terms, a whole (x, y, z) id triple packs into
   one 63-bit int, turning the freeze sorts into flat int-array sorts —
   no closure dispatch, no second/third key probes, and adjacent-dedup
   is [<>] on ints.  Each id gets 21 bits, but the high id starts at
   bit 42, so its top bit would be the sign bit: an id of 2^20 or more
   makes the key negative and sorts its row first.  Hence the bound is
   one bit short of the field width.  The generic 3-key path stays as
   the fallback past it. *)
let pack_bits = 21
let packable ids = Interner.cardinal ids < 1 lsl (pack_bits - 1)

let pack x y z = (((x lsl pack_bits) lor y) lsl pack_bits) lor z
let unpack_hi k = k lsr (2 * pack_bits)
let unpack_mid k = (k lsr pack_bits) land ((1 lsl pack_bits) - 1)
let unpack_lo k = k land ((1 lsl pack_bits) - 1)

let freeze_packed ids remap b =
  let raw = b.blen in
  let keys =
    Array.init raw (fun i ->
        pack remap.(b.bs.(i)) remap.(b.bp.(i)) remap.(b.bo.(i)))
  in
  Array.sort Int.compare keys;
  let n = ref 0 in
  Array.iteri
    (fun i k ->
      if i = 0 || keys.(!n - 1) <> k then begin
        keys.(!n) <- k;
        incr n
      end)
    keys;
  let n = !n in
  let spo_s = Array.init n (fun i -> unpack_hi keys.(i))
  and spo_p = Array.init n (fun i -> unpack_mid keys.(i))
  and spo_o = Array.init n (fun i -> unpack_lo keys.(i)) in
  (* Permutation sorts on one precomputed packed key per row. *)
  let perm kx ky kz =
    let key = Array.init n (fun r -> pack (kx r) (ky r) (kz r)) in
    let rows = Array.init n Fun.id in
    Array.sort (fun a b -> Int.compare key.(a) key.(b)) rows;
    rows
  in
  let pos_row =
    perm (fun r -> spo_p.(r)) (fun r -> spo_s.(r)) (fun r -> spo_o.(r))
  in
  let osp_row =
    perm (fun r -> spo_o.(r)) (fun r -> spo_s.(r)) (fun r -> spo_p.(r))
  in
  { ids; n; spo_s; spo_p; spo_o; pos_row; osp_row }

let freeze b =
  let ids, remap = Interner.compact b.interner in
  if packable ids then freeze_packed ids remap b
  else begin
    let raw = b.blen in
    let rs = Array.init raw (fun i -> remap.(b.bs.(i)))
    and rp = Array.init raw (fun i -> remap.(b.bp.(i)))
    and ro = Array.init raw (fun i -> remap.(b.bo.(i))) in
    let rows = Array.init raw Fun.id in
    sort_rows rows
      (fun r -> rs.(r))
      (fun r -> rp.(r))
      (fun r -> ro.(r));
    (* Dedup adjacent equal rows while materialising the final columns —
       a graph is a set of triples, whatever the loader fed us. *)
    let n = ref 0 in
    Array.iteri
      (fun i r ->
        if
          i = 0
          ||
          let q = rows.(i - 1) in
          rs.(q) <> rs.(r) || rp.(q) <> rp.(r) || ro.(q) <> ro.(r)
        then begin
          rows.(!n) <- r;
          incr n
        end)
      (Array.copy rows);
    let n = !n in
    let spo_s = Array.init n (fun i -> rs.(rows.(i)))
    and spo_p = Array.init n (fun i -> rp.(rows.(i)))
    and spo_o = Array.init n (fun i -> ro.(rows.(i))) in
    let pos_row = Array.init n Fun.id and osp_row = Array.init n Fun.id in
    sort_rows pos_row
      (fun r -> spo_p.(r))
      (fun r -> spo_s.(r))
      (fun r -> spo_o.(r));
    sort_rows osp_row
      (fun r -> spo_o.(r))
      (fun r -> spo_s.(r))
      (fun r -> spo_p.(r));
    { ids; n; spo_s; spo_p; spo_o; pos_row; osp_row }
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let cardinal t = t.n
let terms_cardinal t = Interner.cardinal t.ids
let interner t = t.ids
let id t term = Interner.find t.ids term
let term t id = Interner.resolve t.ids id

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

let of_graph g =
  let b =
    builder ~terms:(2 * Graph.cardinal g) ~triples:(Graph.cardinal g) ()
  in
  Graph.iter (add_triple b) g;
  freeze b

let to_graph t = Graph.of_seq (Seq.init t.n (fun row -> triple_of t row))
