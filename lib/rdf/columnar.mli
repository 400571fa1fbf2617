(** Columnar int-triple store: the frozen run under {!Graph.t}.

    Every term is interned to a dense int id ({!Interner}), and the
    triples live in three parallel int columns sorted in SPO order,
    plus POS and OSP permutations.  Subject neighbourhoods (the
    paper's Σgn), incoming-arc lookups and per-predicate scans are
    binary-searched contiguous slices.

    Ids are canonical — assigned in {!Term.compare} order at
    {!freeze} time — so int order {e is} term order and every slice
    comes back in {!Triple.compare} order: {!out_triples} lists the
    triples with a given subject exactly as a sorted triple set would,
    {!in_triples} those with a given object.  {!Graph} merges its edit
    delta into these slices in the same order, which is what keeps
    reports, explanations and traces independent of when a graph was
    last compacted.

    A frozen store is immutable and safe to share across domains:
    lookups touch only immutable arrays and a read-only hash table. *)

type t

(** {1 Building} *)

type builder

val builder : ?terms:int -> ?triples:int -> unit -> builder
(** Fresh builder; the optional arguments are initial capacity hints
    (small by default — the columns double as triples arrive). *)

val add : builder -> Term.t -> Iri.t -> Term.t -> unit
(** Append one triple, interning its terms.  Duplicate triples
    collapse at {!freeze} (a graph is a set).  Raises
    [Invalid_argument] on a literal subject. *)

val add_triple : builder -> Triple.t -> unit

val triples_added : builder -> int
(** Triples appended so far (duplicates still counted). *)

val builder_triples : builder -> Triple.t list
(** The triples appended so far, in arrival order (duplicates
    included), without freezing — how {!Graph.freeze} keeps a handful
    of parsed triples out of a column store. *)

val freeze : builder -> t
(** Compact ids into canonical term order, sort and dedup the
    columns, build the POS/OSP permutations.  The builder must not be
    used afterwards. *)

val empty : t

(** {1 Reading} *)

val cardinal : t -> int
(** Number of (distinct) triples. *)

val terms_cardinal : t -> int
(** Number of distinct interned terms. *)

val mem : t -> Triple.t -> bool
(** Membership: three id lookups and two binary searches. *)

val out_triples : t -> Term.t -> Triple.t list
(** Σgn: triples with the given subject, in {!Triple.compare} order. *)

val in_triples : t -> Term.t -> Triple.t list
(** Triples with the given object, in {!Triple.compare} order. *)

val triples_with_predicate : t -> Iri.t -> Triple.t list
(** Triples with the given predicate, in {!Triple.compare} order. *)

val out_degree : t -> Term.t -> int
val in_degree : t -> Term.t -> int

val nodes : t -> Term.t list
(** Distinct subjects and objects, in term order. *)

val iter : (Triple.t -> unit) -> t -> unit
val fold : (Triple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_seq : t -> Triple.t Seq.t
(** Triples in {!Triple.compare} order. *)

(** {1 Invariants} *)

val check : t -> (unit, string) result
(** Verify the store's structure: ids in term order and in range, SPO
    rows strictly ascending (sorted and duplicate-free), POS and OSP
    sorted bijections of the rows, {!nodes} distinct, and out- and
    in-degrees each summing to {!cardinal}.  [Error] names the first
    violation.  Linear apart from the node list; for tests, the
    bulk-load smoke job and audits, not hot paths. *)
