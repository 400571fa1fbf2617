(** RDF graphs: finite sets of triples — the one store.

    This is the paper's Σ (§2).  The operations mirror the paper's
    notation: [add] is the [t o ts] triple addition, {!union} is [⊕]
    (identity-preserving union, not merge), {!out_triples} is [Σgn]
    (all triples with subject [n]) and {!decompositions} enumerates the
    2ⁿ ordered pairs [(g₁, g₂)] with [g₁ ⊕ g₂ = g] that the
    backtracking matcher of Fig. 1 explores (Example 3).

    A graph is a frozen {!Columnar} run plus a small persistent delta
    of inserted triples and tombstones.  {!add} and {!remove} write the
    delta; reads merge it into the run's binary-searched slices, so
    every listing comes back in {!Triple.compare} order whatever the
    mix.  When an edit would let the delta outgrow an eighth of the run
    (plus a slack of 32 edits) the graph is rebuilt as one run, so
    edits cost amortised O(log n).  Bulk constructors ({!of_list},
    {!of_seq}, {!freeze}) produce a frozen run directly;
    graphs of at most 32 triples live in the delta alone.

    Graphs are immutable; every operation returns a new graph sharing
    structure with the old one, and a graph may be read from several
    domains at once. *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Number of triples. *)

val mem : Triple.t -> t -> bool
val add : Triple.t -> t -> t
val remove : Triple.t -> t -> t
val singleton : Triple.t -> t
val of_list : Triple.t list -> t
val to_list : t -> Triple.t list
(** Triples in increasing {!Triple.compare} order. *)

val of_seq : Triple.t Seq.t -> t

val freeze : Columnar.builder -> t
(** The graph of a builder's triples (how the Turtle parser and the
    N-Triples loader finish).  The builder must not be used
    afterwards. *)

val base : t -> Columnar.t
(** The frozen run under the delta: all of the graph right after a
    bulk construction or a compaction. *)

val union : t -> t -> t
(** [⊕]: set union preserving blank node identity. *)

val diff : t -> t -> t
val inter : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

val fold : (Triple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Triple.t -> unit) -> t -> unit
val for_all : (Triple.t -> bool) -> t -> bool
val exists : (Triple.t -> bool) -> t -> bool
val filter : (Triple.t -> bool) -> t -> t

val out_triples : Term.t -> t -> Triple.t list
(** [out_triples n g] is Σgn: the triples of [g] whose subject is
    [n], in {!Triple.compare} order.  One binary-searched slice of the
    run plus a range of the delta. *)

val in_triples : Term.t -> t -> Triple.t list
(** Incoming arcs ⟨s,p,n⟩, in {!Triple.compare} order — used by the
    inverse-arc extension. *)

val objects_of : Term.t -> Iri.t -> t -> Term.t list
(** [objects_of s p g] lists the [o] with ⟨s,p,o⟩ ∈ g, in term order. *)

val subjects : t -> Term.t list
(** Distinct subjects, in term order. *)

val predicates : t -> Iri.t list
(** Distinct predicates, in term order. *)

val nodes : t -> Term.t list
(** Distinct subjects and objects, in term order. *)

val match_pattern :
  ?s:Term.t -> ?p:Iri.t -> ?o:Term.t -> t -> Triple.t list
(** Triples matching the bound components of the pattern, in
    {!Triple.compare} order; unbound components act as wildcards.
    Reads one slice when [s] or [o] is bound. *)

val decompositions : t -> (t * t) list
(** All ordered pairs [(g₁, g₂)] with [g₁ ⊕ g₂ = g] and [g₁ ∩ g₂ = ∅].
    There are 2ⁿ of them for a graph of n triples (Example 3) — this
    exists only to implement the naïve backtracking baseline; do not
    call it on large graphs. *)

val pp : Format.formatter -> t -> unit
(** One N-Triples-style line per triple. *)
