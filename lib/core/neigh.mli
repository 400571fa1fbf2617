(** Node neighbourhoods as lists of directed triples.

    The paper matches a shape against Σgn, the {e outgoing} triples of
    a node (§2).  The inverse-arc extension (§8, §10) also needs the
    incoming triples, so the matchers consume {e directed} triples: an
    outgoing ⟨n,p,o⟩ or an incoming ⟨s,p,n⟩.  An arc expression only
    matches a triple travelling in its own direction. *)

type dtriple = {
  triple : Rdf.Triple.t;
  inverse : bool;  (** [true] for an incoming triple ⟨s,p,n⟩ *)
}

val out : Rdf.Triple.t -> dtriple
val inc : Rdf.Triple.t -> dtriple

val focus_other_end : Rdf.Term.t -> dtriple -> Rdf.Term.t
(** [focus_other_end n dt] is the term at the far end of the arc from
    [n]: the object of an outgoing triple, the subject of an incoming
    one. *)

val of_node :
  ?include_inverse:bool -> Rdf.Term.t -> Rdf.Graph.t -> dtriple list
(** [of_node n g] is Σgn as directed triples, in triple order.  With
    [~include_inverse:true], incoming triples ⟨s,p,n⟩ follow the
    outgoing ones (self-loops appear in both directions).  Both runs
    are slices of the graph's store ({!Rdf.Graph.out_triples},
    {!Rdf.Graph.in_triples}); nothing is re-indexed per call. *)

val arc_matches_values :
  Rse.arc -> Value_set.obj -> dtriple -> bool
(** [arc_matches_values arc vo dt]: direction agrees, the predicate is
    in [arc.pred] and the far-end term is in [vo].  (The far end of an
    outgoing triple is its object; of an incoming one, its subject.) *)

val pp : Format.formatter -> dtriple -> unit

val equal : dtriple -> dtriple -> bool
val compare : dtriple -> dtriple -> int
