(** The paper's baseline: direct implementation of the Fig. 1
    inference rules by backtracking.

    The [And] rule matches [e₁ ‖ e₂] against [g] by trying {e every}
    decomposition of [g] into ordered pairs [(g₁, g₂)] with
    [g₁ ⊎ g₂ = g] (Example 3: 2ⁿ pairs for n triples), recursively;
    likewise [Star2].  This is deliberately the naïve exponential
    procedure of §5 — it exists to reproduce the paper's comparison
    (experiment E1), and as an independent test oracle for the
    derivative matcher. *)

type check_ref = Label.t -> Rdf.Term.t -> bool

(** {1 Telemetry}

    The matcher reports [backtrack_branches] (one per inference-rule
    application, the same quantity {!matches_count} returns) and
    [backtrack_decompositions] (one per ordered pair generated while
    splitting a neighbourhood for [‖] or [⋆] — Example 3's 2ⁿ). *)

type instruments

val instruments : Telemetry.t -> instruments
val no_instruments : instruments

val matches :
  ?check_ref:check_ref ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Rdf.Graph.t ->
  Rse.t ->
  bool
(** [matches n g e]: does Σgn (plus incoming arcs if [e] uses inverse
    arcs) satisfy [e] under the Fig. 1 rules? *)

val matches_count :
  ?check_ref:check_ref ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Rdf.Graph.t ->
  Rse.t ->
  bool * int
(** Like {!matches} but also returns the number of rule applications
    explored — the work counter reported in experiment E1. *)

val matches_list :
  ?check_ref:check_ref ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Neigh.dtriple list ->
  Rse.t ->
  bool
(** [matches_list n dts e]: {!matches} on [n]'s neighbourhood [dts]
    computed by the caller — how a validation session runs this
    engine on the same Σgn as the others.  Counts and traces like
    {!matches}. *)
