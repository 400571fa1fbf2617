(** Domain-parallel bulk validation — the runner behind
    [Shex.Validate.check_all] when a session asks for [domains > 1].

    A shape map's associations are split into contiguous shards, one
    per domain; each shard is validated in a private sub-session (its
    own verdict memo, compiled caches and telemetry registry) over the
    shared immutable schema and graph, and the per-shard outcome lists
    are concatenated back in input order.  Each shard also reads the τ
    of its own associations off its private memo
    ([Shex.Validate.typing]) before the join, and the parent combines
    the at most [domains] shard typings with ⊎.  Verdicts are deterministic
    because the greatest fixpoint each shard computes is canonical —
    independent of evaluation order — so the merged result equals the
    sequential one; per-shard telemetry is folded into the session's
    registry with {!Telemetry.merge}.

    The library self-registers with [Shex.Validate.set_bulk_checker]
    at link time ([-linkall]); simply linking [shex_parallel] enables
    [?domains]. *)

val shard : int -> 'a list -> 'a list list
(** [shard n xs] splits [xs] into at most [n] contiguous runs whose
    lengths differ by at most one, in order ([List.concat (shard n
    xs) = xs]).  Exposed for tests. *)

val check_bulk :
  Shex.Validate.session ->
  (Rdf.Term.t * Shex.Label.t) list ->
  Shex.Validate.outcome list * Shex.Typing.t
(** The bulk runner itself: one shard per domain, up to the session's
    [domains].  [Shex.Validate.check_all] calls it only with at least
    two domains and two associations and keeps the only sequential
    path. *)

val install : unit -> unit
(** Register {!check_bulk} with [Shex.Validate.set_bulk_checker].
    Also runs at link time. *)
