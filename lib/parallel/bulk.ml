(* Domain-parallel bulk validation.

   Sharding is contiguous over the association list, so outcome order
   is input order by construction — the merged report is byte-for-byte
   the sequential one.  Each shard gets a private Validate.session
   (its own memo tables, Hrse hash-cons tables, DFA transition caches)
   and a private telemetry registry; the only data crossed between
   domains is the immutable schema and graph going in and the finished
   outcome lists and shard typings coming back at join.  That is the
   whole domain-safety argument: nothing mutable is shared, so nothing
   needs a lock. *)

(* [shard n xs] splits [xs] into [n] contiguous runs whose lengths
   differ by at most one (the first [len mod n] runs get the extra
   element), preserving order.  Never returns an empty run for
   non-empty input with n <= len. *)
let shard n xs =
  let len = List.length xs in
  let n = max 1 (min n len) in
  let base = len / n and extra = len mod n in
  let rec take k xs =
    if k = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: tl ->
          let run, rest = take (k - 1) tl in
          (x :: run, rest)
  in
  let rec go i xs =
    if i = n then []
    else
      let k = base + if i < extra then 1 else 0 in
      let run, rest = take k xs in
      run :: go (i + 1) rest
  in
  go 0 xs

let check_bulk session associations =
  let n = min (Shex.Validate.domains session) (List.length associations) in
  let engine = Shex.Validate.engine session in
  let schema = Shex.Validate.schema session in
  (* The graph is immutable (a frozen run under a persistent delta),
     so every shard reads it directly. *)
  let graph = Shex.Validate.graph session in
  let parent_tele = Shex.Validate.telemetry session in
  let instrumented = Telemetry.enabled parent_tele in
  let profile = Shex.Validate.profiling session in
  let tasks =
    List.map
      (fun run () ->
        let telemetry =
          if instrumented then Telemetry.create () else Telemetry.disabled
        in
        let sub =
          Shex.Validate.session ~engine ~telemetry ~profile schema graph
        in
        let outcomes =
          List.map
            (fun (node, label) -> Shex.Validate.check sub node label)
            run
        in
        (* τ is read off the shard's own memo, so it must be built
           before the sub-session is dropped at join. *)
        let typing = Shex.Validate.typing sub run in
        (* Pull-style stats (the compiled backend's cache counters)
           must land in the shard registry before it leaves the
           shard's domain. *)
        if instrumented then ignore (Shex.Validate.metrics sub);
        (outcomes, typing, telemetry))
      (shard n associations)
  in
  let per_shard = Pool.run tasks in
  if instrumented then
    List.iter
      (fun (_, _, tele) -> Telemetry.merge ~into:parent_tele tele)
      per_shard;
  ( List.concat_map (fun (outcomes, _, _) -> outcomes) per_shard,
    List.fold_left
      (fun acc (_, typing, _) -> Shex.Typing.combine acc typing)
      Shex.Typing.empty per_shard )

let install () = Shex.Validate.set_bulk_checker check_bulk

(* Self-register at link time (-linkall), mirroring the automaton
   backend: linking shex_parallel is all an executable needs for
   [Validate.check_all] to honour [?domains]. *)
let () = install ()
