type engine = Derivatives | Backtracking | Auto | Compiled

module Pair = struct
  type t = Rdf.Term.t * Label.t

  let compare (n1, l1) (n2, l2) =
    let c = Rdf.Term.compare n1 n2 in
    if c <> 0 then c else Label.compare l1 l2
end

module Pair_set = Set.Make (Pair)

(* The automaton backend (lib/automaton) registers itself here.  The
   indirection keeps the dependency arrow pointing outwards: core
   defines the contract, the automaton library fulfils it, and a
   session instantiates one backend so its transition tables are
   shared across every label, node and check of the session. *)

type cache_stats = {
  atoms : int;
  states : int;
  symbols : int;
  hits : int;
  misses : int;
}

type compiled_matcher =
  check_ref:(Label.t -> Rdf.Term.t -> bool) ->
  Rdf.Term.t ->
  Neigh.dtriple list ->
  bool

type compiled_backend = {
  compile_shape : Rse.t -> compiled_matcher;
  cache_stats : unit -> cache_stats;
  export_stats : Telemetry.t -> unit;
      (* fold the automaton cache counters into a registry (gauges
         compiled_atoms/states/symbols, counters compiled_hits/misses)
         so --engine-stats and --metrics are one code path *)
}

(* The factory receives the session's registry so the compiled engine
   can emit the same per-triple trace events as the interpreted one
   (from DFA edges instead of derivative expressions). *)
let compiled_backend_factory : (Telemetry.t -> compiled_backend) option ref =
  ref None

let set_compiled_backend f = compiled_backend_factory := Some f
let compiled_backend_installed () = Option.is_some !compiled_backend_factory

type compiled = Counting of Sorbe.t | Table of compiled_matcher | Generic

(* What the memo keeps per (node, shape) pair: the verdict, the pairs
   its last evaluation consulted ([uses]) and the reverse edges
   ([users]: the pairs whose last evaluation consulted this one).  The
   fixpoint solver writes it; the typing walk, the solver's
   re-queueing of refuted hypotheses and incremental invalidation all
   read it, so the set of facts a verdict depends on is computed once.
   Records are immutable, and every pair without edges shares one of
   two constants, so verdict-only runs over non-recursive shapes
   allocate no record. *)
type record = { ok : bool; uses : Pair_set.t; users : Pair_set.t }

let fact_true = { ok = true; uses = Pair_set.empty; users = Pair_set.empty }
let fact_false = { fact_true with ok = false }

let record ok uses users =
  if Pair_set.is_empty uses && Pair_set.is_empty users then
    if ok then fact_true else fact_false
  else { ok; uses; users }

(* Per-shape attribution state (the [?profile] flag).  One labelled
   cell bundle per shape label, cached by {!Label.t} so the hot path
   resolves a label's cells once; plus the "charged so far" totals the
   self-cost computation needs: a nested evaluation (a lower-stratum
   reference settled inline) charges its own shape, and the outer
   evaluation subtracts what was charged during its window, so every
   unit of engine work is attributed to exactly one shape and the
   family sums reproduce the session-global counters. *)
type prof_cells = {
  c_checks : Telemetry.Counter.t;
  c_seconds : Telemetry.Span.t;
  c_deriv : Telemetry.Counter.t;
  c_back : Telemetry.Counter.t;
  c_sorbe : Telemetry.Counter.t;
  c_compiled : Telemetry.Counter.t;
}

type prof = {
  (* the global counters the deltas are read from *)
  p_deriv_total : Telemetry.Counter.t;
  p_back_total : Telemetry.Counter.t;
  p_sorbe_total : Telemetry.Counter.t;
  (* labelled families, keyed by shape (one by focus node) *)
  p_checks : Telemetry.Counter.t Telemetry.family;
  p_seconds : Telemetry.Span.t Telemetry.family;
  p_deriv : Telemetry.Counter.t Telemetry.family;
  p_back : Telemetry.Counter.t Telemetry.family;
  p_sorbe : Telemetry.Counter.t Telemetry.family;
  p_compiled : Telemetry.Counter.t Telemetry.family;
  p_flips : Telemetry.Counter.t Telemetry.family;
  p_node_seconds : Telemetry.Span.t Telemetry.family;
  p_cells : (Label.t, prof_cells) Hashtbl.t;
  (* how much of each global counter is already charged to some shape *)
  mutable charged_deriv : int;
  mutable charged_back : int;
  mutable charged_sorbe : int;
  mutable charged_compiled : int;
  mutable charged_seconds : float;
  (* runtime resource gauges, sampled at span boundaries *)
  g_minor_words : Telemetry.Counter.t;
  g_major_words : Telemetry.Counter.t;
  g_heap_words : Telemetry.Counter.t;
  g_top_heap_words : Telemetry.Counter.t;
  g_compactions : Telemetry.Counter.t;
  g_minor_collections : Telemetry.Counter.t;
  g_major_collections : Telemetry.Counter.t;
  g_memo_entries : Telemetry.Counter.t;
}

let make_prof tele =
  let shape_counter ?help name =
    Telemetry.counter_family tele ?help ~key:"shape" name
  in
  {
    p_deriv_total = Telemetry.counter tele "deriv_steps";
    p_back_total = Telemetry.counter tele "backtrack_branches";
    p_sorbe_total = Telemetry.counter tele "sorbe_counter_updates";
    p_checks =
      shape_counter
        ~help:"Evaluations per shape (fixpoint re-runs included)"
        Profile.checks_family;
    p_seconds =
      Telemetry.span_family tele ~key:"shape"
        ~help:"Self wall time of evaluations of this shape"
        Profile.seconds_family;
    p_deriv =
      shape_counter ~help:"Derivative steps attributed to this shape"
        Profile.deriv_family;
    p_back =
      shape_counter ~help:"Backtracking branches attributed to this shape"
        Profile.backtrack_family;
    p_sorbe =
      shape_counter ~help:"SORBE counter updates attributed to this shape"
        Profile.sorbe_family;
    p_compiled =
      shape_counter ~help:"Compiled-DFA transitions attributed to this shape"
        Profile.compiled_family;
    p_flips =
      shape_counter ~help:"Fixpoint hypotheses on this shape refuted"
        Profile.flips_family;
    p_node_seconds =
      Telemetry.span_family tele ~key:"node"
        ~help:"Self wall time of checks of this focus node"
        Profile.node_seconds_family;
    p_cells = Hashtbl.create 16;
    charged_deriv = 0;
    charged_back = 0;
    charged_sorbe = 0;
    charged_compiled = 0;
    charged_seconds = 0.;
    g_minor_words =
      Telemetry.gauge tele ~help:"Gc.quick_stat minor_words" "gc_minor_words";
    g_major_words =
      Telemetry.gauge tele ~help:"Gc.quick_stat major_words" "gc_major_words";
    g_heap_words =
      Telemetry.gauge tele ~help:"Major heap size in words" "gc_heap_words";
    g_top_heap_words =
      Telemetry.gauge tele ~help:"Largest major heap size reached, in words"
        "gc_top_heap_words";
    g_compactions =
      Telemetry.gauge tele ~help:"Heap compactions" "gc_compactions";
    g_minor_collections =
      Telemetry.gauge tele ~help:"Minor collections" "gc_minor_collections";
    g_major_collections =
      Telemetry.gauge tele ~help:"Major collection cycles"
        "gc_major_collections";
    g_memo_entries =
      Telemetry.gauge tele ~help:"Memoised (node, shape) verdicts"
        "memo_entries";
  }

type session = {
  engine : engine;
  schema : Schema.t;
  mutable graph : Rdf.Graph.t;
      (* mutable for {!set_graph}: incremental sessions swap in the
         edited graph and invalidate the affected memo entries *)
  domains : int;
      (* requested bulk-validation parallelism; 1 = sequential *)
  memo : (Pair.t, record) Hashtbl.t;  (* settled pairs *)
  compiled : (Label.t, compiled) Hashtbl.t;
      (* per-label compilation: SORBE counting matcher or lazy DFA *)
  backend : compiled_backend option;
      (* session-wide automaton store (Compiled, and Auto's fallback) *)
  tele : Telemetry.t;
  deriv_instr : Deriv.instruments;
  back_instr : Backtrack.instruments;
  sorbe_instr : Sorbe.instruments;
  fix_evals : Telemetry.Counter.t;    (* fixpoint_iterations *)
  fix_flips : Telemetry.Counter.t;    (* fixpoint_flips *)
  fix_demands : Telemetry.Counter.t;  (* fixpoint_demands *)
  profile : prof option;              (* Some iff [?profile] *)
  mutable slowlog : Slowlog.t option; (* Some iff a slow-ms threshold *)
  slow_work : (string * Telemetry.Counter.t) list;
      (* the counters a slowlog entry reports deltas of *)
}

let session ?(engine = Derivatives) ?(telemetry = Telemetry.disabled)
    ?(domains = 1) ?(profile = false) ?slow_ms schema graph =
  let backend =
    match (engine, !compiled_backend_factory) with
    | (Compiled | Auto), Some make -> Some (make telemetry)
    | Compiled, None ->
        failwith
          "Validate: engine Compiled requires the automaton backend \
           (link shex_automaton, or call Shex_automaton.Engine.install)"
    | _, _ -> None
  in
  { engine; schema; graph;
    domains = max 1 domains;
    memo = Hashtbl.create 256;
    compiled = Hashtbl.create 16;
    backend;
    tele = telemetry;
    (* Instruments are resolved once here; on the default (disabled)
       registry every later use is a single branch. *)
    deriv_instr = Deriv.instruments telemetry;
    back_instr = Backtrack.instruments telemetry;
    sorbe_instr = Sorbe.instruments telemetry;
    fix_evals = Telemetry.counter telemetry "fixpoint_iterations";
    fix_flips = Telemetry.counter telemetry "fixpoint_flips";
    fix_demands = Telemetry.counter telemetry "fixpoint_demands";
    profile = (if profile then Some (make_prof telemetry) else None);
    slowlog =
      Option.map (fun threshold_ms -> Slowlog.create ~threshold_ms ()) slow_ms;
    slow_work =
      List.map
        (fun name -> (name, Telemetry.counter telemetry name))
        [ "deriv_steps"; "backtrack_branches"; "backtrack_decompositions";
          "sorbe_matches"; "sorbe_counter_updates"; "fixpoint_iterations";
          "fixpoint_flips"; "fixpoint_demands" ] }

let telemetry st = st.tele
let schema st = st.schema
let graph st = st.graph
let engine st = st.engine
let domains st = st.domains
let memo_size st = Hashtbl.length st.memo
let profiling st = Option.is_some st.profile
let slowlog st = st.slowlog

let set_slow_ms st = function
  | None -> st.slowlog <- None
  | Some ms -> (
      match st.slowlog with
      | Some slog -> Slowlog.set_threshold_ms slog ms
      | None -> st.slowlog <- Some (Slowlog.create ~threshold_ms:ms ()))

let set_graph st graph = st.graph <- graph

(* Σgn in triple order: every engine sees the same consumption
   sequence. *)
let neighbourhood st ~include_inverse n =
  Neigh.of_node ~include_inverse n st.graph

let compile st l e =
  match Hashtbl.find_opt st.compiled l with
  | Some c -> c
  | None ->
      let table () =
        match st.backend with
        | Some b -> Table (b.compile_shape e)
        | None -> Generic
      in
      let c =
        match st.engine with
        | Compiled -> table ()
        | _ -> (
            match Sorbe.of_rse e with
            | Some sorbe -> Counting sorbe
            | None -> table ())
      in
      Hashtbl.replace st.compiled l c;
      c

let compiled_stats st = Option.map (fun b -> b.cache_stats ()) st.backend

(* Runtime resource gauges ("where is the memory"): GC words/heap/
   compactions plus the verdict-memo size, sampled into the registry at
   span boundaries — the end of each bulk call and every [metrics]
   read.  Only profiled sessions sample, so unprofiled snapshots (and
   the byte-identity guarantees of the parallel path, E12) are
   untouched. *)
let sample_resources st =
  match st.profile with
  | None -> ()
  | Some p ->
      let q = Gc.quick_stat () in
      Telemetry.Counter.set p.g_minor_words (int_of_float q.Gc.minor_words);
      Telemetry.Counter.set p.g_major_words (int_of_float q.Gc.major_words);
      Telemetry.Counter.set p.g_heap_words q.Gc.heap_words;
      Telemetry.Counter.set p.g_top_heap_words q.Gc.top_heap_words;
      Telemetry.Counter.set p.g_compactions q.Gc.compactions;
      Telemetry.Counter.set p.g_minor_collections q.Gc.minor_collections;
      Telemetry.Counter.set p.g_major_collections q.Gc.major_collections;
      Telemetry.Counter.set p.g_memo_entries (Hashtbl.length st.memo)

(* The unified snapshot: engine counters live in the registry already;
   the automaton backend's pull-style cache counters are folded in at
   read time so one exposition covers every engine.  The DFA state
   gauges ([compiled_states] & co.) land here too, completing the
   resource picture of a profiled session. *)
let metrics st =
  (match st.backend with
  | Some b when Telemetry.enabled st.tele -> b.export_stats st.tele
  | Some _ | None -> ());
  sample_resources st;
  Telemetry.snapshot st.tele

type outcome = { ok : bool; explain : Explain.t option }

let reason o = Option.map Explain.to_string o.explain

let prof_cells p l =
  match Hashtbl.find_opt p.p_cells l with
  | Some c -> c
  | None ->
      let s = Label.to_string l in
      let c =
        { c_checks = Telemetry.labelled p.p_checks s;
          c_seconds = Telemetry.labelled p.p_seconds s;
          c_deriv = Telemetry.labelled p.p_deriv s;
          c_back = Telemetry.labelled p.p_back s;
          c_sorbe = Telemetry.labelled p.p_sorbe s;
          c_compiled = Telemetry.labelled p.p_compiled s }
      in
      Hashtbl.replace p.p_cells l c;
      c

(* DFA work is pull-style (the backend owns its counters); hits +
   misses is one transition taken per consumed triple. *)
let compiled_steps st =
  match st.backend with
  | Some b ->
      let s = b.cache_stats () in
      s.hits + s.misses
  | None -> 0

(* Wrap one matcher run with self-cost attribution: counter deltas and
   wall time of the window, minus whatever nested evaluations (lower
   strata settled inline through [check_ref]) charged to their own
   shapes meanwhile.  Every unit of work is charged exactly once, so
   summing a family reproduces the global counter — the ≥95 %
   attribution-coverage invariant is structural, not statistical. *)
let profiled_run st p n l run () =
  let cells = prof_cells p l in
  let d0 = Telemetry.Counter.value p.p_deriv_total
  and b0 = Telemetry.Counter.value p.p_back_total
  and s0 = Telemetry.Counter.value p.p_sorbe_total
  and c0 = compiled_steps st
  and cd0 = p.charged_deriv
  and cb0 = p.charged_back
  and cs0 = p.charged_sorbe
  and cc0 = p.charged_compiled
  and ct0 = p.charged_seconds in
  let t0 = Telemetry.now () in
  Fun.protect run ~finally:(fun () ->
      let dt = max 0. (Telemetry.now () -. t0) in
      let self total before charged0 charged_now =
        total - before - (charged_now - charged0)
      in
      let dd =
        self (Telemetry.Counter.value p.p_deriv_total) d0 cd0 p.charged_deriv
      and db =
        self (Telemetry.Counter.value p.p_back_total) b0 cb0 p.charged_back
      and ds =
        self (Telemetry.Counter.value p.p_sorbe_total) s0 cs0 p.charged_sorbe
      and dc = self (compiled_steps st) c0 cc0 p.charged_compiled in
      let dts = dt -. (p.charged_seconds -. ct0) in
      Telemetry.Counter.incr cells.c_checks;
      Telemetry.Counter.add cells.c_deriv dd;
      Telemetry.Counter.add cells.c_back db;
      Telemetry.Counter.add cells.c_sorbe ds;
      Telemetry.Counter.add cells.c_compiled dc;
      Telemetry.Span.record cells.c_seconds dts;
      Telemetry.Span.record
        (Telemetry.labelled p.p_node_seconds (Rdf.Term.to_string n))
        dts;
      p.charged_deriv <- p.charged_deriv + dd;
      p.charged_back <- p.charged_back + db;
      p.charged_sorbe <- p.charged_sorbe + ds;
      p.charged_compiled <- p.charged_compiled + dc;
      p.charged_seconds <- p.charged_seconds +. (if dts < 0. then 0. else dts))

(* One evaluation of a (node, label) pair under the current candidate
   valuation.  Every reference is recorded in the use list.  References
   to settled pairs read the memo; same-stratum references read
   [value]; references to lower strata are settled on the spot through
   [solve] (they are final by stratification, so negation over them is
   sound). *)
let rec evaluate st ~value ~demand ((n, l) : Pair.t) =
  match Schema.find_shape st.schema l with
  | None -> (false, [])
  | Some { Schema.focus = Some vo; _ }
    when not (Value_set.obj_mem vo n) ->
      (* The focus node itself fails the shape's node constraint. *)
      (false, [])
  | Some { Schema.expr = e; _ } ->
      let used = ref [] in
      let stratum = Schema.stratum st.schema l in
      let tracing = Telemetry.tracing st.tele in
      let check_ref l' o =
        let q = (o, l') in
        used := q :: !used;
        let settled = Hashtbl.find_opt st.memo q in
        let answer =
          match settled with
          | Some r -> r.ok
          | None ->
              if Schema.stratum st.schema l' < stratum then begin
                solve st q;
                (Hashtbl.find st.memo q).ok
              end
              else begin
                demand q;
                value q
              end
        in
        (* The dependency edge of the fixpoint: which hypothesis this
           verdict consulted, and whether the answer was a settled
           fact or the optimistic candidate valuation. *)
        if tracing then
          Telemetry.emit st.tele
            (Telemetry.instant "fixpoint_dep"
               [ ("node", Telemetry.String (Rdf.Term.to_string n));
                 ("shape", Telemetry.String (Label.to_string l));
                 ("on_node", Telemetry.String (Rdf.Term.to_string o));
                 ("on_shape", Telemetry.String (Label.to_string l'));
                 ("answer", Telemetry.Bool answer);
                 ("settled", Telemetry.Bool (Option.is_some settled)) ]);
        answer
      in
      (* One provenance span per (node, shape) evaluation, labelled
         with the matcher that actually ran (Auto resolves per
         shape). *)
      (* The neighbourhood is computed inside the matcher closure (so
         profiled runs charge it to the shape, as when the engines
         computed it themselves) through {!neighbourhood}. *)
      let deriv_run () =
        let dts = neighbourhood st ~include_inverse:(Rse.has_inverse e) n in
        Deriv.matches_dts ~check_ref ~instr:st.deriv_instr n dts e
      in
      let matcher_name, run =
        match st.engine with
        | Derivatives -> ("derivatives", deriv_run)
        | Backtracking ->
            ( "backtracking",
              fun () ->
                let dts =
                  neighbourhood st ~include_inverse:(Rse.has_inverse e) n
                in
                Backtrack.matches_list ~check_ref ~instr:st.back_instr n dts e
            )
        | Auto | Compiled -> (
            (* Per-label compilation (experiments E4, E9): Auto uses
               the linear counting matcher when the shape is in the
               single-occurrence fragment and the lazy DFA otherwise;
               Compiled always uses the DFA. *)
            match compile st l e with
            | Counting sorbe ->
                ( "sorbe",
                  fun () ->
                    let dts =
                      neighbourhood st
                        ~include_inverse:(Sorbe.has_inverse sorbe) n
                    in
                    Sorbe.matches_dts ~check_ref ~instr:st.sorbe_instr n dts
                      sorbe )
            | Table matcher ->
                ( "compiled",
                  fun () ->
                    let dts =
                      neighbourhood st ~include_inverse:(Rse.has_inverse e) n
                    in
                    matcher ~check_ref n dts )
            | Generic -> ("derivatives", deriv_run))
      in
      let run =
        match st.profile with
        | Some p -> profiled_run st p n l run
        | None -> run
      in
      if tracing then
        Telemetry.emit st.tele
          (Telemetry.span_begin "check"
             [ ("node", Telemetry.String (Rdf.Term.to_string n));
               ("shape", Telemetry.String (Label.to_string l));
               ("engine", Telemetry.String matcher_name) ]);
      (* The span must close even when the matcher raises (a user
         value-set predicate, an out-of-memory shard worker): an
         unbalanced begin would corrupt the span tree of every later
         event the sink sees. *)
      let span_end fields =
        if tracing then
          Telemetry.emit st.tele
            (Telemetry.span_end "check"
               (("node", Telemetry.String (Rdf.Term.to_string n))
               :: ("shape", Telemetry.String (Label.to_string l))
               :: fields))
      in
      let ok =
        match run () with
        | ok -> ok
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            span_end [ ("raised", Telemetry.String (Printexc.to_string e)) ];
            Printexc.raise_with_backtrace e bt
      in
      span_end [ ("ok", Telemetry.Bool ok) ];
      (ok, !used)

(* Greatest-fixpoint solver (chaotic iteration).  All demanded pairs
   start optimistically [true] — the coinductive hypothesis of §8's
   MatchShape rule — and can only flip to [false] when their rule
   fails, re-triggering the pairs whose last evaluation relied on them
   (the [users] edges of their records).  Verdicts are monotone in the
   same-stratum reference answers because {!Schema.make} rejects
   negation inside a stratum, so the iteration terminates at the
   greatest fixpoint in polynomially many evaluations; negated
   references live in lower strata and are settled before use.

   The pairs of one solve live in [pending] until the queue drains and
   then move to the memo wholesale; a pair a pending one consults is
   either pending too or already settled.  The last evaluation of each
   pair wins: a later flip of anything it consulted would have
   re-queued it, so its [uses] are exactly what the final verdict
   depends on.  A matcher that raises abandons [pending]; the reverse
   edges it already added to settled records then name pairs outside
   the memo, which invalidation skips and re-queueing never sees. *)
and solve st root =
  if not (Hashtbl.mem st.memo root) then begin
    let pending : (Pair.t, record) Hashtbl.t = Hashtbl.create 64 in
    let queue = Queue.create () in
    let demand p =
      if not (Hashtbl.mem pending p) then begin
        Telemetry.Counter.incr st.fix_demands;
        Hashtbl.replace pending p fact_true;
        Queue.add p queue
      end
    in
    (* Move [p] in or out of [q]'s reverse edges, wherever [q] lives. *)
    let relink f p q =
      let tbl = if Hashtbl.mem pending q then pending else st.memo in
      let r = Hashtbl.find tbl q in
      Hashtbl.replace tbl q (record r.ok r.uses (f p r.users))
    in
    demand root;
    while not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      let r = Hashtbl.find pending p in
      (* A pair already settled false needs no re-evaluation. *)
      if r.ok then begin
        Telemetry.Counter.incr st.fix_evals;
        let ok, used =
          evaluate st ~value:(fun q -> (Hashtbl.find pending q).ok) ~demand p
        in
        let uses = Pair_set.of_list used in
        Pair_set.iter (relink Pair_set.remove p) (Pair_set.diff r.uses uses);
        Pair_set.iter (relink Pair_set.add p) (Pair_set.diff uses r.uses);
        (* Re-read: relinking changed [p]'s users if it consults itself. *)
        let users = (Hashtbl.find pending p).users in
        Hashtbl.replace pending p (record ok uses users);
        if not ok then begin
          Telemetry.Counter.incr st.fix_flips;
          (match st.profile with
          | Some prof ->
              Telemetry.Counter.incr
                (Telemetry.labelled prof.p_flips (Label.to_string (snd p)))
          | None -> ());
          let requeued = ref 0 in
          Pair_set.iter
            (fun d ->
              match Hashtbl.find_opt pending d with
              | Some { ok = true; _ } ->
                  incr requeued;
                  Queue.add d queue
              | Some _ | None -> ())
            users;
          (* The refutation edge: this hypothesis flipped to false and
             re-triggered the verdicts that relied on it. *)
          if Telemetry.tracing st.tele then
            let fn, fl = p in
            Telemetry.emit st.tele
              (Telemetry.instant "fixpoint_flip"
                 [ ("node", Telemetry.String (Rdf.Term.to_string fn));
                   ("shape", Telemetry.String (Label.to_string fl));
                   ("requeued", Telemetry.Int !requeued) ])
        end
      end
    done;
    Hashtbl.iter (Hashtbl.replace st.memo) pending
  end

let verdict st p =
  solve st p;
  (Hashtbl.find st.memo p).ok

(* Dependency-frontier invalidation: every memoised verdict anchored
   on an edited node, plus — transitively, backwards along the
   [users] edges — every verdict that consulted one of those.  What
   remains in the memo was computed by evaluations that read only
   unchanged neighbourhoods and reference answers that are themselves
   retained, so re-running them against the new graph would reproduce
   the memoised verdict verbatim; dropping exactly the frontier and
   re-solving it therefore converges to the same greatest fixpoint as
   a full from-scratch run (the oracle's edit-script arm checks this
   equivalence mechanically).  A node's memoised pairs are found by
   probing the memo with every schema label; pairs on labels the
   schema does not define are false whatever the graph says, so they
   may stay. *)
let invalidate_nodes st nodes =
  (* Label order, not declaration order: it fixes the order of the
     returned frontier, and with it the daemon's [changed] lists. *)
  let labels = Label.Set.of_list (Schema.labels st.schema) in
  let visited = ref Pair_set.empty in
  let queue = Queue.create () in
  let push p =
    if Hashtbl.mem st.memo p && not (Pair_set.mem p !visited) then begin
      visited := Pair_set.add p !visited;
      Queue.add p queue
    end
  in
  List.iter (fun n -> Label.Set.iter (fun l -> push (n, l)) labels) nodes;
  let frontier = ref [] in
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    let r = Hashtbl.find st.memo p in
    frontier := (p, r) :: !frontier;
    Pair_set.iter push r.users
  done;
  (* Drop the frontier, then unlink it from the retained pairs it
     consulted.  Every user of a frontier pair is itself in the
     frontier (that is what the backwards walk computes), so the
     remaining records exactly describe the retained memo. *)
  let unlink p q =
    match Hashtbl.find_opt st.memo q with
    | Some r ->
        Hashtbl.replace st.memo q
          (record r.ok r.uses (Pair_set.remove p r.users))
    | None -> ()
  in
  List.iter (fun (p, _) -> Hashtbl.remove st.memo p) !frontier;
  List.iter
    (fun (p, (r : record)) -> Pair_set.iter (unlink p) r.uses)
    !frontier;
  List.map (fun (p, (r : record)) -> (p, r.ok)) !frontier

(* The typing τ of a set of roots: every conformant root plus every
   conformant pair reachable from one along the memo's [uses] edges —
   the facts the final matches relied on, combined as §8's typed
   derivative combines sub-typings with ⊎.  One accumulator serves all
   roots and doubles as the visited set, so each conformant pair is
   added and expanded once however many roots reach it.  No matcher
   runs beyond settling the roots. *)
let typing st roots =
  let rec walk ((n, l) as p) acc =
    let r = Hashtbl.find st.memo p in
    if (not r.ok) || Typing.mem n l acc then acc
    else Pair_set.fold walk r.uses (Typing.add n l acc)
  in
  List.fold_left
    (fun acc p ->
      solve st p;
      walk p acc)
    Typing.empty roots

let failure_explain st n l =
  match Schema.find_shape st.schema l with
  | None -> Some (Explain.No_shape { node = n; label = l })
  | Some { Schema.focus = Some vo; _ } when not (Value_set.obj_mem vo n) ->
      Some (Explain.Node_constraint { node = n; constraint_ = vo })
  | Some { Schema.expr = e; _ } ->
      let check_ref l' o = verdict st (o, l') in
      let dts = neighbourhood st ~include_inverse:(Rse.has_inverse e) n in
      let trace = Deriv.matches_trace_dts ~check_ref n dts e in
      Explain.of_trace ~check_ref ~node:n ~label:l trace

let plain_check st n l =
  if verdict st (n, l) then { ok = true; explain = None }
  else { ok = false; explain = failure_explain st n l }

(* Slow-validation capture: time the whole check (first checks of a
   pair include the fixpoint solve they trigger — the honest cost of
   answering that question on a cold memo) and retain it when over
   threshold, with the work-counter deltas of the window.  The deltas
   need an enabled registry; the wall clock and explanations do not,
   so [--slow-ms] works on otherwise un-instrumented sessions. *)
let slow_values st =
  List.map (fun (k, c) -> (k, Telemetry.Counter.value c)) st.slow_work

let slow_delta st before =
  let now = slow_values st in
  List.filter_map
    (fun (k, v0) ->
      let v = List.assoc k now - v0 in
      if v > 0 then Some (k, v) else None)
    before

let slow_capture st slog n l f ~conformant ~explain_of =
  let before = slow_values st in
  let t0 = Telemetry.now () in
  let result = f () in
  let t1 = Telemetry.now () in
  (* Wall clock, so a backwards NTP step can make [t1 < t0]; clamping
     keeps a clock step from recording a nonsense negative duration
     (it can still hide one genuinely slow check — acceptable). *)
  let dt = if t1 > t0 then t1 -. t0 else 0. in
  if dt *. 1000. >= Slowlog.threshold_ms slog then
    Slowlog.record slog
      { Slowlog.node = n; label = l; seconds = dt; at = t1;
        request = Slowlog.context slog;
        conformant = conformant result; explain = explain_of result;
        work = slow_delta st before };
  result

let check st n l =
  match st.slowlog with
  | None -> plain_check st n l
  | Some slog ->
      slow_capture st slog n l
        (fun () -> plain_check st n l)
        ~conformant:(fun o -> o.ok)
        ~explain_of:(fun o -> o.explain)

let check_bool st n l =
  match st.slowlog with
  | None -> verdict st (n, l)
  | Some slog ->
      slow_capture st slog n l
        (fun () -> verdict st (n, l))
        ~conformant:Fun.id
        ~explain_of:(fun ok -> if ok then None else failure_explain st n l)

(* The parallel subsystem (lib/parallel) registers its bulk runner
   here, mirroring the compiled-backend hook above: core owns the
   contract and the decision of when sharding applies; the parallel
   library owns the domains.  Sequential fallbacks keep the observable
   behaviour at [domains = 1] byte-for-byte identical to [check] in a
   fold, and tracing always forces the sequential path because event
   sinks (and the span tree they rebuild) are single-threaded. *)
let bulk_checker :
    (session -> (Rdf.Term.t * Label.t) list -> outcome list * Typing.t) option
    ref =
  ref None

let set_bulk_checker f = bulk_checker := Some f
let bulk_checker_installed () = Option.is_some !bulk_checker

let check_all st associations =
  let result =
    match !bulk_checker with
    | Some bulk
      when st.domains > 1
           && not (Telemetry.tracing st.tele)
           && List.compare_length_with associations 2 >= 0 ->
        bulk st associations
    | _ ->
        let outcomes = List.map (fun (n, l) -> check st n l) associations in
        (outcomes, typing st associations)
  in
  sample_resources st;
  result

let validate_graph st =
  let nodes = Rdf.Graph.nodes st.graph in
  let labels = Schema.labels st.schema in
  let typing =
    List.fold_left
      (fun acc n ->
        List.fold_left
          (fun acc l ->
            (* [check_bool], not bare [verdict]: whole-graph runs feed
               the slowlog too. *)
            if check_bool st n l then Typing.add n l acc else acc)
          acc labels)
      Typing.empty nodes
  in
  sample_resources st;
  typing

let validate ?engine schema graph n l =
  check (session ?engine schema graph) n l
