(** N-Triples: the line-based flat subset of Turtle.

    Parsing delegates to the Turtle parser (every N-Triples document is
    a Turtle document); {!strict_parse} additionally enforces the
    N-Triples restrictions — no directives, no prefixed names, no
    shorthand literals, no [a], no [;]/[,], no collections. *)

val parse : string -> (Rdf.Graph.t, string) result
(** Lenient parse (full Turtle accepted). *)

val strict_parse : string -> (Rdf.Graph.t, string) result
(** Parse enforcing the N-Triples grammar; returns [Error] with the
    offending line when the document uses Turtle-only syntax. *)

val fold_stream :
  ('a -> Rdf.Triple.t -> 'a) -> 'a -> Lexer.stream -> ('a, string) result
(** Streaming N-Triples reader: fold over the triples of a token
    stream without building a graph (or the source string).  Enforces
    the N-Triples shape (subject predicate object dot); literal tails
    ([@lang], [^^<dt>]) are decoded exactly as the Turtle parser
    decodes them, so downstream term comparisons agree. *)

val fold_file : string -> ('a -> Rdf.Triple.t -> 'a) -> 'a -> ('a, string) result
(** {!fold_stream} over a file, opened with a sliding-window lexer:
    peak memory is the fold's own state plus one 64 KiB window. *)

val load_file : string -> (Rdf.Graph.t, string) result
(** Bulk-load a file with the strict N-Triples reader: every term is
    interned as it is read, only int columns accumulate, and the graph
    is one frozen run — the same store {!Parse.parse_file} builds,
    without the general Turtle grammar. *)

val to_string : Rdf.Graph.t -> string
(** Canonical N-Triples: one triple per line in triple order, absolute
    IRIs in angle brackets, all literals quoted with explicit
    datatypes (plain [xsd:string] literals stay bare-quoted). *)

val to_file : string -> Rdf.Graph.t -> unit
