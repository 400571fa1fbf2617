type token =
  | Iriref of string
  | Pname of string * string
  | Blank_label of string
  | Anon
  | String_lit of string
  | Langtag of string
  | Integer_lit of string
  | Decimal_lit of string
  | Double_lit of string
  | Kw_a
  | Kw_true
  | Kw_false
  | At_prefix
  | At_base
  | Kw_prefix
  | Kw_base
  | Dot
  | Semicolon
  | Comma
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Caret_caret
  | Eof

type located = { token : token; line : int; col : int }

exception Error of string * int * int

(* The scanner reads from a sliding byte window refilled on demand, so
   tokenizing a channel never materialises the source: peak memory is
   the window (64 KiB) however large the document.  Every decision
   point below needs at most [max_lookahead] bytes (the longest
   keyword probe, "prefix" plus its boundary character), so a refill
   that tops the window up whenever fewer remain preserves the exact
   semantics of the old whole-string scanner. *)
type state = {
  refill : bytes -> int -> int -> int;
      (* [refill buf off len] reads ≤ len bytes at off; 0 = EOF *)
  buf : bytes;
  mutable len : int;  (* valid bytes in [buf] *)
  mutable pos : int;  (* cursor into [buf] *)
  mutable eof : bool;  (* the refill function is exhausted *)
  mutable line : int;
  mutable col : int;
}

let max_lookahead = 8
let window_size = 65536

(* Guarantee [k] readable bytes at [pos] (or EOF): compact the window
   and refill.  No token construct keeps absolute positions across
   [advance] calls, so sliding the buffer is invisible above. *)
let ensure st k =
  if st.len - st.pos < k && not st.eof then begin
    let rem = st.len - st.pos in
    Bytes.blit st.buf st.pos st.buf 0 rem;
    st.pos <- 0;
    st.len <- rem;
    let cap = Bytes.length st.buf in
    let continue = ref true in
    while !continue && st.len < cap do
      let n = st.refill st.buf st.len (cap - st.len) in
      if n = 0 then begin
        st.eof <- true;
        continue := false
      end
      else begin
        st.len <- st.len + n;
        if st.len - st.pos >= k then continue := false
      end
    done
  end

let peek_at st i =
  ensure st (i + 1);
  if st.pos + i < st.len then Some (Bytes.get st.buf (st.pos + i)) else None

let peek st = peek_at st 0
let peek2 st = peek_at st 1

(* Reads the window directly rather than through [peek]: a [Some c]
   per consumed byte was most of a short snippet's allocation. *)
let advance st =
  ensure st 1;
  if st.pos < st.len then begin
    (match Bytes.get st.buf st.pos with
    | '\n' ->
        st.line <- st.line + 1;
        st.col <- 1
    | '\r'
      when (ensure st 2;
            not (st.pos + 1 < st.len && Bytes.get st.buf (st.pos + 1) = '\n'))
      ->
        (* A bare CR is a line ending of its own (classic-Mac or
           mixed-EOL input); in a CRLF pair only the LF counts. *)
        st.line <- st.line + 1;
        st.col <- 1
    | _ -> st.col <- st.col + 1);
    st.pos <- st.pos + 1
  end

let error st msg = raise (Error (msg, st.line, st.col))

let is_ws = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false
let is_digit c = c >= '0' && c <= '9'

let is_pn_chars_base c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || Char.code c >= 0x80

let is_pn_chars c =
  is_pn_chars_base c || is_digit c || c = '_' || c = '-'

(* Encode a Unicode scalar value as UTF-8 into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex_value st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> error st (Printf.sprintf "invalid hex digit %C" c)

let read_unicode_escape st n buf =
  let cp = ref 0 in
  for _ = 1 to n do
    match peek st with
    | Some c ->
        cp := (!cp * 16) + hex_value st c;
        advance st
    | None -> error st "unterminated \\u escape"
  done;
  add_utf8 buf !cp

(* Escapes shared by strings; IRIs only allow \u / \U. *)
let read_string_escape st buf =
  match peek st with
  | Some 'n' -> advance st; Buffer.add_char buf '\n'
  | Some 't' -> advance st; Buffer.add_char buf '\t'
  | Some 'r' -> advance st; Buffer.add_char buf '\r'
  | Some 'b' -> advance st; Buffer.add_char buf '\b'
  | Some 'f' -> advance st; Buffer.add_char buf '\012'
  | Some '"' -> advance st; Buffer.add_char buf '"'
  | Some '\'' -> advance st; Buffer.add_char buf '\''
  | Some '\\' -> advance st; Buffer.add_char buf '\\'
  | Some 'u' -> advance st; read_unicode_escape st 4 buf
  | Some 'U' -> advance st; read_unicode_escape st 8 buf
  | Some c -> error st (Printf.sprintf "invalid escape \\%c" c)
  | None -> error st "unterminated escape"

let read_iriref st =
  advance st; (* consume '<' *)
  let buf = Buffer.create 32 in
  let rec go () =
    match peek st with
    | Some '>' -> advance st; Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'u' -> advance st; read_unicode_escape st 4 buf; go ()
        | Some 'U' -> advance st; read_unicode_escape st 8 buf; go ()
        | _ -> error st "only \\u/\\U escapes are allowed in IRIs")
    | Some c when is_ws c -> error st "whitespace in IRI"
    | Some c -> advance st; Buffer.add_char buf c; go ()
    | None -> error st "unterminated IRI"
  in
  go ()

(* Quoted strings: short "..."/'...' and long """...""" / '''...'''. *)
let read_string st quote =
  advance st; (* first quote *)
  let long =
    peek st = Some quote && peek2 st = Some quote
    && begin advance st; advance st; true end
  in
  let buf = Buffer.create 32 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some c when c = quote ->
        if not long then begin advance st; Buffer.contents buf end
        else begin
          (* In a long string a run of k ≥ 3 quotes means k−3 content
             quotes followed by the terminator (greedy per the Turtle
             grammar); runs of 1–2 quotes are content. *)
          let run = ref 0 in
          while peek st = Some quote do
            incr run;
            advance st
          done;
          if !run >= 3 then begin
            for _ = 1 to !run - 3 do Buffer.add_char buf quote done;
            Buffer.contents buf
          end
          else begin
            for _ = 1 to !run do Buffer.add_char buf quote done;
            go ()
          end
        end
    | Some '\\' -> advance st; read_string_escape st buf; go ()
    | Some ('\n' | '\r') when not long -> error st "newline in string"
    | Some c -> advance st; Buffer.add_char buf c; go ()
  in
  go ()

(* PN_LOCAL: letters, digits, '_', '-', '.', ':', '%XX' and \-escaped
   punctuation.  Trailing dots belong to the statement terminator. *)
let read_pn_local st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some c when is_pn_chars c || c = ':' ->
        advance st; Buffer.add_char buf c; go ()
    | Some '.' ->
        (* Only take the dot if a local character follows. *)
        (match peek2 st with
        | Some c2 when is_pn_chars c2 || c2 = ':' || c2 = '.' || c2 = '%' ->
            advance st; Buffer.add_char buf '.'; go ()
        | _ -> Buffer.contents buf)
    | Some '%' -> (
        match (peek2 st, peek_at st 2) with
        | Some h1, Some h2 ->
            advance st; advance st; advance st;
            Buffer.add_char buf '%';
            Buffer.add_char buf h1;
            Buffer.add_char buf h2;
            go ()
        | _ -> error st "truncated %-escape in local name")
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some (( '_' | '~' | '.' | '-' | '!' | '$' | '&' | '\'' | '(' | ')'
                | '*' | '+' | ',' | ';' | '=' | '/' | '?' | '#' | '@' | '%' )
                as c) ->
            advance st; Buffer.add_char buf c; go ()
        | _ -> error st "invalid local name escape")
    | _ -> Buffer.contents buf
  in
  go ()

let read_pn_prefix st =
  let buf = Buffer.create 8 in
  let rec go () =
    match peek st with
    | Some c when is_pn_chars c -> advance st; Buffer.add_char buf c; go ()
    | Some '.' -> (
        match peek2 st with
        | Some c2 when is_pn_chars c2 || c2 = '.' ->
            advance st; Buffer.add_char buf '.'; go ()
        | _ -> Buffer.contents buf)
    | _ -> Buffer.contents buf
  in
  go ()

let read_number st =
  let buf = Buffer.create 8 in
  let take () =
    match peek st with
    | Some c -> advance st; Buffer.add_char buf c
    | None -> ()
  in
  (match peek st with Some ('+' | '-') -> take () | _ -> ());
  let rec digits () =
    match peek st with
    | Some c when is_digit c -> take (); digits ()
    | _ -> ()
  in
  digits ();
  let decimal = ref false and exponent = ref false in
  (match (peek st, peek2 st) with
  | Some '.', Some c when is_digit c ->
      decimal := true;
      take ();
      digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      exponent := true;
      take ();
      (match peek st with Some ('+' | '-') -> take () | _ -> ());
      digits ()
  | _ -> ());
  let s = Buffer.contents buf in
  if !exponent then Double_lit s
  else if !decimal then Decimal_lit s
  else if s = "" || s = "+" || s = "-" then error st "malformed number"
  else Integer_lit s

let keyword_at st kw =
  (* Case-insensitive match of a bare word at the current position.
     Needs length kw + 1 bytes of lookahead (the boundary check) —
     bounded by [max_lookahead] for every keyword we probe. *)
  let n = String.length kw in
  assert (n < max_lookahead);
  let rec chars i =
    i >= n
    || (match peek_at st i with
       | Some c -> Char.lowercase_ascii c = Char.lowercase_ascii kw.[i]
       | None -> false)
       && chars (i + 1)
  in
  chars 0
  &&
  match peek_at st n with
  | None -> true
  | Some c -> not (is_pn_chars c || c = ':')

let consume_word st kw = for _ = 1 to String.length kw do advance st done

let next_token st =
  let rec skip () =
    match peek st with
    | Some c when is_ws c -> advance st; skip ()
    | Some '#' ->
        (* A comment ends at LF or at a bare CR: stopping only at LF
           made a CR-terminated comment swallow the rest of the
           document's data on CR-only line endings. *)
        let rec to_eol () =
          match peek st with
          | Some '\n' | Some '\r' | None -> ()
          | Some _ -> advance st; to_eol ()
        in
        to_eol (); skip ()
    | _ -> ()
  in
  skip ();
  let line = st.line and col = st.col in
  let tok =
    match peek st with
    | None -> Eof
    | Some '<' -> Iriref (read_iriref st)
    | Some '"' -> String_lit (read_string st '"')
    | Some '\'' -> String_lit (read_string st '\'')
    | Some '.' -> (
        match peek2 st with
        | Some c when is_digit c -> read_number st
        | _ -> advance st; Dot)
    | Some ';' -> advance st; Semicolon
    | Some ',' -> advance st; Comma
    | Some '[' ->
        (* [[]] (ANON) is recognised by the parser from Lbracket
           Rbracket: deciding it here would need unbounded lookahead
           past whitespace, which a streaming window cannot give. *)
        advance st;
        Lbracket
    | Some ']' -> advance st; Rbracket
    | Some '(' -> advance st; Lparen
    | Some ')' -> advance st; Rparen
    | Some '^' -> (
        advance st;
        match peek st with
        | Some '^' -> advance st; Caret_caret
        | _ -> error st "expected ^^")
    | Some '@' -> (
        advance st;
        if keyword_at st "prefix" then begin consume_word st "prefix"; At_prefix end
        else if keyword_at st "base" then begin consume_word st "base"; At_base end
        else
          (* language tag: [a-zA-Z]+ ('-' [a-zA-Z0-9]+)* *)
          let buf = Buffer.create 8 in
          let rec go () =
            match peek st with
            | Some c
              when (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                   || is_digit c || c = '-' ->
                advance st; Buffer.add_char buf c; go ()
            | _ -> ()
          in
          go ();
          if Buffer.length buf = 0 then error st "empty language tag"
          else Langtag (Buffer.contents buf))
    | Some '_' -> (
        match peek2 st with
        | Some ':' ->
            advance st; advance st;
            let label = read_pn_local st in
            if label = "" then error st "empty blank node label"
            else Blank_label label
        | _ -> error st "expected _: for blank node")
    | Some ('+' | '-') -> read_number st
    | Some c when is_digit c -> read_number st
    | Some ':' ->
        advance st;
        Pname ("", read_pn_local st)
    | Some c when is_pn_chars_base c ->
        if keyword_at st "a" then begin consume_word st "a"; Kw_a end
        else if keyword_at st "true" then begin consume_word st "true"; Kw_true end
        else if keyword_at st "false" then begin consume_word st "false"; Kw_false end
        else if keyword_at st "prefix" then begin consume_word st "prefix"; Kw_prefix end
        else if keyword_at st "base" then begin consume_word st "base"; Kw_base end
        else begin
          let prefix = read_pn_prefix st in
          match peek st with
          | Some ':' ->
              advance st;
              Pname (prefix, read_pn_local st)
          | _ -> error st (Printf.sprintf "expected ':' after %S" prefix)
        end
    | Some c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  { token = tok; line; col }

type stream = state

let no_refill _ _ _ = 0

let stream_of_string src =
  (* The whole string is the window; the refill function is never
     consulted.  One copy, same complexity as the old scanner. *)
  { refill = no_refill;
    buf = Bytes.of_string src;
    len = String.length src;
    pos = 0;
    eof = true;
    line = 1;
    col = 1 }

let stream_of_channel ic =
  { refill = (fun buf off len -> In_channel.input ic buf off len);
    buf = Bytes.create window_size;
    len = 0;
    pos = 0;
    eof = false;
    line = 1;
    col = 1 }

let next st = next_token st

let tokenize src =
  let st = stream_of_string src in
  let rec go acc =
    let t = next_token st in
    if t.token = Eof then List.rev (t :: acc) else go (t :: acc)
  in
  go []

let pp_token ppf = function
  | Iriref s -> Format.fprintf ppf "<%s>" s
  | Pname (p, l) -> Format.fprintf ppf "%s:%s" p l
  | Blank_label l -> Format.fprintf ppf "_:%s" l
  | Anon -> Format.pp_print_string ppf "[]"
  | String_lit s -> Format.fprintf ppf "%S" s
  | Langtag t -> Format.fprintf ppf "@@%s" t
  | Integer_lit s | Decimal_lit s | Double_lit s ->
      Format.pp_print_string ppf s
  | Kw_a -> Format.pp_print_string ppf "a"
  | Kw_true -> Format.pp_print_string ppf "true"
  | Kw_false -> Format.pp_print_string ppf "false"
  | At_prefix -> Format.pp_print_string ppf "@@prefix"
  | At_base -> Format.pp_print_string ppf "@@base"
  | Kw_prefix -> Format.pp_print_string ppf "PREFIX"
  | Kw_base -> Format.pp_print_string ppf "BASE"
  | Dot -> Format.pp_print_string ppf "."
  | Semicolon -> Format.pp_print_string ppf ";"
  | Comma -> Format.pp_print_string ppf ","
  | Lbracket -> Format.pp_print_string ppf "["
  | Rbracket -> Format.pp_print_string ppf "]"
  | Lparen -> Format.pp_print_string ppf "("
  | Rparen -> Format.pp_print_string ppf ")"
  | Caret_caret -> Format.pp_print_string ppf "^^"
  | Eof -> Format.pp_print_string ppf "<eof>"
