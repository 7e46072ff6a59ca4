(** Hand-written lexer shared by the SQL and BiDEL front ends. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | DOT
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | CONCAT
  | EOF

exception Lex_error of string * int  (** message, offset *)

(** Source position of a token (1-based); [no_pos] marks synthetic tokens. *)
type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

let pp_pos ppf p = Fmt.pf ppf "line %d, column %d" p.line p.col

let error pos fmt = Fmt.kstr (fun s -> raise (Lex_error (s, pos))) fmt

(** Source position of byte offset [off] in [src] (e.g. a {!Lex_error}'s). *)
let pos_of_offset src off =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min off (String.length src) - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = off - !bol + 1 }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* '$' and '~' appear in generated physical/auxiliary table names. *)
let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '$' || c = '~' || c = '!'
  || c = '@'

let tokenize_pos src =
  let n = String.length src in
  let tokens = ref [] in
  let pos = ref 0 in
  (* offset where the token produced by the current loop iteration starts *)
  let cur = ref 0 in
  let emit tok = tokens := (tok, !cur) :: !tokens in
  let peek off = if !pos + off < n then Some src.[!pos + off] else None in
  while !pos < n do
    cur := !pos;
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '-' && peek 1 = Some '-' then begin
      (* line comment *)
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      let start = !pos in
      pos := !pos + 2;
      let rec skip () =
        if !pos + 1 >= n then error start "unterminated comment"
        else if src.[!pos] = '*' && src.[!pos + 1] = '/' then pos := !pos + 2
        else begin
          incr pos;
          skip ()
        end
      in
      skip ()
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      emit (IDENT (String.sub src start (!pos - start)))
    end
    else if c >= '0' && c <= '9' then begin
      let start = !pos in
      while !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' do
        incr pos
      done;
      let is_float =
        !pos + 1 < n
        && src.[!pos] = '.'
        && src.[!pos + 1] >= '0'
        && src.[!pos + 1] <= '9'
      in
      if is_float then begin
        incr pos;
        while !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' do
          incr pos
        done;
        emit (FLOAT (float_of_string (String.sub src start (!pos - start))))
      end
      else
        let digits = String.sub src start (!pos - start) in
        match int_of_string_opt digits with
        | Some n -> emit (INT n)
        | None -> error start "integer literal %s out of range" digits
    end
    else if c = '\'' then begin
      let buf = Buffer.create 16 in
      let start = !pos in
      incr pos;
      let rec scan () =
        if !pos >= n then error start "unterminated string literal"
        else if src.[!pos] = '\'' then
          if peek 1 = Some '\'' then begin
            Buffer.add_char buf '\'';
            pos := !pos + 2;
            scan ()
          end
          else incr pos
        else begin
          Buffer.add_char buf src.[!pos];
          incr pos;
          scan ()
        end
      in
      scan ();
      emit (STRING (Buffer.contents buf))
    end
    else if c = '"' then begin
      (* quoted identifier *)
      let buf = Buffer.create 16 in
      let start = !pos in
      incr pos;
      while !pos < n && src.[!pos] <> '"' do
        Buffer.add_char buf src.[!pos];
        incr pos
      done;
      if !pos >= n then error start "unterminated quoted identifier";
      incr pos;
      emit (IDENT (Buffer.contents buf))
    end
    else begin
      let two a b tok =
        if c = a && peek 1 = Some b then begin
          emit tok;
          pos := !pos + 2;
          true
        end
        else false
      in
      if
        two '<' '>' NEQ || two '!' '=' NEQ || two '<' '=' LE || two '>' '=' GE
        || two '|' '|' CONCAT
      then ()
      else begin
        (match c with
        | '(' -> emit LPAREN
        | ')' -> emit RPAREN
        | ',' -> emit COMMA
        | ';' -> emit SEMI
        | '.' -> emit DOT
        | '*' -> emit STAR
        | '+' -> emit PLUS
        | '-' -> emit MINUS
        | '/' -> emit SLASH
        | '%' -> emit PERCENT
        | '=' -> emit EQ
        | '<' -> emit LT
        | '>' -> emit GT
        | _ -> error !pos "unexpected character %c" c);
        incr pos
      end
    end
  done;
  cur := n;
  emit EOF;
  (* one forward pass converts token offsets to line/column positions *)
  let line = ref 1 and bol = ref 0 and idx = ref 0 in
  List.rev !tokens
  |> List.map (fun (tok, off) ->
         while !idx < off do
           if src.[!idx] = '\n' then begin
             incr line;
             bol := !idx + 1
           end;
           incr idx
         done;
         (tok, { line = !line; col = off - !bol + 1 }))

let tokenize src = List.map fst (tokenize_pos src)

let token_to_string = function
  | IDENT s -> s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> "'" ^ s ^ "'"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | SEMI -> ";"
  | DOT -> "."
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | PERCENT -> "%"
  | EQ -> "="
  | NEQ -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | CONCAT -> "||"
  | EOF -> "<eof>"

(** Cursor over a token list, shared by the SQL and BiDEL parsers. Cursors
    built with {!make_pos} carry source positions: parse errors are located
    and parsers can attach spans to their AST nodes. *)
module Cursor = struct
  type t = { mutable toks : (token * pos) list; mutable last : pos }

  exception Parse_error of string

  let perror fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

  let make toks = { toks = List.map (fun tok -> (tok, no_pos)) toks; last = no_pos }

  let make_pos toks = { toks; last = no_pos }

  let peek t = match t.toks with [] -> EOF | (tok, _) :: _ -> tok

  let peek2 t = match t.toks with _ :: (tok, _) :: _ -> tok | _ -> EOF

  (** Position of the next (unconsumed) token. *)
  let pos t = match t.toks with [] -> no_pos | (_, p) :: _ -> p

  (** Position of the most recently consumed token. *)
  let last_pos t = t.last

  let advance t =
    match t.toks with
    | [] -> ()
    | (_, p) :: rest ->
      if p <> no_pos then t.last <- p;
      t.toks <- rest

  let next t =
    let tok = peek t in
    advance t;
    tok

  (** Raise a [Parse_error] whose message is prefixed with the position of
      the next token (when the cursor carries positions). *)
  let perror_at t fmt =
    let p = pos t in
    Fmt.kstr
      (fun s ->
        let msg = if p = no_pos then s else Fmt.str "%a: %s" pp_pos p s in
        raise (Parse_error msg))
      fmt

  let expect t tok =
    let got_pos = pos t in
    let got = next t in
    if got <> tok then begin
      let s =
        Fmt.str "expected %s but found %s" (token_to_string tok)
          (token_to_string got)
      in
      let msg =
        if got_pos = no_pos then s else Fmt.str "%a: %s" pp_pos got_pos s
      in
      raise (Parse_error msg)
    end

  (** Case-insensitive keyword check. *)
  let is_kw t kw =
    match peek t with
    | IDENT s -> String.uppercase_ascii s = kw
    | _ -> false

  let is_kw2 t kw =
    match peek2 t with
    | IDENT s -> String.uppercase_ascii s = kw
    | _ -> false

  let accept_kw t kw =
    if is_kw t kw then begin
      advance t;
      true
    end
    else false

  let expect_kw t kw =
    if not (accept_kw t kw) then
      perror_at t "expected %s but found %s" kw (token_to_string (peek t))

  let ident t =
    let p = pos t in
    match next t with
    | IDENT s -> s
    | tok ->
      let s = Fmt.str "expected identifier, found %s" (token_to_string tok) in
      raise
        (Parse_error (if p = no_pos then s else Fmt.str "%a: %s" pp_pos p s))

  let at_end t = peek t = EOF
end
