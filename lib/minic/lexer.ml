(** Hand-written lexer for MiniC: one scan loop over the source bytes.
    Whitespace is skipped without building a position; punctuators are
    dispatched on their first character, longest match first; keywords
    are looked up in a table. *)

type token =
  | Tint of int
  | Tfloat of float
  | Tstr of string
  | Tident of string
  | Tkw of string  (** keyword *)
  | Tpunct of string  (** operator or punctuation *)
  | Teof

type lexed = { tok : token; tpos : Ast.pos }

exception Lex_error of Ast.pos * string

let keywords : (string, unit) Hashtbl.t =
  let t = Hashtbl.create 32 in
  List.iter
    (fun k -> Hashtbl.replace t k ())
    [
      "void"; "char"; "short"; "int"; "long"; "double"; "struct";
      "if"; "else"; "while"; "for"; "do"; "return"; "break"; "continue";
      "sizeof"; "extern"; "static"; "NULL";
    ];
  t

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let tokenize (src : string) : lexed list =
  let n = String.length src in
  let toks = ref [] in
  (* the column is the distance from the start of the current line *)
  let line = ref 1 and line_start = ref 0 in
  let i = ref 0 in
  let pos () = { Ast.line = !line; col = !i - !line_start + 1 } in
  (* step over one byte that may be a newline *)
  let step () =
    if src.[!i] = '\n' then begin
      incr line;
      line_start := !i + 1
    end;
    incr i
  in
  let emit tok p = toks := { tok; tpos = p } :: !toks in
  let fail p msg = raise (Lex_error (p, msg)) in
  let at k c = !i + k < n && src.[!i + k] = c in
  (* emit punctuator [s], which starts at the cursor *)
  let punct s =
    let p = pos () in
    i := !i + String.length s;
    emit (Tpunct s) p
  in
  (* convert literal [s], which starts at [p] *)
  let literal p convert s msg =
    match convert s with Some v -> v | None -> fail p (msg ^ " " ^ s)
  in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' -> step ()
    | '/' when at 1 '/' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | '/' when at 1 '*' ->
        let p = pos () in
        i := !i + 2;
        let closed = ref false in
        while (not !closed) && !i < n do
          if at 0 '*' && at 1 '/' then begin
            i := !i + 2;
            closed := true
          end
          else step ()
        done;
        if not !closed then fail p "unterminated comment"
    | '0' .. '9' as c ->
        let p = pos () and start = !i in
        if c = '0' && (at 1 'x' || at 1 'X') then begin
          i := !i + 2;
          while !i < n && is_hex src.[!i] do
            incr i
          done;
          if !i - start = 2 then fail p "hex literal without digits";
          let s = String.sub src start (!i - start) in
          emit
            (Tint (literal p int_of_string_opt s "integer literal out of range"))
            p
        end
        else begin
          while !i < n && is_digit src.[!i] do
            incr i
          done;
          if at 0 '.' || at 0 'e' || at 0 'E' then begin
            if at 0 '.' then begin
              incr i;
              while !i < n && is_digit src.[!i] do
                incr i
              done
            end;
            if at 0 'e' || at 0 'E' then begin
              incr i;
              if at 0 '+' || at 0 '-' then incr i;
              while !i < n && is_digit src.[!i] do
                incr i
              done
            end;
            let s = String.sub src start (!i - start) in
            emit
              (Tfloat
                 (literal p float_of_string_opt s "malformed floating literal"))
              p
          end
          else begin
            let s = String.sub src start (!i - start) in
            let v =
              literal p int_of_string_opt s "integer literal out of range"
            in
            (* allow L/UL suffixes *)
            while at 0 'L' || at 0 'U' || at 0 'l' do
              incr i
            done;
            emit (Tint v) p
          end
        end
    | c when is_ident_start c ->
        let p = pos () and start = !i in
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        let word = String.sub src start (!i - start) in
        emit (if Hashtbl.mem keywords word then Tkw word else Tident word) p
    | '"' ->
        let p = pos () in
        incr i;
        let buf = Buffer.create 16 in
        let closed = ref false in
        while (not !closed) && !i < n do
          match src.[!i] with
          | '"' ->
              incr i;
              closed := true
          | '\\' ->
              if !i + 1 >= n then fail p "dangling escape";
              (match src.[!i + 1] with
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | '0' -> Buffer.add_char buf '\000'
              | '\\' -> Buffer.add_char buf '\\'
              | '"' -> Buffer.add_char buf '"'
              | e -> fail p (Printf.sprintf "bad escape \\%c" e));
              i := !i + 2
          | ch ->
              Buffer.add_char buf ch;
              step ()
        done;
        if not !closed then fail p "unterminated string";
        emit (Tstr (Buffer.contents buf)) p
    | '\'' ->
        let p = pos () in
        incr i;
        if !i >= n then fail p "unterminated char literal";
        let v =
          if src.[!i] = '\\' then begin
            if !i + 1 >= n then fail p "dangling escape";
            let v =
              match src.[!i + 1] with
              | 'n' -> 10
              | 't' -> 9
              | 'r' -> 13
              | '0' -> 0
              | '\\' -> 92
              | '\'' -> 39
              | e -> fail p (Printf.sprintf "bad escape \\%c" e)
            in
            i := !i + 2;
            v
          end
          else begin
            let v = Char.code src.[!i] in
            step ();
            v
          end
        in
        if not (at 0 '\'') then fail p "unterminated char literal";
        incr i;
        emit (Tint v) p
    | '<' ->
        punct
          (if at 1 '<' then if at 2 '=' then "<<=" else "<<"
           else if at 1 '=' then "<="
           else "<")
    | '>' ->
        punct
          (if at 1 '>' then if at 2 '=' then ">>=" else ">>"
           else if at 1 '=' then ">="
           else ">")
    | '=' -> punct (if at 1 '=' then "==" else "=")
    | '!' -> punct (if at 1 '=' then "!=" else "!")
    | '&' -> punct (if at 1 '&' then "&&" else if at 1 '=' then "&=" else "&")
    | '|' -> punct (if at 1 '|' then "||" else if at 1 '=' then "|=" else "|")
    | '+' -> punct (if at 1 '+' then "++" else if at 1 '=' then "+=" else "+")
    | '-' ->
        punct
          (if at 1 '-' then "--"
           else if at 1 '=' then "-="
           else if at 1 '>' then "->"
           else "-")
    | '*' -> punct (if at 1 '=' then "*=" else "*")
    | '/' -> punct (if at 1 '=' then "/=" else "/")
    | '%' -> punct (if at 1 '=' then "%=" else "%")
    | '^' -> punct (if at 1 '=' then "^=" else "^")
    | '~' -> punct "~"
    | '(' -> punct "("
    | ')' -> punct ")"
    | '{' -> punct "{"
    | '}' -> punct "}"
    | '[' -> punct "["
    | ']' -> punct "]"
    | ';' -> punct ";"
    | ',' -> punct ","
    | '.' -> punct "."
    | '?' -> punct "?"
    | ':' -> punct ":"
    | c -> fail (pos ()) (Printf.sprintf "unexpected character %c" c)
  done;
  emit Teof (pos ());
  List.rev !toks
