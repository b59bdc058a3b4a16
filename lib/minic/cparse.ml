(** Recursive-descent parser for MiniC. *)

open Ast

exception Parse_error of pos * string

type stream = { toks : Lexer.lexed array; mutable k : int }

let fail (s : stream) msg =
  let p = s.toks.(min s.k (Array.length s.toks - 1)).Lexer.tpos in
  raise (Parse_error (p, msg))

let peek (s : stream) = s.toks.(s.k).Lexer.tok
let peek2 (s : stream) =
  if s.k + 1 < Array.length s.toks then s.toks.(s.k + 1).Lexer.tok
  else Lexer.Teof

let pos_of (s : stream) = s.toks.(s.k).Lexer.tpos
let advance (s : stream) = s.k <- s.k + 1

let eat_punct (s : stream) p =
  match peek s with
  | Lexer.Tpunct q when String.equal p q -> advance s
  | _ -> fail s (Printf.sprintf "expected '%s'" p)

let try_punct (s : stream) p =
  match peek s with
  | Lexer.Tpunct q when String.equal p q ->
      advance s;
      true
  | _ -> false

let try_kw (s : stream) k =
  match peek s with
  | Lexer.Tkw q when String.equal k q ->
      advance s;
      true
  | _ -> false

let eat_ident (s : stream) =
  match peek s with
  | Lexer.Tident id ->
      advance s;
      id
  | _ -> fail s "expected identifier"

(* --- types ----------------------------------------------------------- *)

let is_type_start (s : stream) =
  match peek s with
  | Lexer.Tkw ("void" | "char" | "short" | "int" | "long" | "double" | "struct")
    ->
      true
  | _ -> false

let parse_base_type (s : stream) : Ctypes.t =
  match peek s with
  | Lexer.Tkw "void" ->
      advance s;
      Ctypes.Cvoid
  | Lexer.Tkw "char" ->
      advance s;
      Ctypes.Cchar
  | Lexer.Tkw "short" ->
      advance s;
      Ctypes.Cshort
  | Lexer.Tkw "int" ->
      advance s;
      Ctypes.Cint
  | Lexer.Tkw "long" ->
      advance s;
      (* accept "long long" and "long int" *)
      (match peek s with
      | Lexer.Tkw "long" | Lexer.Tkw "int" -> advance s
      | _ -> ());
      Ctypes.Clong
  | Lexer.Tkw "double" ->
      advance s;
      Ctypes.Cdouble
  | Lexer.Tkw "struct" ->
      advance s;
      let name = eat_ident s in
      Ctypes.Cstruct name
  | _ -> fail s "expected type"

let parse_stars (s : stream) ty =
  let ty = ref ty in
  while try_punct s "*" do
    ty := Ctypes.Cptr !ty
  done;
  !ty

(* array suffixes: a[3][4] -> Carr (Carr (t, 4), 3) *)
let parse_array_suffix (s : stream) ty =
  let dims = ref [] in
  while try_punct s "[" do
    (match peek s with
    | Lexer.Tint n ->
        advance s;
        dims := Some n :: !dims
    | Lexer.Tpunct "]" -> dims := None :: !dims
    | _ -> fail s "expected array size or ']'");
    eat_punct s "]"
  done;
  List.fold_left (fun t d -> Ctypes.Carr (t, d)) ty !dims

(* full abstract type for casts/sizeof: base, stars, no arrays *)
let parse_abstract_type (s : stream) : Ctypes.t =
  let t = parse_base_type s in
  parse_stars s t

(* --- expressions ----------------------------------------------------- *)

(* binary operators by precedence, 0 binding loosest *)
let binop = function
  | "||" -> Some (0, Blor)
  | "&&" -> Some (1, Bland)
  | "|" -> Some (2, Bor)
  | "^" -> Some (3, Bxor)
  | "&" -> Some (4, Band)
  | "==" -> Some (5, Beq)
  | "!=" -> Some (5, Bne)
  | "<" -> Some (6, Blt)
  | "<=" -> Some (6, Ble)
  | ">" -> Some (6, Bgt)
  | ">=" -> Some (6, Bge)
  | "<<" -> Some (7, Bshl)
  | ">>" -> Some (7, Bshr)
  | "+" -> Some (8, Badd)
  | "-" -> Some (8, Bsub)
  | "*" -> Some (9, Bmul)
  | "/" -> Some (9, Bdiv)
  | "%" -> Some (9, Bmod)
  | _ -> None

let rec parse_expr (s : stream) : expr = parse_assign s

and parse_assign (s : stream) : expr =
  let p = pos_of s in
  let lhs = parse_cond s in
  match peek s with
  | Lexer.Tpunct "=" ->
      advance s;
      { e = Eassign (lhs, parse_assign s); epos = p }
  | Lexer.Tpunct
      (("+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=")
       as op) ->
      advance s;
      let bop =
        match op with
        | "+=" -> Badd
        | "-=" -> Bsub
        | "*=" -> Bmul
        | "/=" -> Bdiv
        | "%=" -> Bmod
        | "&=" -> Band
        | "|=" -> Bor
        | "^=" -> Bxor
        | "<<=" -> Bshl
        | ">>=" -> Bshr
        | _ -> assert false
      in
      { e = Eopassign (bop, lhs, parse_assign s); epos = p }
  | _ -> lhs

and parse_cond (s : stream) : expr =
  let p = pos_of s in
  let c = parse_binary s 0 in
  if try_punct s "?" then begin
    let a = parse_expr s in
    eat_punct s ":";
    let b = parse_cond s in
    { e = Econd (c, a, b); epos = p }
  end
  else c

(* precedence climbing: the operators binding at least as tightly as
   [min], left-associative; every node's position is that of its
   leftmost operand *)
and parse_binary (s : stream) min : expr =
  let p = pos_of s in
  let lhs = ref (parse_unary s) in
  let continue_ = ref true in
  while !continue_ do
    match peek s with
    | Lexer.Tpunct op -> (
        match binop op with
        | Some (prec, bop) when prec >= min ->
            advance s;
            let rhs = parse_binary s (prec + 1) in
            lhs := { e = Ebin (bop, !lhs, rhs); epos = p }
        | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary (s : stream) : expr =
  let p = pos_of s in
  match peek s with
  | Lexer.Tpunct "-" ->
      advance s;
      { e = Eun (Uneg, parse_unary s); epos = p }
  | Lexer.Tpunct "!" ->
      advance s;
      { e = Eun (Unot, parse_unary s); epos = p }
  | Lexer.Tpunct "~" ->
      advance s;
      { e = Eun (Ubnot, parse_unary s); epos = p }
  | Lexer.Tpunct "*" ->
      advance s;
      { e = Ederef (parse_unary s); epos = p }
  | Lexer.Tpunct "&" ->
      advance s;
      { e = Eaddr (parse_unary s); epos = p }
  | Lexer.Tpunct "++" ->
      advance s;
      { e = Eincdec (`Pre, `Inc, parse_unary s); epos = p }
  | Lexer.Tpunct "--" ->
      advance s;
      { e = Eincdec (`Pre, `Dec, parse_unary s); epos = p }
  | Lexer.Tpunct "+" ->
      advance s;
      parse_unary s
  | Lexer.Tkw "sizeof" ->
      advance s;
      eat_punct s "(";
      if is_type_start s then begin
        let t = parse_abstract_type s in
        let t = parse_array_suffix s t in
        eat_punct s ")";
        { e = Esizeof_ty t; epos = p }
      end
      else begin
        let e = parse_expr s in
        eat_punct s ")";
        { e = Esizeof_e e; epos = p }
      end
  | Lexer.Tpunct "(" when (match peek2 s with
                          | Lexer.Tkw ("void" | "char" | "short" | "int"
                                      | "long" | "double" | "struct") ->
                              true
                          | _ -> false) ->
      advance s;
      let t = parse_abstract_type s in
      eat_punct s ")";
      { e = Ecast (t, parse_unary s); epos = p }
  | _ -> parse_postfix s

and parse_postfix (s : stream) : expr =
  let p = pos_of s in
  let e = ref (parse_primary s) in
  let continue_ = ref true in
  while !continue_ do
    match peek s with
    | Lexer.Tpunct "[" ->
        advance s;
        let i = parse_expr s in
        eat_punct s "]";
        e := { e = Eindex (!e, i); epos = p }
    | Lexer.Tpunct "." ->
        advance s;
        let f = eat_ident s in
        e := { e = Emember (!e, f); epos = p }
    | Lexer.Tpunct "->" ->
        advance s;
        let f = eat_ident s in
        e := { e = Earrow (!e, f); epos = p }
    | Lexer.Tpunct "++" ->
        advance s;
        e := { e = Eincdec (`Post, `Inc, !e); epos = p }
    | Lexer.Tpunct "--" ->
        advance s;
        e := { e = Eincdec (`Post, `Dec, !e); epos = p }
    | _ -> continue_ := false
  done;
  !e

and parse_primary (s : stream) : expr =
  let p = pos_of s in
  match peek s with
  | Lexer.Tint v ->
      advance s;
      { e = Eint v; epos = p }
  | Lexer.Tfloat v ->
      advance s;
      { e = Efloat v; epos = p }
  | Lexer.Tstr v ->
      advance s;
      { e = Estr v; epos = p }
  | Lexer.Tkw "NULL" ->
      advance s;
      { e = Ecast (Ctypes.Cptr Ctypes.Cvoid, { e = Eint 0; epos = p }); epos = p }
  | Lexer.Tident id -> (
      advance s;
      match peek s with
      | Lexer.Tpunct "(" ->
          advance s;
          let args = ref [] in
          if not (try_punct s ")") then begin
            args := [ parse_expr s ];
            while try_punct s "," do
              args := parse_expr s :: !args
            done;
            eat_punct s ")"
          end;
          { e = Ecall (id, List.rev !args); epos = p }
      | _ -> { e = Eident id; epos = p })
  | Lexer.Tpunct "(" ->
      advance s;
      let e = parse_expr s in
      eat_punct s ")";
      e
  | _ -> fail s "expected expression"

(* --- statements ------------------------------------------------------ *)

let rec parse_stmt (s : stream) : stmt =
  let p = pos_of s in
  match peek s with
  | Lexer.Tpunct "{" -> { s = Sblock (parse_block s); spos = p }
  | Lexer.Tkw "if" ->
      advance s;
      eat_punct s "(";
      let c = parse_expr s in
      eat_punct s ")";
      let thn = parse_body s in
      let els =
        if try_kw s "else" then parse_body s
        else []
      in
      { s = Sif (c, thn, els); spos = p }
  | Lexer.Tkw "while" ->
      advance s;
      eat_punct s "(";
      let c = parse_expr s in
      eat_punct s ")";
      let body = parse_body s in
      { s = Swhile (c, body); spos = p }
  | Lexer.Tkw "do" ->
      advance s;
      let body = parse_body s in
      if not (try_kw s "while") then fail s "expected 'while' after do-body";
      eat_punct s "(";
      let c = parse_expr s in
      eat_punct s ")";
      eat_punct s ";";
      { s = Sdo (body, c); spos = p }
  | Lexer.Tkw "for" ->
      advance s;
      eat_punct s "(";
      let init =
        if try_punct s ";" then None
        else if is_type_start s then begin
          let st = parse_decl_stmt s in
          Some st
        end
        else begin
          let e = parse_expr s in
          eat_punct s ";";
          Some { s = Sexpr e; spos = p }
        end
      in
      let cond = if try_punct s ";" then None
        else begin
          let e = parse_expr s in
          eat_punct s ";";
          Some e
        end
      in
      let step =
        if try_punct s ")" then None
        else begin
          let e = parse_expr s in
          eat_punct s ")";
          Some e
        end
      in
      let body = parse_body s in
      { s = Sfor (init, cond, step, body); spos = p }
  | Lexer.Tkw "return" ->
      advance s;
      if try_punct s ";" then { s = Sreturn None; spos = p }
      else begin
        let e = parse_expr s in
        eat_punct s ";";
        { s = Sreturn (Some e); spos = p }
      end
  | Lexer.Tkw "break" ->
      advance s;
      eat_punct s ";";
      { s = Sbreak; spos = p }
  | Lexer.Tkw "continue" ->
      advance s;
      eat_punct s ";";
      { s = Scontinue; spos = p }
  | _ when is_type_start s -> parse_decl_stmt s
  | _ ->
      let e = parse_expr s in
      eat_punct s ";";
      { s = Sexpr e; spos = p }

and parse_decl_stmt (s : stream) : stmt =
  let p = pos_of s in
  let base = parse_base_type s in
  let one () =
    let ty = parse_stars s base in
    let name = eat_ident s in
    let ty = parse_array_suffix s ty in
    let init =
      if try_punct s "=" then Some (parse_init s) else None
    in
    { s = Sdecl (ty, name, init); spos = p }
  in
  let first = one () in
  let rest = ref [] in
  while try_punct s "," do
    rest := one () :: !rest
  done;
  eat_punct s ";";
  if !rest = [] then first
  else { s = Sseq (first :: List.rev !rest); spos = p }

and parse_init (s : stream) : init =
  if try_punct s "{" then begin
    let items = ref [] in
    if not (try_punct s "}") then begin
      items := [ parse_init s ];
      while try_punct s "," do
        if peek s = Lexer.Tpunct "}" then () else items := parse_init s :: !items
      done;
      eat_punct s "}"
    end;
    Ilist (List.rev !items)
  end
  else Iexpr (parse_expr s)

and parse_body (s : stream) : stmt list =
  match peek s with
  | Lexer.Tpunct "{" -> parse_block s
  | _ -> [ parse_stmt s ]

and parse_block (s : stream) : stmt list =
  eat_punct s "{";
  let stmts = ref [] in
  while peek s <> Lexer.Tpunct "}" do
    stmts := parse_stmt s :: !stmts
  done;
  eat_punct s "}";
  List.rev !stmts

(* --- top-level declarations ------------------------------------------ *)

let parse_params (s : stream) : param list =
  eat_punct s "(";
  if try_punct s ")" then []
  else if peek s = Lexer.Tkw "void" && peek2 s = Lexer.Tpunct ")" then begin
    advance s;
    advance s;
    []
  end
  else begin
    let one () =
      let base = parse_base_type s in
      let ty = parse_stars s base in
      let name = eat_ident s in
      let ty = Ctypes.decay (parse_array_suffix s ty) in
      { p_name = name; p_ty = ty }
    in
    let ps = ref [ one () ] in
    while try_punct s "," do
      ps := one () :: !ps
    done;
    eat_punct s ")";
    List.rev !ps
  end

let parse_program (src : string) : program =
  let s = { toks = Array.of_list (Lexer.tokenize src); k = 0 } in
  let decls = ref [] in
  while peek s <> Lexer.Teof do
    let p = pos_of s in
    let is_extern = try_kw s "extern" in
    ignore (try_kw s "static");
    if (not is_extern) && peek s = Lexer.Tkw "struct"
       && (match peek2 s with Lexer.Tident _ -> true | _ -> false)
       && (match
             (if s.k + 2 < Array.length s.toks then s.toks.(s.k + 2).Lexer.tok
              else Lexer.Teof)
           with
          | Lexer.Tpunct "{" -> true
          | _ -> false)
    then begin
      (* struct definition *)
      advance s;
      let name = eat_ident s in
      eat_punct s "{";
      let fields = ref [] in
      while peek s <> Lexer.Tpunct "}" do
        let base = parse_base_type s in
        let field () =
          let ty = parse_stars s base in
          let fname = eat_ident s in
          let ty = parse_array_suffix s ty in
          fields := (fname, ty) :: !fields
        in
        field ();
        while try_punct s "," do
          field ()
        done;
        eat_punct s ";"
      done;
      eat_punct s "}";
      eat_punct s ";";
      decls := Dstruct (name, List.rev !fields, p) :: !decls
    end
    else begin
      let base = parse_base_type s in
      if peek s = Lexer.Tpunct ";" then begin
        (* bare "struct S;" forward declaration: ignore *)
        advance s
      end
      else begin
        let ty = parse_stars s base in
        let name = eat_ident s in
        if peek s = Lexer.Tpunct "(" then begin
          let params = parse_params s in
          if try_punct s ";" then
            decls :=
              Dproto (name, ty, List.map (fun q -> q.p_ty) params, p)
              :: !decls
          else begin
            let body = parse_block s in
            decls :=
              Dfunc
                { f_name = name; f_ret = ty; f_params = params; f_body = body; f_pos = p }
              :: !decls
          end
        end
        else begin
          (* global variable(s) *)
          let one ty name =
            let ty = parse_array_suffix s ty in
            let init = if try_punct s "=" then Some (parse_init s) else None in
            decls :=
              Dglobal
                { g_name = name; g_ty = ty; g_init = init; g_extern = is_extern; g_pos = p }
              :: !decls
          in
          one ty name;
          while try_punct s "," do
            let ty = parse_stars s base in
            let name = eat_ident s in
            one ty name
          done;
          eat_punct s ";"
        end
      end
    end
  done;
  List.rev !decls
