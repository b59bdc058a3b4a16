(** Parser for the textual MIR produced by {!Printer}.

    Hand-written, line-oriented, two passes per function: the first pass
    records the type of every SSA definition (types are derivable from the
    instruction syntax alone), the second builds the instructions with all
    variable references resolved.  This allows uses that lexically precede
    their definitions (e.g. phi arguments of loop headers). *)

exception Parse_error of int * string
(** [(line_number, message)] *)

let fail line msg = raise (Parse_error (line, msg))

(* ------------------------------------------------------------------ *)
(* Character cursor over one line                                      *)
(* ------------------------------------------------------------------ *)

type cursor = { s : string; mutable pos : int; line : int }

let cur s line = { s; pos = 0; line }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s && (c.s.[c.pos] = ' ' || c.s.[c.pos] = '\t')
  do
    c.pos <- c.pos + 1
  done

let at_end c =
  skip_ws c;
  c.pos >= String.length c.s

let expect_char c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c.line (Printf.sprintf "expected '%c' at col %d" ch c.pos)

let try_char c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch ->
      c.pos <- c.pos + 1;
      true
  | _ -> false

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '.'

let ident c =
  skip_ws c;
  let start = c.pos in
  while c.pos < String.length c.s && is_ident_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c.line ("expected identifier at col " ^ string_of_int start);
  String.sub c.s start (c.pos - start)

let integer c =
  skip_ws c;
  let start = c.pos in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  while
    c.pos < String.length c.s && c.s.[c.pos] >= '0' && c.s.[c.pos] <= '9'
  do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c.line "expected integer";
  int_of_string (String.sub c.s start (c.pos - start))

let word c =
  (* like ident, for keywords *)
  ident c

let parse_ty c =
  let w = ident c in
  match Ty.of_string w with
  | Some ty -> ty
  | None -> fail c.line ("unknown type " ^ w)

(* ------------------------------------------------------------------ *)
(* Variables and values                                               *)
(* ------------------------------------------------------------------ *)

(* "%name.id" -> (name, id) *)
let split_var line tok =
  match String.rindex_opt tok '.' with
  | None -> fail line ("malformed variable %" ^ tok)
  | Some i -> (
      let name = String.sub tok 0 i in
      let ids = String.sub tok (i + 1) (String.length tok - i - 1) in
      match int_of_string_opt ids with
      | Some id -> (name, id)
      | None -> fail line ("malformed variable id in %" ^ tok))

type deftypes = (int, Ty.t) Hashtbl.t

let parse_var (defs : deftypes) c : Value.var =
  expect_char c '%';
  let tok = ident c in
  let name, id = split_var c.line tok in
  match Hashtbl.find_opt defs id with
  | Some ty -> { Value.vid = id; vname = name; vty = ty }
  | None -> fail c.line (Printf.sprintf "use of undefined variable %%%s" tok)

let parse_value (defs : deftypes) c : Value.t =
  skip_ws c;
  match peek c with
  | Some '%' -> Var (parse_var defs c)
  | Some '@' ->
      c.pos <- c.pos + 1;
      Glob (ident c)
  | Some '&' ->
      c.pos <- c.pos + 1;
      Fn (ident c)
  | Some ('-' | '0' .. '9') ->
      let k = integer c in
      expect_char c ':';
      let ty = parse_ty c in
      Value.Int (ty, k)
  | Some _ ->
      let w = ident c in
      if w = "null" then Value.null
      else if w = "fl" then begin
        expect_char c '(';
        (* consume until ')' *)
        let start = c.pos in
        while c.pos < String.length c.s && c.s.[c.pos] <> ')' do
          c.pos <- c.pos + 1
        done;
        let lit = String.sub c.s start (c.pos - start) in
        expect_char c ')';
        match float_of_string_opt (String.trim lit) with
        | Some f -> Value.Flt f
        | None -> fail c.line ("bad float literal " ^ lit)
      end
      else fail c.line ("unexpected token " ^ w)
  | None -> fail c.line "unexpected end of line, expected value"

(* ------------------------------------------------------------------ *)
(* Keyword tables                                                     *)
(* ------------------------------------------------------------------ *)

let binop_of_string = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "sdiv" -> Some Instr.SDiv
  | "udiv" -> Some Instr.UDiv
  | "srem" -> Some Instr.SRem
  | "urem" -> Some Instr.URem
  | "shl" -> Some Instr.Shl
  | "lshr" -> Some Instr.LShr
  | "ashr" -> Some Instr.AShr
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | _ -> None

let fbinop_of_string = function
  | "fadd" -> Some Instr.FAdd
  | "fsub" -> Some Instr.FSub
  | "fmul" -> Some Instr.FMul
  | "fdiv" -> Some Instr.FDiv
  | _ -> None

let icmp_of_string = function
  | "eq" -> Some Instr.Eq
  | "ne" -> Some Instr.Ne
  | "slt" -> Some Instr.Slt
  | "sle" -> Some Instr.Sle
  | "sgt" -> Some Instr.Sgt
  | "sge" -> Some Instr.Sge
  | "ult" -> Some Instr.Ult
  | "ule" -> Some Instr.Ule
  | "ugt" -> Some Instr.Ugt
  | "uge" -> Some Instr.Uge
  | _ -> None

let fcmp_of_string = function
  | "feq" -> Some Instr.FEq
  | "fne" -> Some Instr.FNe
  | "flt" -> Some Instr.FLt
  | "fle" -> Some Instr.FLe
  | "fgt" -> Some Instr.FGt
  | "fge" -> Some Instr.FGe
  | _ -> None

let cast_of_string = function
  | "zext" -> Some Instr.Zext
  | "sext" -> Some Instr.Sext
  | "trunc" -> Some Instr.Trunc
  | "bitcast" -> Some Instr.Bitcast
  | "inttoptr" -> Some Instr.IntToPtr
  | "ptrtoint" -> Some Instr.PtrToInt
  | "sitofp" -> Some Instr.SiToFp
  | "fptosi" -> Some Instr.FpToSi
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pass 1: result type of a definition line                            *)
(* ------------------------------------------------------------------ *)

(* [line] has the shape "%x.N = <rest>"; return the type of %x.N. *)
let def_type lineno (rest : string) : Ty.t =
  let c = cur rest lineno in
  let kw = word c in
  match kw with
  | "phi" | "load" | "select" -> parse_ty c
  | "icmp" | "fcmp" -> Ty.I1
  | "gep" | "alloca" -> Ty.Ptr
  | "call" ->
      (* type annotation after the closing paren: ": ty" at end *)
      let s = rest in
      let rec find_colon i depth =
        if i >= String.length s then fail lineno "call def missing ': ty'"
        else
          match s.[i] with
          | '(' -> find_colon (i + 1) (depth + 1)
          | ')' -> find_colon (i + 1) (depth - 1)
          | ':' when depth = 0 -> i
          | _ -> find_colon (i + 1) depth
      in
      let i = find_colon 4 0 in
      let c2 = cur (String.sub s (i + 1) (String.length s - i - 1)) lineno in
      parse_ty c2
  | _ -> (
      match (binop_of_string kw, fbinop_of_string kw, cast_of_string kw) with
      | Some _, _, _ ->
          parse_ty (cur rest lineno |> fun c ->
                    let _ = word c in
                    c)
      | _, Some _, _ -> Ty.F64
      | _, _, Some _ ->
          (* "<cast> <from-ty> <v> to <to-ty>": find last " to " *)
          let s = rest in
          let rec find_to i best =
            if i + 4 > String.length s then best
            else if String.sub s i 4 = " to " then find_to (i + 1) (Some i)
            else find_to (i + 1) best
          in
          (match find_to 0 None with
          | None -> fail lineno "cast missing 'to'"
          | Some i ->
              let c2 =
                cur (String.sub s (i + 4) (String.length s - i - 4)) lineno
              in
              parse_ty c2)
      | None, None, None -> fail lineno ("unknown instruction " ^ kw))

(* ------------------------------------------------------------------ *)
(* Pass 2: full instruction parsing                                    *)
(* ------------------------------------------------------------------ *)

let parse_gep_indices defs c =
  let idxs = ref [] in
  while try_char c '[' do
    let stride = integer c in
    let x = word c in
    if x <> "x" then fail c.line "expected 'x' in gep index";
    let idx = parse_value defs c in
    expect_char c ']';
    idxs := { Instr.stride; idx } :: !idxs
  done;
  List.rev !idxs

let parse_call_tail defs c =
  expect_char c '@';
  let callee = ident c in
  expect_char c '(';
  let args = ref [] in
  if not (try_char c ')') then begin
    args := [ parse_value defs c ];
    while try_char c ',' do
      args := parse_value defs c :: !args
    done;
    expect_char c ')'
  end;
  (callee, List.rev !args)

(* Parse the RHS of a definition or a void instruction. [dst] is the
   already-resolved destination variable, if any. *)
let parse_op defs lineno (dst : Value.var option) (rest : string) : Instr.t =
  let c = cur rest lineno in
  let kw = word c in
  let op : Instr.op =
    match kw with
    | "load" ->
        let ty = parse_ty c in
        let addr = parse_value defs c in
        Load (ty, addr)
    | "store" ->
        let ty = parse_ty c in
        let v = parse_value defs c in
        expect_char c ',';
        let addr = parse_value defs c in
        Store (ty, v, addr)
    | "icmp" ->
        let opname = word c in
        let op =
          match icmp_of_string opname with
          | Some o -> o
          | None -> fail lineno ("bad icmp op " ^ opname)
        in
        let ty = parse_ty c in
        let a = parse_value defs c in
        expect_char c ',';
        let b = parse_value defs c in
        Icmp (op, ty, a, b)
    | "fcmp" ->
        let opname = word c in
        let op =
          match fcmp_of_string opname with
          | Some o -> o
          | None -> fail lineno ("bad fcmp op " ^ opname)
        in
        let a = parse_value defs c in
        expect_char c ',';
        let b = parse_value defs c in
        Fcmp (op, a, b)
    | "gep" ->
        let base = parse_value defs c in
        let idxs = parse_gep_indices defs c in
        Gep (base, idxs)
    | "select" ->
        let ty = parse_ty c in
        let cond = parse_value defs c in
        expect_char c ',';
        let a = parse_value defs c in
        expect_char c ',';
        let b = parse_value defs c in
        Select (ty, cond, a, b)
    | "call" ->
        let callee, args = parse_call_tail defs c in
        (* optional ": ty" annotation; type already captured via dst *)
        if try_char c ':' then ignore (parse_ty c);
        Call (callee, args)
    | "alloca" ->
        let size = integer c in
        let a = word c in
        if a <> "align" then fail lineno "expected 'align'";
        let align = integer c in
        Alloca { size; align }
    | "memcpy" ->
        let d = parse_value defs c in
        expect_char c ',';
        let s = parse_value defs c in
        expect_char c ',';
        let n = parse_value defs c in
        Memcpy (d, s, n)
    | "memset" ->
        let d = parse_value defs c in
        expect_char c ',';
        let b = parse_value defs c in
        expect_char c ',';
        let n = parse_value defs c in
        Memset (d, b, n)
    | _ -> (
        match
          (binop_of_string kw, fbinop_of_string kw, cast_of_string kw)
        with
        | Some op, _, _ ->
            let ty = parse_ty c in
            let a = parse_value defs c in
            expect_char c ',';
            let b = parse_value defs c in
            Bin (op, ty, a, b)
        | _, Some op, _ ->
            let a = parse_value defs c in
            expect_char c ',';
            let b = parse_value defs c in
            FBin (op, a, b)
        | _, _, Some cop ->
            let from_ty = parse_ty c in
            let v = parse_value defs c in
            let t = word c in
            if t <> "to" then fail lineno "expected 'to' in cast";
            let to_ty = parse_ty c in
            Cast (cop, from_ty, v, to_ty)
        | None, None, None -> fail lineno ("unknown instruction " ^ kw))
  in
  { Instr.dst; op }

let parse_phi defs lineno (dst : Value.var) (rest : string) : Instr.phi =
  let c = cur rest lineno in
  let kw = word c in
  if kw <> "phi" then fail lineno "expected phi";
  ignore (parse_ty c);
  let incoming = ref [] in
  while try_char c '[' do
    let lbl = ident c in
    let v = parse_value defs c in
    expect_char c ']';
    incoming := (lbl, v) :: !incoming
  done;
  { Instr.pdst = dst; incoming = List.rev !incoming }

(* ------------------------------------------------------------------ *)
(* Module-level parsing                                                *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  match String.index_opt line ';' with
  | Some i -> String.sub line 0 i
  | None -> line

let unescape_bytes lineno s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (if s.[!i] = '\\' then begin
       if !i + 1 >= n then fail lineno "dangling backslash";
       match s.[!i + 1] with
       | '\\' ->
           Buffer.add_char buf '\\';
           i := !i + 2
       | '"' ->
           Buffer.add_char buf '"';
           i := !i + 2
       | 'x' ->
           if !i + 3 >= n then fail lineno "bad \\x escape";
           let hex = String.sub s (!i + 2) 2 in
           (match int_of_string_opt ("0x" ^ hex) with
           | Some code ->
               Buffer.add_char buf (Char.chr code);
               i := !i + 4
           | None -> fail lineno "bad \\x escape")
       | c -> fail lineno (Printf.sprintf "bad escape \\%c" c)
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

(* Parse a signature "@name(%a.0 : i64, ...) -> ty" starting after
   "func "/"extern func ". Returns (name, params, ret_ty). *)
let parse_signature lineno (s : string) =
  let c = cur s lineno in
  expect_char c '@';
  let name = ident c in
  expect_char c '(';
  let params = ref [] in
  if not (try_char c ')') then begin
    let parse_param () =
      expect_char c '%';
      let tok = ident c in
      let vname, vid = split_var lineno tok in
      expect_char c ':';
      let ty = parse_ty c in
      { Value.vid; vname; vty = ty }
    in
    params := [ parse_param () ];
    while try_char c ',' do
      params := parse_param () :: !params
    done;
    expect_char c ')'
  end;
  expect_char c '-';
  expect_char c '>';
  let rw = word c in
  let ret_ty =
    if rw = "void" then None
    else
      match Ty.of_string rw with
      | Some ty -> Some ty
      | None -> fail lineno ("bad return type " ^ rw)
  in
  (name, List.rev !params, ret_ty)

type raw_line = { lno : int; text : string }

(* Split function body lines into blocks and parse with two passes. *)
let parse_func_body ~name ~params ~ret_ty (lines : raw_line list) : Func.t =
  let defs : deftypes = Hashtbl.create 64 in
  List.iter
    (fun (p : Value.var) -> Hashtbl.replace defs p.vid p.vty)
    params;
  (* pass 1: collect def types *)
  List.iter
    (fun { lno; text } ->
      let t = String.trim text in
      if String.length t > 0 && t.[0] = '%' then
        match String.index_opt t '=' with
        | Some i ->
            let lhs = String.trim (String.sub t 0 i) in
            let rhs =
              String.trim (String.sub t (i + 1) (String.length t - i - 1))
            in
            let tok = String.sub lhs 1 (String.length lhs - 1) in
            let _, id = split_var lno tok in
            Hashtbl.replace defs id (def_type lno rhs)
        | None -> fail lno "expected '=' after variable")
    lines;
  (* pass 2: build blocks *)
  let blocks = ref [] in
  let cur_label = ref None in
  let cur_phis = ref [] in
  let cur_body = ref [] in
  let finish_block term =
    match !cur_label with
    | None -> fail 0 "terminator outside block"
    | Some label ->
        blocks :=
          Block.mk ~phis:(List.rev !cur_phis) ~body:(List.rev !cur_body)
            ~term label
          :: !blocks;
        cur_label := None;
        cur_phis := [];
        cur_body := []
  in
  List.iter
    (fun { lno; text } ->
      let t = String.trim text in
      if t = "" then ()
      else if String.length t > 1 && t.[String.length t - 1] = ':' then begin
        (match !cur_label with
        | Some l -> fail lno ("block " ^ l ^ " not terminated")
        | None -> ());
        cur_label := Some (String.sub t 0 (String.length t - 1));
        cur_phis := [];
        cur_body := []
      end
      else if !cur_label = None then fail lno "instruction outside block"
      else if String.length t > 0 && t.[0] = '%' then begin
        let i = String.index t '=' in
        let lhs = String.trim (String.sub t 0 i) in
        let rhs =
          String.trim (String.sub t (i + 1) (String.length t - i - 1))
        in
        let tok = String.sub lhs 1 (String.length lhs - 1) in
        let vname, vid = split_var lno tok in
        let vty = Hashtbl.find defs vid in
        let dst = { Value.vid; vname; vty } in
        if String.length rhs >= 3 && String.sub rhs 0 3 = "phi" then
          cur_phis := parse_phi defs lno dst rhs :: !cur_phis
        else cur_body := parse_op defs lno (Some dst) rhs :: !cur_body
      end
      else begin
        (* void instruction or terminator *)
        let c = cur t lno in
        let kw = word c in
        match kw with
        | "ret" ->
            if at_end c then finish_block (Instr.Ret None)
            else finish_block (Instr.Ret (Some (parse_value defs c)))
        | "br" ->
            let l = ident c in
            finish_block (Instr.Br l)
        | "cbr" ->
            let cond = parse_value defs c in
            expect_char c ',';
            let l1 = ident c in
            expect_char c ',';
            let l2 = ident c in
            finish_block (Instr.Cbr (cond, l1, l2))
        | "unreachable" -> finish_block Instr.Unreachable
        | _ -> cur_body := parse_op defs lno None t :: !cur_body
      end)
    lines;
  (match !cur_label with
  | Some l -> fail 0 ("block " ^ l ^ " not terminated at end of function")
  | None -> ());
  Func.mk ~name ~params ~ret_ty (List.rev !blocks)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let parse_module (text : string) : Irmod.t =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> { lno = i + 1; text = strip_comment l })
  in
  let mname = ref "m" in
  let m = Irmod.mk "m" in
  let rec go lines =
    match lines with
    | [] -> ()
    | { lno; text } :: rest ->
        let t = String.trim text in
        if t = "" then go rest
        else if starts_with "module" t then begin
          (match String.index_opt t '"' with
          | Some i ->
              let j = String.rindex t '"' in
              mname := String.sub t (i + 1) (j - i - 1)
          | None -> fail lno "module line missing name");
          go rest
        end
        else if starts_with "extern global" t then begin
          let c =
            cur (String.sub t 13 (String.length t - 13)) lno
          in
          expect_char c '@';
          let name = ident c in
          expect_char c ':';
          let size = integer c in
          let a = word c in
          if a <> "align" then fail lno "expected align";
          let align = integer c in
          let size_known = not (at_end c && false) in
          (* optional "nosize" *)
          let size_known =
            if at_end c then size_known
            else
              let w = word c in
              if w = "nosize" then false
              else fail lno ("unexpected token " ^ w)
          in
          Irmod.add_global m
            (Irmod.mk_global ~align ~extern:true ~size_known ~name ~size []);
          go rest
        end
        else if starts_with "global" t then begin
          let c = cur (String.sub t 6 (String.length t - 6)) lno in
          expect_char c '@';
          let name = ident c in
          expect_char c ':';
          let size = integer c in
          let a = word c in
          if a <> "align" then fail lno "expected align";
          let align = integer c in
          expect_char c '{';
          (* read field lines until "}" *)
          let rec read_fields lines acc =
            match lines with
            | [] -> fail lno "unterminated global"
            | { lno = l2; text } :: rest ->
                let t2 = String.trim text in
                if t2 = "}" then (List.rev acc, rest)
                else if t2 = "" then read_fields rest acc
                else if starts_with "bytes" t2 then begin
                  let i = String.index t2 '"' in
                  let j = String.rindex t2 '"' in
                  if j <= i then fail l2 "bad bytes field";
                  let raw = String.sub t2 (i + 1) (j - i - 1) in
                  read_fields rest
                    (Irmod.GBytes (unescape_bytes l2 raw) :: acc)
                end
                else if starts_with "ptr" t2 then begin
                  let c2 = cur (String.sub t2 3 (String.length t2 - 3)) l2 in
                  expect_char c2 '@';
                  read_fields rest (Irmod.GPtr (ident c2) :: acc)
                end
                else if starts_with "zero" t2 then begin
                  let c2 = cur (String.sub t2 4 (String.length t2 - 4)) l2 in
                  read_fields rest (Irmod.GZero (integer c2) :: acc)
                end
                else fail l2 ("bad global field: " ^ t2)
          in
          let fields, rest' = read_fields rest [] in
          Irmod.add_global m
            (Irmod.mk_global ~align ~name ~size fields);
          go rest'
        end
        else if starts_with "extern func" t then begin
          let sig_str = String.sub t 11 (String.length t - 11) in
          let name, params, ret_ty = parse_signature lno sig_str in
          Irmod.add_func m
            (Func.mk ~is_external:true ~name ~params ~ret_ty []);
          go rest
        end
        else if starts_with "func" t then begin
          (* signature up to "{" *)
          let brace =
            match String.rindex_opt t '{' with
            | Some i -> i
            | None -> fail lno "func line missing '{'"
          in
          let sig_str = String.sub t 4 (brace - 4) in
          let name, params, ret_ty = parse_signature lno sig_str in
          (* collect body lines until a line that is exactly "}" *)
          let rec collect lines acc =
            match lines with
            | [] -> fail lno ("unterminated function " ^ name)
            | ({ text; _ } as rl) :: rest ->
                if String.trim text = "}" then (List.rev acc, rest)
                else collect rest (rl :: acc)
          in
          let body_lines, rest' = collect rest [] in
          Irmod.add_func m (parse_func_body ~name ~params ~ret_ty body_lines);
          go rest'
        end
        else fail lno ("unexpected top-level line: " ^ t)
  in
  go lines;
  { m with mname = !mname }

let parse_module_res text =
  match parse_module text with
  | m -> Ok m
  | exception Parse_error (line, msg) ->
      Error (Printf.sprintf "line %d: %s" line msg)
