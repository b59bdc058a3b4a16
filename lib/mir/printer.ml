(** Textual form of MIR modules.

    The syntax round-trips through {!Parser}: for every module [m],
    [Parser.parse_module (Printer.module_to_string m)] succeeds and is
    structurally equal to [m].  This is checked by property tests. *)

let bprintf = Printf.bprintf

let value_str (v : Value.t) =
  match v with
  | Var x -> Value.var_to_string x
  | Int (Ty.Ptr, 0) -> "null"
  | Int (ty, k) -> Printf.sprintf "%d:%s" k (Ty.to_string ty)
  | Flt f -> Printf.sprintf "fl(%h)" f
  | Glob g -> "@" ^ g
  | Fn f -> "&" ^ f

let dst_str (d : Value.var option) =
  match d with None -> "" | Some v -> Value.var_to_string v ^ " = "

let instr_to_buf buf (i : Instr.t) =
  let open Instr in
  bprintf buf "  %s" (dst_str i.dst);
  (match i.op with
  | Bin (op, ty, a, b) ->
      bprintf buf "%s %s %s, %s" (binop_to_string op) (Ty.to_string ty)
        (value_str a) (value_str b)
  | FBin (op, a, b) ->
      bprintf buf "%s %s, %s" (fbinop_to_string op) (value_str a)
        (value_str b)
  | Icmp (op, ty, a, b) ->
      bprintf buf "icmp %s %s %s, %s" (icmp_to_string op) (Ty.to_string ty)
        (value_str a) (value_str b)
  | Fcmp (op, a, b) ->
      bprintf buf "fcmp %s %s, %s" (fcmp_to_string op) (value_str a)
        (value_str b)
  | Cast (c, from_ty, v, to_ty) ->
      bprintf buf "%s %s %s to %s" (cast_to_string c) (Ty.to_string from_ty)
        (value_str v) (Ty.to_string to_ty)
  | Load (ty, addr) ->
      bprintf buf "load %s %s" (Ty.to_string ty) (value_str addr)
  | Store (ty, v, addr) ->
      bprintf buf "store %s %s, %s" (Ty.to_string ty) (value_str v)
        (value_str addr)
  | Gep (base, idxs) ->
      bprintf buf "gep %s" (value_str base);
      List.iter
        (fun { stride; idx } ->
          bprintf buf " [%d x %s]" stride (value_str idx))
        idxs
  | Select (ty, c, a, b) ->
      bprintf buf "select %s %s, %s, %s" (Ty.to_string ty) (value_str c)
        (value_str a) (value_str b)
  | Call (callee, args) ->
      bprintf buf "call @%s(%s)" callee
        (String.concat ", " (List.map value_str args));
      (match i.dst with
      | Some d -> bprintf buf " : %s" (Ty.to_string d.vty)
      | None -> ())
  | Alloca { size; align } -> bprintf buf "alloca %d align %d" size align
  | Memcpy (d, s, n) ->
      bprintf buf "memcpy %s, %s, %s" (value_str d) (value_str s)
        (value_str n)
  | Memset (d, c, n) ->
      bprintf buf "memset %s, %s, %s" (value_str d) (value_str c)
        (value_str n));
  Buffer.add_char buf '\n'

let phi_to_buf buf (p : Instr.phi) =
  bprintf buf "  %s = phi %s" (Value.var_to_string p.pdst)
    (Ty.to_string p.pdst.vty);
  List.iter
    (fun (lbl, v) -> bprintf buf " [%s %s]" lbl (value_str v))
    p.incoming;
  Buffer.add_char buf '\n'

let term_to_buf buf (t : Instr.term) =
  (match t with
  | Instr.Ret None -> Buffer.add_string buf "  ret"
  | Instr.Ret (Some v) -> bprintf buf "  ret %s" (value_str v)
  | Instr.Br l -> bprintf buf "  br %s" l
  | Instr.Cbr (c, l1, l2) -> bprintf buf "  cbr %s, %s, %s" (value_str c) l1 l2
  | Instr.Unreachable -> Buffer.add_string buf "  unreachable");
  Buffer.add_char buf '\n'

let block_to_buf buf (b : Block.t) =
  bprintf buf "%s:\n" b.label;
  List.iter (phi_to_buf buf) b.phis;
  List.iter (instr_to_buf buf) b.body;
  term_to_buf buf b.term

let func_to_buf buf (f : Func.t) =
  let params =
    String.concat ", "
      (List.map
         (fun (v : Value.var) ->
           Printf.sprintf "%s : %s" (Value.var_to_string v)
             (Ty.to_string v.vty))
         f.params)
  in
  let ret =
    match f.ret_ty with None -> "void" | Some ty -> Ty.to_string ty
  in
  if f.is_external then
    bprintf buf "extern func @%s(%s) -> %s\n" f.fname params ret
  else begin
    bprintf buf "func @%s(%s) -> %s {\n" f.fname params ret;
    List.iter (block_to_buf buf) f.blocks;
    Buffer.add_string buf "}\n"
  end

let escape_bytes s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c >= 32 && Char.code c < 127 -> Buffer.add_char buf c
      | c -> bprintf buf "\\x%02x" (Char.code c))
    s;
  Buffer.contents buf

let global_to_buf buf (g : Irmod.global) =
  if g.gextern then
    bprintf buf "extern global @%s : %d align %d%s\n" g.gname g.gsize g.galign
      (if g.gsize_known then "" else " nosize")
  else begin
    bprintf buf "global @%s : %d align %d {\n" g.gname g.gsize g.galign;
    List.iter
      (fun (f : Irmod.gfield) ->
        match f with
        | GBytes s -> bprintf buf "  bytes \"%s\"\n" (escape_bytes s)
        | GPtr name -> bprintf buf "  ptr @%s\n" name
        | GZero n -> bprintf buf "  zero %d\n" n)
      g.gfields;
    Buffer.add_string buf "}\n"
  end

let module_to_buf buf (m : Irmod.t) =
  bprintf buf "module \"%s\"\n\n" m.mname;
  List.iter (global_to_buf buf) m.globals;
  List.iter
    (fun f ->
      Buffer.add_char buf '\n';
      func_to_buf buf f)
    m.funcs

let instr_to_string i =
  let buf = Buffer.create 64 in
  instr_to_buf buf i;
  String.trim (Buffer.contents buf)

let func_to_string f =
  let buf = Buffer.create 1024 in
  func_to_buf buf f;
  Buffer.contents buf

let module_to_string m =
  let buf = Buffer.create 4096 in
  module_to_buf buf m;
  Buffer.contents buf
