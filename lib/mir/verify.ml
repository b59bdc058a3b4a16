(** MIR verifier.

    Checks structural well-formedness of functions and modules:
    - unique SSA definitions; all uses refer to a definition;
    - operand types match each instruction's expectations;
    - branch targets exist; the entry block has no phis;
    - each phi has exactly one incoming value per CFG predecessor;
    - externally declared functions have no body.

    Dominance of definitions over uses is checked by
    [Mi_analysis.Domcheck] (it needs the dominator tree, which lives in
    the analysis library to avoid a dependency cycle). *)

type error = { where : string; what : string }

let err where fmt = Printf.ksprintf (fun what -> { where; what }) fmt

let error_to_string e = Printf.sprintf "%s: %s" e.where e.what

let check_ty where expected (v : Value.t) errors =
  let actual = Value.ty_of v in
  if not (Ty.equal expected actual) then
    errors :=
      err where "operand %s has type %s, expected %s" (Value.to_string v)
        (Ty.to_string actual) (Ty.to_string expected)
      :: !errors

let check_int where (v : Value.t) errors =
  if not (Ty.is_int (Value.ty_of v)) then
    errors :=
      err where "operand %s must be an integer" (Value.to_string v)
      :: !errors

let verify_instr ~where (i : Instr.t) errors =
  let open Instr in
  (match i.op with
  | Bin (_, ty, a, b) ->
      if not (Ty.is_int ty) then
        errors := err where "binop on non-integer type" :: !errors;
      check_ty where ty a errors;
      check_ty where ty b errors
  | FBin (_, a, b) ->
      check_ty where Ty.F64 a errors;
      check_ty where Ty.F64 b errors
  | Icmp (_, ty, a, b) ->
      if not (Ty.is_int ty || Ty.is_ptr ty) then
        errors := err where "icmp on non-integer, non-pointer type" :: !errors;
      check_ty where ty a errors;
      check_ty where ty b errors
  | Fcmp (_, a, b) ->
      check_ty where Ty.F64 a errors;
      check_ty where Ty.F64 b errors
  | Cast (c, from_ty, v, to_ty) -> (
      check_ty where from_ty v errors;
      match c with
      | Zext | Sext ->
          if
            not
              (Ty.is_int from_ty && Ty.is_int to_ty
              && Ty.bits from_ty < Ty.bits to_ty)
          then errors := err where "bad zext/sext types" :: !errors
      | Trunc ->
          if
            not
              (Ty.is_int from_ty && Ty.is_int to_ty
              && Ty.bits from_ty > Ty.bits to_ty)
          then errors := err where "bad trunc types" :: !errors
      | Bitcast ->
          if Ty.size_of from_ty <> Ty.size_of to_ty then
            errors := err where "bitcast between different sizes" :: !errors
      | IntToPtr ->
          if not (Ty.is_int from_ty && Ty.is_ptr to_ty) then
            errors := err where "bad inttoptr types" :: !errors
      | PtrToInt ->
          if not (Ty.is_ptr from_ty && Ty.is_int to_ty) then
            errors := err where "bad ptrtoint types" :: !errors
      | SiToFp ->
          if not (Ty.is_int from_ty && Ty.is_float to_ty) then
            errors := err where "bad sitofp types" :: !errors
      | FpToSi ->
          if not (Ty.is_float from_ty && Ty.is_int to_ty) then
            errors := err where "bad fptosi types" :: !errors)
  | Load (_, addr) -> check_ty where Ty.Ptr addr errors
  | Store (ty, v, addr) ->
      check_ty where ty v errors;
      check_ty where Ty.Ptr addr errors
  | Gep (base, idxs) ->
      check_ty where Ty.Ptr base errors;
      List.iter (fun gi -> check_int where gi.idx errors) idxs
  | Select (ty, c, a, b) ->
      check_ty where Ty.I1 c errors;
      check_ty where ty a errors;
      check_ty where ty b errors
  | Call _ -> ()
  | Alloca { size; align } ->
      if size < 0 then errors := err where "negative alloca size" :: !errors;
      if not (Mi_support.Util.is_pow2 align) then
        errors := err where "alloca alignment not a power of two" :: !errors
  | Memcpy (d, s, n) ->
      check_ty where Ty.Ptr d errors;
      check_ty where Ty.Ptr s errors;
      check_int where n errors
  | Memset (d, b, n) ->
      check_ty where Ty.Ptr d errors;
      check_int where b errors;
      check_int where n errors);
  (* destination type must match the op's result type *)
  match (i.dst, Instr.result_ty i.op) with
  | Some d, Some ty ->
      if not (Ty.equal d.vty ty) then
        errors :=
          err where "destination %s : %s does not match result type %s"
            (Value.var_to_string d) (Ty.to_string d.vty) (Ty.to_string ty)
          :: !errors
  | Some _, None -> (
      match i.op with
      | Call _ -> () (* call result type is defined by the dst var *)
      | _ -> errors := err where "value-producing dst on void op" :: !errors)
  | None, Some _ -> () (* results may be discarded *)
  | None, None -> ()

let verify_func (f : Func.t) : error list =
  if f.is_external then
    if f.blocks <> [] then
      [ err f.fname "external function has a body" ]
    else []
  else if f.blocks = [] then [ err f.fname "defined function has no blocks" ]
  else begin
    let errors = ref [] in
    let defined : (int, string) Hashtbl.t = Hashtbl.create 64 in
    let define where (v : Value.var) =
      if Hashtbl.mem defined v.vid then
        errors :=
          err where "variable %s defined twice" (Value.var_to_string v)
          :: !errors
      else Hashtbl.add defined v.vid where
    in
    List.iter (define (f.fname ^ " params")) f.params;
    (* collect defs and block labels *)
    let labels = Hashtbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        if Hashtbl.mem labels b.label then
          errors := err f.fname "duplicate block label %s" b.label :: !errors;
        Hashtbl.add labels b.label ();
        let where = Printf.sprintf "%s:%s" f.fname b.label in
        List.iter (fun (p : Instr.phi) -> define where p.pdst) b.phis;
        List.iter
          (fun (i : Instr.t) ->
            match i.dst with Some d -> define where d | None -> ())
          b.body)
      f.blocks;
    (* entry block: no phis *)
    (match f.blocks with
    | b :: _ when b.phis <> [] ->
        errors := err f.fname "entry block has phis" :: !errors
    | _ -> ());
    (* compute predecessors for phi checking *)
    let preds : (string, string list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun succ ->
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt preds succ)
            in
            Hashtbl.replace preds succ (b.label :: cur))
          (Instr.successors b.term))
      f.blocks;
    let check_use where (v : Value.t) =
      match v with
      | Var x ->
          if not (Hashtbl.mem defined x.vid) then
            errors :=
              err where "use of undefined variable %s"
                (Value.var_to_string x)
              :: !errors
      | _ -> ()
    in
    List.iter
      (fun (b : Block.t) ->
        let where = Printf.sprintf "%s:%s" f.fname b.label in
        (* phis *)
        List.iter
          (fun (p : Instr.phi) ->
            let ps =
              Option.value ~default:[] (Hashtbl.find_opt preds b.label)
              |> List.sort_uniq compare
            in
            let ins = List.map fst p.incoming |> List.sort_uniq compare in
            if ps <> ins then
              errors :=
                err where "phi %s incoming {%s} but predecessors {%s}"
                  (Value.var_to_string p.pdst)
                  (String.concat "," ins) (String.concat "," ps)
                :: !errors;
            if
              List.length p.incoming
              <> List.length (List.sort_uniq compare (List.map fst p.incoming))
            then
              errors :=
                err where "phi %s has duplicate incoming labels"
                  (Value.var_to_string p.pdst)
                :: !errors;
            List.iter
              (fun (_, v) ->
                check_use where v;
                check_ty where p.pdst.vty v errors)
              p.incoming)
          b.phis;
        (* body *)
        List.iter
          (fun (i : Instr.t) ->
            List.iter (check_use where) (Instr.operands i);
            verify_instr ~where i errors)
          b.body;
        (* terminator *)
        List.iter (check_use where) (Instr.term_operands b.term);
        (match b.term with
        | Instr.Ret (Some v) -> (
            match f.ret_ty with
            | Some ty -> check_ty where ty v errors
            | None ->
                errors :=
                  err where "ret with value in void function" :: !errors)
        | Instr.Ret None ->
            if f.ret_ty <> None then
              errors :=
                err where "ret without value in non-void function" :: !errors
        | Instr.Cbr (c, _, _) -> check_ty where Ty.I1 c errors
        | _ -> ());
        List.iter
          (fun l ->
            if not (Hashtbl.mem labels l) then
              errors := err where "branch to unknown label %s" l :: !errors)
          (Instr.successors b.term))
      f.blocks;
    List.rev !errors
  end

let verify_module (m : Irmod.t) : error list =
  let errors = ref [] in
  (* unique names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (g : Irmod.global) ->
      if Hashtbl.mem seen ("g:" ^ g.gname) then
        errors := err m.mname "duplicate global @%s" g.gname :: !errors;
      Hashtbl.add seen ("g:" ^ g.gname) ();
      if (not g.gextern) && g.gfields = [] && g.gsize > 0 then
        errors :=
          err m.mname "global @%s defined with no initializer fields"
            g.gname
          :: !errors)
    m.globals;
  List.iter
    (fun (f : Func.t) ->
      if Hashtbl.mem seen ("f:" ^ f.fname) then
        errors := err m.mname "duplicate function @%s" f.fname :: !errors;
      Hashtbl.add seen ("f:" ^ f.fname) ();
      errors := List.rev_append (verify_func f) !errors)
    m.funcs;
  List.rev !errors

(** Raise [Failure] with a readable message if the module is ill-formed. *)
let assert_valid_module m =
  match verify_module m with
  | [] -> ()
  | errs ->
      failwith
        ("MIR verification failed:\n"
        ^ String.concat "\n" (List.map error_to_string errs))
