(** Shared utilities for the optimization passes. *)

open Mi_mir

(** Substitute variables in the whole function: [subst] maps a variable to
    its replacement value. *)
let substitute (f : Func.t) (subst : Value.t Value.VTbl.t) : unit =
  if Value.VTbl.length subst > 0 then begin
    (* resolve chains a -> b -> c *)
    let rec resolve v =
      match v with
      | Value.Var x -> (
          match Value.VTbl.find_opt subst x with
          | Some v' when not (Value.equal v v') -> resolve v'
          | _ -> v)
      | _ -> v
    in
    f.blocks <- List.map (Block.map_operands resolve) f.blocks
  end

(** Number of uses of each variable in the function (operands of
    instructions, phis, terminators). *)
let use_counts (f : Func.t) : int Value.VTbl.t =
  let t = Value.VTbl.create 64 in
  let note (v : Value.t) =
    match v with
    | Var x ->
        Value.VTbl.replace t x
          (1 + Option.value ~default:0 (Value.VTbl.find_opt t x))
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (p : Instr.phi) -> List.iter (fun (_, v) -> note v) p.incoming)
        b.phis;
      List.iter
        (fun (i : Instr.t) -> List.iter note (Instr.operands i))
        b.body;
      List.iter note (Instr.term_operands b.term))
    f.blocks;
  t

(** All variables used anywhere in the function. *)
let used_vars (f : Func.t) : unit Value.VTbl.t =
  let t = Value.VTbl.create 64 in
  let note (v : Value.t) =
    match v with Value.Var x -> Value.VTbl.replace t x () | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (p : Instr.phi) -> List.iter (fun (_, v) -> note v) p.incoming)
        b.phis;
      List.iter
        (fun (i : Instr.t) -> List.iter note (Instr.operands i))
        b.body;
      List.iter note (Instr.term_operands b.term))
    f.blocks;
  t

(** Remove blocks not reachable from entry, and drop phi incoming entries
    from removed blocks.  Returns true if anything changed. *)
let remove_unreachable (f : Func.t) : bool =
  let cfg = Mi_analysis.Cfg.build f in
  let keep = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Block.t) ->
      if cfg.Mi_analysis.Cfg.reachable.(i) then Hashtbl.add keep b.label ())
    cfg.Mi_analysis.Cfg.blocks;
  let changed = ref false in
  let blocks =
    List.filter
      (fun (b : Block.t) ->
        let k = Hashtbl.mem keep b.label in
        if not k then changed := true;
        k)
      f.blocks
  in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        let phis =
          List.map
            (fun (p : Instr.phi) ->
              let incoming =
                List.filter (fun (l, _) -> Hashtbl.mem keep l) p.incoming
              in
              if List.length incoming <> List.length p.incoming then
                changed := true;
              { p with incoming })
            b.phis
        in
        { b with phis })
      blocks
  in
  if !changed then f.blocks <- blocks;
  !changed

(** Structural keys of pure instructions, for GVN's hash table (Click's
    hash-based value numbering).  Two keys are equal exactly when the
    instructions compute the same value: the same op and types over the
    same operands, commutative operands in key order.  Floats compare
    by bits, except that every NaN of one sign shares a key; [-0.0] and
    [0.0] stay distinct. *)
type operand =
  | K_var of int  (** [vid] *)
  | K_int of Ty.t * int
  | K_flt of int64
  | K_glob of string
  | K_fn of string

type key =
  | K_bin of Instr.binop * Ty.t * operand * operand
  | K_fbin of Instr.fbinop * operand * operand
  | K_icmp of Instr.icmp * Ty.t * operand * operand
  | K_fcmp of Instr.fcmp * operand * operand
  | K_cast of Instr.cast * Ty.t * operand * Ty.t
  | K_gep of operand * (int * operand) list  (** (stride, index) *)
  | K_select of Ty.t * operand * operand * operand
  | K_call of string * operand list

let nan_key = Int64.bits_of_float Float.nan
let neg_nan_key = Int64.bits_of_float (-.Float.nan)

let operand_key : Value.t -> operand = function
  | Var x -> K_var x.vid
  | Int (ty, k) -> K_int (ty, k)
  | Flt f when Float.is_nan f ->
      K_flt (if Float.sign_bit f then neg_nan_key else nan_key)
  | Flt f -> K_flt (Int64.bits_of_float f)
  | Glob g -> K_glob g
  | Fn f -> K_fn f

(** The key of a pure instruction; [None] for anything GVN must not
    merge (memory access, allocation, impure calls). *)
let op_key (op : Instr.op) : key option =
  let k = operand_key in
  match op with
  | Bin (o, ty, a, b) -> (
      let a = k a and b = k b in
      match o with
      | Add | Mul | And | Or | Xor ->
          Some
            (if compare a b <= 0 then K_bin (o, ty, a, b)
             else K_bin (o, ty, b, a))
      | _ -> Some (K_bin (o, ty, a, b)))
  | FBin (o, a, b) -> Some (K_fbin (o, k a, k b))
  | Icmp (o, ty, a, b) -> Some (K_icmp (o, ty, k a, k b))
  | Fcmp (o, a, b) -> Some (K_fcmp (o, k a, k b))
  | Cast (c, t1, x, t2) -> Some (K_cast (c, t1, k x, t2))
  | Gep (base, idxs) ->
      Some
        (K_gep
           ( k base,
             List.map (fun gi -> (gi.Instr.stride, k gi.Instr.idx)) idxs ))
  | Select (ty, c, a, b) -> Some (K_select (ty, k c, k a, k b))
  | Call (callee, args) when Pass.Effects.is_pure_call callee ->
      Some (K_call (callee, List.map k args))
  | _ -> None
