(** Instruction combining: constant folding and algebraic simplification.

    A small, always-safe subset of LLVM's InstCombine:
    - folds constant operands through arithmetic, comparisons, casts,
      selects, and geps;
    - algebraic identities (x+0, x*1, x*0, x-x, x&0, x|0, shifts by 0);
    - strength reduction (multiply by a power of two becomes a shift);
    - collapses single-incoming and all-same phis, selects with constant
      or equal arms, and gep chains with constant indices;
    - folds [gep p []] and zero-index geps to the base pointer — the
      appendix-B effect that erases intra-object overflows at IR level. *)

open Mi_mir

let as_int (v : Value.t) = match v with Value.Int (_, k) -> Some k | _ -> None

let run_func (f : Func.t) : bool =
  let changed = ref false in
  let subst : Value.t Value.VTbl.t = Value.VTbl.create 16 in
  let replace (d : Value.var option) (v : Value.t) =
    match d with
    | Some d ->
        Value.VTbl.replace subst d v;
        changed := true;
        true
    | None -> false
  in
  (* one forward pass per block; iterate at the pass-manager level *)
  let simplify_instr (i : Instr.t) : Instr.t option =
    (* returns None if the instruction should be deleted (its result was
       substituted); Some i' to keep (possibly rewritten) *)
    match i.op with
    | Bin (op, ty, a, b) -> (
        match (as_int a, as_int b) with
        | Some x, Some y -> (
            match Eval.binop op ty x y with
            | v -> if replace i.dst (Value.Int (ty, v)) then None else Some i
            | exception Eval.Div_by_zero -> Some i)
        | _, Some 0 when op = Add || op = Sub || op = Or || op = Xor ->
            if replace i.dst a then None else Some i
        | Some 0, _ when op = Add || op = Or || op = Xor ->
            if replace i.dst b then None else Some i
        | _, Some 0 when op = Shl || op = LShr || op = AShr ->
            if replace i.dst a then None else Some i
        | _, Some 1 when op = Mul || op = SDiv || op = UDiv ->
            if replace i.dst a then None else Some i
        | Some 1, _ when op = Mul ->
            if replace i.dst b then None else Some i
        | _, Some 0 when op = Mul || op = And ->
            if replace i.dst (Value.Int (ty, 0)) then None else Some i
        | Some 0, _ when op = Mul || op = And ->
            if replace i.dst (Value.Int (ty, 0)) then None else Some i
        | _, Some k when op = Mul && Mi_support.Util.is_pow2 k && k > 1 ->
            changed := true;
            Some
              {
                i with
                op =
                  Bin
                    ( Shl,
                      ty,
                      a,
                      Value.Int (ty, Mi_support.Util.log2_exact k) );
              }
        | _ ->
            if Value.equal a b && (op = Sub || op = Xor) then
              if replace i.dst (Value.Int (ty, 0)) then None else Some i
            else if Value.equal a b && (op = And || op = Or) then
              if replace i.dst a then None else Some i
            else Some i)
    | FBin (op, a, b) -> (
        match (a, b) with
        | Value.Flt x, Value.Flt y ->
            if replace i.dst (Value.Flt (Eval.fbinop op x y)) then None
            else Some i
        | _ -> Some i)
    | Icmp (op, ty, a, b) -> (
        match (as_int a, as_int b) with
        | Some x, Some y ->
            if replace i.dst (Value.Int (Ty.I1, Eval.icmp op ty x y)) then
              None
            else Some i
        | _ ->
            if Value.equal a b then
              let r =
                match op with
                | Eq | Sle | Sge | Ule | Uge -> 1
                | Ne | Slt | Sgt | Ult | Ugt -> 0
              in
              if replace i.dst (Value.Int (Ty.I1, r)) then None else Some i
            else Some i)
    | Fcmp (op, a, b) -> (
        match (a, b) with
        | Value.Flt x, Value.Flt y ->
            if replace i.dst (Value.Int (Ty.I1, Eval.fcmp op x y)) then None
            else Some i
        | _ -> Some i)
    | Cast (c, from_ty, v, to_ty) -> (
        if Ty.equal from_ty to_ty && (c = Instr.Bitcast) then
          if replace i.dst v then None else Some i
        else
          match (c, as_int v) with
          | (Zext | Sext | Trunc | IntToPtr | PtrToInt), Some k ->
              if
                replace i.dst (Value.Int (to_ty, Eval.cast_int c from_ty to_ty k))
              then None
              else Some i
          | SiToFp, Some k ->
              if replace i.dst (Value.Flt (float_of_int k)) then None
              else Some i
          | _ -> Some i)
    | Gep (base, idxs) -> (
        (* drop zero terms; fold entirely constant offsets into one term *)
        let idxs' =
          List.filter
            (fun gi ->
              not (gi.Instr.stride = 0 || as_int gi.Instr.idx = Some 0))
            idxs
        in
        let const_off =
          List.fold_left
            (fun acc gi ->
              match (acc, as_int gi.Instr.idx) with
              | Some a, Some k -> Some (a + (k * gi.Instr.stride))
              | _ -> None)
            (Some 0) idxs'
        in
        match const_off with
        | Some 0 ->
            (* gep with zero offset is the base pointer (appendix B) *)
            if replace i.dst base then None
            else if idxs' <> idxs then begin
              changed := true;
              Some { i with op = Gep (base, idxs') }
            end
            else Some i
        | Some k when List.length idxs' > 1 ->
            changed := true;
            Some
              {
                i with
                op = Gep (base, [ { stride = 1; idx = Value.Int (Ty.I64, k) } ]);
              }
        | _ ->
            if idxs' <> idxs then begin
              changed := true;
              Some { i with op = Gep (base, idxs') }
            end
            else Some i)
    | Select (_, c, a, b) -> (
        if Value.equal a b then if replace i.dst a then None else Some i
        else
          match as_int c with
          | Some 0 -> if replace i.dst b then None else Some i
          | Some _ -> if replace i.dst a then None else Some i
          | None -> Some i)
    | _ -> Some i
  in
  (* phi simplification: single incoming, or all incoming equal; [None]
     when the phi was substituted away *)
  let simplify_phi (p : Instr.phi) : Instr.phi option =
    let vals = List.map snd p.incoming in
    let all_same v = List.for_all (Value.equal v) vals in
    let dissolve v =
      Value.VTbl.replace subst p.pdst v;
      changed := true;
      None
    in
    match vals with
    | [ v ] when not (Value.equal v (Var p.pdst)) -> dissolve v
    | v :: _ when all_same v && not (Value.equal v (Var p.pdst)) -> dissolve v
    | _ -> (
        (* phi where all non-self incoming agree *)
        let non_self =
          List.filter (fun v -> not (Value.equal v (Var p.pdst))) vals
        in
        match non_self with
        | v :: rest when List.for_all (Value.equal v) rest -> dissolve v
        | _ -> Some p)
  in
  let keep = Mi_support.Util.filter_map_keep in
  ignore
    (Func.map_blocks f (fun (b : Block.t) ->
         let phis = keep simplify_phi b.phis in
         let body = keep simplify_instr b.body in
         if phis == b.phis && body == b.body then b else { b with phis; body })
      : bool);
  Putils.substitute f subst;
  !changed

let pass = Pass.func_pass "instcombine" run_func
