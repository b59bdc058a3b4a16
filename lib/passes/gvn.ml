(** Global value numbering (dominator-scoped CSE of pure instructions).

    Walks the dominator tree keeping a scoped table from the structural
    key of a pure instruction to the value that already computes it; a
    redundant instruction is deleted and its uses redirected.  Only
    side-effect-free, memory-independent instructions participate —
    including calls to [Pure] runtime intrinsics, so repeated Low-Fat base
    recomputations for the same pointer collapse into one. *)

open Mi_mir
module Cfg = Mi_analysis.Cfg
module Dom = Mi_analysis.Dom

let run_func (f : Func.t) : bool =
  let cfg = Cfg.build f in
  let dom = Dom.build cfg in
  let table : (Putils.key, Value.t) Hashtbl.t = Hashtbl.create 64 in
  let subst : Value.t Value.VTbl.t = Value.VTbl.create 16 in
  let changed = ref false in
  let resolve (v : Value.t) =
    match v with
    | Value.Var x -> (
        match Value.VTbl.find_opt subst x with Some r -> r | None -> v)
    | _ -> v
  in
  (* the new bodies, by block index; unreachable blocks keep theirs *)
  let bodies = Array.map (fun (b : Block.t) -> b.body) cfg.Cfg.blocks in
  let rec walk bi =
    let added = ref [] in
    bodies.(bi) <-
      List.filter_map
        (fun (i : Instr.t) ->
          let i =
            if Value.VTbl.length subst = 0 then i
            else Instr.map_operands resolve i
          in
          match (i.dst, Putils.op_key i.op) with
          | Some d, Some key -> (
              match Hashtbl.find_opt table key with
              | Some v ->
                  Value.VTbl.replace subst d v;
                  changed := true;
                  None
              | None ->
                  Hashtbl.add table key (Value.Var d);
                  added := key :: !added;
                  Some i)
          | _ -> Some i)
        bodies.(bi);
    List.iter walk dom.Dom.children.(bi);
    List.iter (fun k -> Hashtbl.remove table k) !added
  in
  if Array.length cfg.Cfg.blocks > 0 then walk 0;
  f.blocks <-
    Array.to_list
      (Array.mapi
         (fun bi (b : Block.t) -> { b with body = bodies.(bi) })
         cfg.Cfg.blocks);
  Putils.substitute f subst;
  !changed

let pass = Pass.func_pass "gvn" run_func
