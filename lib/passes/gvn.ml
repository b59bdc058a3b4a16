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
  (* the value computing each key and the block computing it.  An entry
     stands only in the blocks its block dominates; in the walk's
     dominator-tree preorder a key is entered only where no entry
     stands, so the latest entry is the only one that can — no entry is
     ever removed *)
  let table : (Putils.key, Value.t * int) Hashtbl.t = Hashtbl.create 64 in
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
    bodies.(bi) <-
      Mi_support.Util.filter_map_keep
        (fun (i : Instr.t) ->
          let i =
            if Value.VTbl.length subst = 0 then i
            else Instr.map_operands resolve i
          in
          match i.dst with
          | None -> Some i
          | Some d -> (
              match Putils.op_key i.op with
              | None -> Some i
              | Some key -> (
                  match Hashtbl.find_opt table key with
                  | Some (v, at) when Dom.dominates dom at bi ->
                      Value.VTbl.replace subst d v;
                      changed := true;
                      None
                  | _ ->
                      Hashtbl.replace table key (Value.Var d, bi);
                      Some i)))
        bodies.(bi);
    List.iter walk dom.Dom.children.(bi)
  in
  if Array.length cfg.Cfg.blocks > 0 then walk 0;
  !changed
  && begin
       f.blocks <-
         Array.to_list
           (Array.mapi
              (fun bi (b : Block.t) ->
                if bodies.(bi) == b.body then b
                else { b with body = bodies.(bi) })
              cfg.Cfg.blocks);
       Putils.substitute f subst;
       true
     end

let pass = Pass.func_pass "gvn" run_func
