(** CFG simplification:
    - fold conditional branches on constants (dropping the dead edge from
      the target's phis);
    - remove blocks unreachable from entry;
    - merge a block into its unique successor when that successor has no
      other predecessors;
    - thread jumps through empty forwarding blocks when the final target
      has no phis.

    A run builds one CFG (two when jump threading moves an edge) and
    writes the blocks back only where something changed. *)

open Mi_mir
module Cfg = Mi_analysis.Cfg

let fold_const_branches (f : Func.t) : bool =
  List.exists
    (fun (b : Block.t) ->
      match b.term with Instr.Cbr (Value.Int _, _, _) -> true | _ -> false)
    f.blocks
  && begin
       let removed_edges = ref [] in
       ignore
         (Func.map_blocks f (fun (b : Block.t) ->
              match b.term with
              | Instr.Cbr (Value.Int (_, k), l1, l2) when l1 <> l2 ->
                  let taken, dead = if k <> 0 then (l1, l2) else (l2, l1) in
                  removed_edges := (b.label, dead) :: !removed_edges;
                  { b with term = Instr.Br taken }
              | Instr.Cbr (Value.Int _, l1, _) -> { b with term = Instr.Br l1 }
              | _ -> b)
           : bool);
       if !removed_edges <> [] then
         ignore
           (Func.map_blocks f (fun (b : Block.t) ->
                let phis =
                  List.map
                    (fun (p : Instr.phi) ->
                      {
                        p with
                        incoming =
                          List.filter
                            (fun (l, _) ->
                              not (List.mem (l, b.label) !removed_edges))
                            p.incoming;
                      })
                    b.phis
                in
                { b with phis })
             : bool);
       true
     end

(* Rename the phi incoming label [from] of [blk] to [into]. *)
let rename_phis ~from ~into (blk : Block.t) =
  {
    blk with
    phis =
      List.map
        (fun (p : Instr.phi) ->
          {
            p with
            incoming =
              List.map
                (fun (l, v) ->
                  if String.equal l from then (into, v) else (l, v))
                p.incoming;
          })
        blk.phis;
  }

(* Merge B into A when A's terminator is `br B` and B has exactly one
   predecessor (A). B's phis then have a single incoming value and become
   substitutions. The entry block keeps its label.

   The merge edges A -> B form disjoint chains, and merging one never
   makes or breaks another, so every chain H -> B1 -> ... -> Bk merges
   in one sweep over [cfg]: H keeps its label and place, takes the
   bodies of B1..Bk and Bk's terminator, and Bk's successors see H as
   their predecessor.  A cycle of merge edges must pass through the
   entry (every block in it has its only predecessor in it, and all
   blocks are reachable); its first block in list order, the entry,
   heads it. *)
let merge_blocks (cfg : Cfg.t) (f : Func.t) : bool =
  let n = Cfg.n_blocks cfg in
  (* the current version of each block by CFG index: unreachable blocks
     dropped since [cfg] was built are not live *)
  let cur, live, order =
    if List.compare_length_with f.blocks n = 0 then
      (Array.copy cfg.Cfg.blocks, Array.make n true, List.init n Fun.id)
    else
      let cur = Array.copy cfg.Cfg.blocks and live = Array.make n false in
      let order =
        List.map
          (fun (b : Block.t) ->
            let i = Cfg.index cfg b.label in
            cur.(i) <- b;
            live.(i) <- true;
            i)
          f.blocks
      in
      (cur, live, order)
  in
  (* the one live predecessor of [j]; -1 for none or several *)
  let sole_pred j =
    let rec go found = function
      | [] -> found
      | p :: ps when not live.(p) -> go found ps
      | p :: ps -> if found = -1 then go p ps else -1
    in
    go (-1) cfg.Cfg.preds.(j)
  in
  let next = Array.make n (-1) and has_in = Array.make n false in
  List.iter
    (fun i ->
      match cur.(i).Block.term with
      | Instr.Br lb ->
          let j = Cfg.index cfg lb in
          if j <> i && sole_pred j = i then begin
            next.(i) <- j;
            has_in.(j) <- true
          end
      | _ -> ())
    order;
  List.exists (fun i -> next.(i) >= 0) order
  && begin
       (* blocks on chains that start somewhere; the rest are cycles *)
       let on_path = Array.make n false in
       let rec mark k =
         if k >= 0 && not on_path.(k) then begin
           on_path.(k) <- true;
           mark next.(k)
         end
       in
       List.iter (fun i -> if not has_in.(i) then mark i) order;
       let absorbed = Array.make n false in
       let subst = Value.VTbl.create 4 in
       List.iter
         (fun h ->
           if next.(h) >= 0 && not (absorbed.(h) || (has_in.(h) && on_path.(h)))
           then begin
             let head = cur.(h) in
             let bodies = ref [ head.body ] in
             let tail = ref h and k = ref next.(h) in
             while !k >= 0 && !k <> h do
               let b = cur.(!k) in
               List.iter
                 (fun (p : Instr.phi) ->
                   match p.incoming with
                   | [ (_, v) ] -> Value.VTbl.replace subst p.pdst v
                   | _ ->
                       (* verifier guarantees exactly one incoming per pred *)
                       invalid_arg "merge_blocks: phi arity mismatch")
                 b.phis;
               bodies := b.body :: !bodies;
               absorbed.(!k) <- true;
               tail := !k;
               k := next.(!k)
             done;
             let last = cur.(!tail) in
             cur.(h) <-
               {
                 head with
                 body = List.concat (List.rev !bodies);
                 term = last.term;
               };
             (* successors of the tail now have the head as predecessor;
                the head itself can be one (the chain closes a loop) *)
             List.iter
               (fun s ->
                 let si = Cfg.index cfg s in
                 cur.(si) <-
                   rename_phis ~from:last.label ~into:head.label cur.(si))
               (Instr.successors last.term)
           end)
         order;
       f.blocks <-
         List.filter_map
           (fun i -> if absorbed.(i) then None else Some cur.(i))
           order;
       Putils.substitute f subst;
       true
     end

(* Thread `br E` where E contains only `br T` and T has no phis: replace
   the edge by a direct jump to T.  (With phis in T the edge identity
   matters, so we leave those alone.)  [cfg] indexes the labels. *)
let thread_empty_blocks (cfg : Cfg.t) (f : Func.t) : bool =
  let forwards = Hashtbl.create 8 in
  List.iter
    (fun (b : Block.t) ->
      match (b.phis, b.body, b.term) with
      | [], [], Instr.Br t when not (String.equal t b.label) -> (
          match Cfg.find cfg t with
          | Some ti when (Cfg.block cfg ti).phis = [] ->
              Hashtbl.replace forwards b.label t
          | _ -> ())
      | _ -> ())
    f.blocks;
  Hashtbl.length forwards > 0
  &&
  let rec final l seen =
    if List.mem l seen then l
    else
      match Hashtbl.find_opt forwards l with
      | Some t -> final t (l :: seen)
      | None -> l
  in
  let moved l = not (String.equal (final l []) l) in
  Func.map_blocks f (fun (b : Block.t) ->
      match b.term with
      | Instr.Br l when moved l -> { b with term = Instr.Br (final l []) }
      | Instr.Cbr (c, l1, l2) when moved l1 || moved l2 ->
          { b with term = Instr.Cbr (c, final l1 [], final l2 []) }
      | _ -> b)

let run_func (f : Func.t) : bool =
  let folded = fold_const_branches f in
  let cfg = Cfg.build f in
  let pruned = Putils.remove_unreachable cfg f in
  let threaded = thread_empty_blocks cfg f in
  let cfg = if threaded then Cfg.build f else cfg in
  let pruned_again = threaded && Putils.remove_unreachable cfg f in
  let merged = merge_blocks cfg f in
  folded || pruned || threaded || pruned_again || merged

let pass = Pass.func_pass "simplifycfg" run_func
