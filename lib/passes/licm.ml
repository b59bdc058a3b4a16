(** Loop-invariant code motion.

    Hoists speculatable loop-invariant instructions to the loop preheader.
    Loads are hoisted only when the loop body contains no instruction that
    may write memory and no call that may abort — a check call inside the
    loop therefore pins every load, which is the mechanism behind the
    slow ModuleOptimizerEarly configurations in Figures 12/13 ("memory
    safety checks are very effective at preventing optimizations"). *)

open Mi_mir
module Cfg = Mi_analysis.Cfg
module Dom = Mi_analysis.Dom
module Loops = Mi_analysis.Loops

(* Type-based alias rule, mirroring strict aliasing / TBAA as compilers
   apply it to SPEC: [i8] (char) aliases everything; other types alias
   only themselves.  In particular [i64] stores do not pin [ptr] loads —
   which is exactly why the compiler-introduced i64 stores of pointer
   values in Fig. 7 of the paper are so treacherous. *)
let may_alias (a : Ty.t) (b : Ty.t) =
  Ty.equal a b || a = Ty.I8 || b = Ty.I8

(* Every natural loop closes a cycle, which a walk in reverse postorder
   meets as an edge to a block not after its source: without one there
   is nothing to hoist, and no dominator tree to build. *)
let acyclic (cfg : Cfg.t) =
  let rpo = Cfg.rev_postorder cfg in
  let pos = Array.make (Cfg.n_blocks cfg) (-1) in
  Array.iteri (fun k b -> pos.(b) <- k) rpo;
  Array.for_all
    (fun b -> List.for_all (fun s -> pos.(s) > pos.(b)) cfg.Cfg.succs.(b))
    rpo

let run_func (f : Func.t) : bool =
  (* LICM keeps the CFG's shape, so one CFG, dominator tree and loop
     forest serve every round; [cur] holds each block's current version
     by CFG index, written back once at the end *)
  let cfg = Cfg.build f in
  (not (acyclic cfg))
  &&
  let dom = Dom.build cfg in
  let loops = Loops.build cfg dom in
  let cur = Array.copy cfg.Cfg.blocks in
  (* [loop_of.(vid)] is the stamp of the loop whose body defines [vid] *)
  let loop_of = Array.make f.next_id (-1) in
  let stamp = ref 0 in
  (* innermost loops first *)
  let by_depth =
    List.sort (fun a b -> compare b.Loops.depth a.Loops.depth) loops.loops
  in
  let changed = ref false in
  let continue_ = ref (by_depth <> []) in
  (* repeat because hoisting can enable further hoisting *)
  let rounds = ref 0 in
  while !continue_ && !rounds < 3 do
    incr rounds;
    continue_ := false;
    List.iter
      (fun (l : Loops.loop) ->
        match Loops.preheader cfg l with
        | None -> ()
        | Some ph ->
            (* variables defined inside the loop, as the inner loops of
               this round left it *)
            incr stamp;
            let here = !stamp in
            List.iter
              (fun bi ->
                let b = cur.(bi) in
                List.iter
                  (fun (p : Instr.phi) -> loop_of.(p.pdst.vid) <- here)
                  b.phis;
                List.iter
                  (fun (i : Instr.t) ->
                    match i.dst with
                    | Some d -> loop_of.(d.vid) <- here
                    | None -> ())
                  b.body)
              l.body;
            (* which store types / clobber kinds occur inside the loop *)
            let stored_tys = ref [] in
            let bulk_clobber = ref false in
            let loop_aborts = ref false in
            let meta_writer = ref false in
            List.iter
              (fun bi ->
                List.iter
                  (fun (i : Instr.t) ->
                    (match i.op with
                    | Instr.Store (ty, _, _) -> stored_tys := ty :: !stored_tys
                    | Instr.Memcpy _ | Instr.Memset _ ->
                        bulk_clobber := true;
                        meta_writer := true
                    | Instr.Call (callee, _) ->
                        if Pass.Effects.may_write_call callee then
                          bulk_clobber := true;
                        (match Intrinsics.classify callee with
                        | Intrinsics.Effectful | Intrinsics.Allocating ->
                            meta_writer := true
                        | _ ->
                            if not (Intrinsics.is_builtin callee) then
                              meta_writer := true)
                    | _ -> ());
                    if Pass.Effects.may_abort i then loop_aborts := true)
                  cur.(bi).Block.body)
              l.body;
            let load_clobbered ty =
              !bulk_clobber || List.exists (may_alias ty) !stored_tys
            in
            let invariant_operand (v : Value.t) =
              match v with Value.Var x -> loop_of.(x.vid) <> here | _ -> true
            in
            let invariant (i : Instr.t) =
              let exception Variant in
              try
                Instr.iter_operands
                  (fun v -> if not (invariant_operand v) then raise Variant)
                  i;
                true
              with Variant -> false
            in
            let hoisted = ref [] in
            List.iter
              (fun bi ->
                let b = cur.(bi) in
                (* instructions in blocks dominating all latches execute
                   on every iteration; speculatable instructions (and
                   loads from globals, which are dereferenceable) may
                   also be hoisted out of conditional blocks *)
                let dominates_latches =
                  List.for_all (fun lt -> Dom.dominates dom bi lt) l.latches
                in
                let can_hoist (i : Instr.t) =
                  i.dst <> None
                  && (match i.op with
                  | Instr.Load (ty, addr) ->
                      (* a load is hoistable only when nothing in the
                         loop may clobber it (TBAA-style); loads from
                         globals are dereferenceable and may be
                         speculated past aborting checks, all others
                         are pinned by them (§5.5) *)
                      let speculable =
                        match addr with Mi_mir.Value.Glob _ -> true | _ -> false
                      in
                      (speculable || dominates_latches)
                      && (not (load_clobbered ty))
                      && ((not !loop_aborts) || speculable)
                  | Instr.Call (callee, _)
                    when Intrinsics.classify callee = Intrinsics.Read_meta ->
                      (* metadata loads (SoftBound trie / shadow stack
                         reads) are plain loads at machine level:
                         hoistable unless something in the loop writes
                         metadata *)
                      not !meta_writer
                  | _ -> Pass.Effects.speculatable i)
                  && invariant i
                in
                let body =
                  Mi_support.Util.filter_map_keep
                    (fun (i : Instr.t) ->
                      if can_hoist i then begin
                        hoisted := i :: !hoisted;
                        Option.iter
                          (fun (d : Value.var) -> loop_of.(d.vid) <- -1)
                          i.dst;
                        None
                      end
                      else Some i)
                    b.Block.body
                in
                if body != b.body then cur.(bi) <- { b with body })
              l.body;
            if !hoisted <> [] then begin
              changed := true;
              continue_ := true;
              let phb = cur.(ph) in
              cur.(ph) <- { phb with body = phb.Block.body @ List.rev !hoisted }
            end)
      by_depth
  done;
  !changed
  && begin
       f.blocks <- Array.to_list cur;
       true
     end

let pass = Pass.func_pass "licm" run_func
