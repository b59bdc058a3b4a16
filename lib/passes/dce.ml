(** Dead code elimination.

    Removes instructions without side effects whose results are unused —
    including calls classified [Pure]/[Read_meta]/[Allocating] by the
    intrinsics registry.  This is the pass that deletes unused metadata
    loads, reproducing the §5.4 observation that the compiler removes
    SoftBound trie loads whose bounds are never checked.  Also prunes dead
    phis.

    One worklist over use counts (the SSA dead-code algorithm of Cytron
    et al., TOPLAS 1991): a definition dies when its count reaches zero,
    and its death decrements the counts of its operands.  A function
    with nothing dead costs one counting sweep and one scan. *)

open Mi_mir

(* the definition of a variable, by [vid] *)
type def = Undef | Body of Instr.t | Phi of Instr.phi

let run_func (f : Func.t) : bool =
  let uses = Putils.use_counts f in
  let dead_instr (i : Instr.t) =
    match i.dst with
    | Some d -> uses.(d.vid) = 0 && Pass.Effects.removable i
    | None -> (
        (* result-less pure call: nothing can use it, remove it *)
        match i.op with
        | Call (callee, _) -> Pass.Effects.removable_call callee
        | _ -> false)
  in
  let dead_phi (p : Instr.phi) = uses.(p.pdst.vid) = 0 in
  if
    not
      (List.exists
         (fun (b : Block.t) ->
           List.exists dead_phi b.phis || List.exists dead_instr b.body)
         f.blocks)
  then false
  else begin
    let defs = Array.make f.next_id Undef in
    let dead = Array.make f.next_id false in
    let work = Stack.create () in
    (* a dead definition releases its operands; one whose count drops to
       zero dies in turn *)
    let release (v : Value.t) =
      match v with
      | Var x ->
          uses.(x.vid) <- uses.(x.vid) - 1;
          if uses.(x.vid) = 0 then Stack.push x.vid work
      | _ -> ()
    in
    let kill_instr (i : Instr.t) = Instr.iter_operands release i in
    let kill_phi (p : Instr.phi) =
      List.iter (fun (_, v) -> release v) p.incoming
    in
    List.iter
      (fun (b : Block.t) ->
        List.iter (fun (p : Instr.phi) -> defs.(p.pdst.vid) <- Phi p) b.phis;
        List.iter
          (fun (i : Instr.t) ->
            match i.dst with Some d -> defs.(d.vid) <- Body i | None -> ())
          b.body)
      f.blocks;
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (p : Instr.phi) -> if dead_phi p then Stack.push p.pdst.vid work)
          b.phis;
        List.iter
          (fun (i : Instr.t) ->
            if dead_instr i then
              match i.dst with
              | Some d -> Stack.push d.vid work
              | None -> kill_instr i (* no id: dies here and now *))
          b.body)
      f.blocks;
    while not (Stack.is_empty work) do
      let vid = Stack.pop work in
      if not dead.(vid) then
        match defs.(vid) with
        | Phi p ->
            dead.(vid) <- true;
            kill_phi p
        | Body i when Pass.Effects.removable i ->
            dead.(vid) <- true;
            kill_instr i
        | Body _ | Undef -> ()
    done;
    let live_phi (p : Instr.phi) = not dead.(p.pdst.vid) in
    let live_instr (i : Instr.t) =
      match i.dst with Some d -> not dead.(d.vid) | None -> not (dead_instr i)
    in
    Func.map_blocks f (fun (b : Block.t) ->
        if List.for_all live_phi b.phis && List.for_all live_instr b.body then b
        else
          {
            b with
            phis = List.filter live_phi b.phis;
            body = List.filter live_instr b.body;
          })
  end

let pass = Pass.func_pass "dce" run_func
