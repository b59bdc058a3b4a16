(** Function inlining.

    Inlines small, non-recursive, not-address-taken callees.  Inlining is
    instrumentation-transparent: the SoftBound shadow-stack protocol calls
    around and inside the callee stay correctly bracketed when the body is
    spliced between them, and the callee's static allocations (constant
    [alloca]/[__mi_lf_alloca]) are moved to the caller's entry block, as
    LLVM does, so loops around inlined calls do not grow the stack. *)

open Mi_mir

let size_threshold = 40
let max_inlines_per_func = 24

(* Is the address of [name] taken anywhere in the module? *)
let address_taken (m : Irmod.t) : (string, unit) Hashtbl.t =
  let t = Hashtbl.create 8 in
  let note (v : Value.t) =
    match v with Value.Fn n -> Hashtbl.replace t n () | _ -> ()
  in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (p : Instr.phi) ->
              List.iter (fun (_, v) -> note v) p.incoming)
            b.phis;
          List.iter
            (fun (i : Instr.t) -> List.iter note (Instr.operands i))
            b.body;
          List.iter note (Instr.term_operands b.term))
        f.blocks)
    m.funcs;
  t

let directly_recursive (f : Func.t) =
  List.exists
    (fun (b : Block.t) ->
      List.exists
        (fun (i : Instr.t) ->
          match i.op with
          | Instr.Call (callee, _) -> String.equal callee f.fname
          | _ -> false)
        b.body)
    f.blocks

let is_const_operand (v : Value.t) =
  match v with Value.Var _ -> false | _ -> true

(* The label a callee block [l] gets when spliced in with [uid]; the
   continuation block is [inl_label uid "cont"]. *)
let inl_label uid l = Printf.sprintf "inl%d_%s" uid l

(* Splice callee into caller at the given call site.  Returns false if the
   site shape is unexpected. *)
let inline_site (caller : Func.t) (callee : Func.t) ~(block : string)
    ~(pos : int) ~(uid : int) : bool =
  let b = Func.find_block_exn caller block in
  let call_instr = List.nth b.body pos in
  let args =
    match call_instr.op with
    | Instr.Call (_, args) -> args
    | _ -> invalid_arg "inline_site: not a call"
  in
  (* fresh names for everything in the callee *)
  let vmap : Value.t Value.VTbl.t = Value.VTbl.create 32 in
  List.iteri
    (fun i (p : Value.var) -> Value.VTbl.replace vmap p (List.nth args i))
    callee.params;
  let fresh_of : Value.var Value.VTbl.t = Value.VTbl.create 32 in
  let fresh_var (v : Value.var) =
    match Value.VTbl.find_opt fresh_of v with
    | Some nv -> nv
    | None ->
        let nv = Func.fresh_var caller ~name:v.vname v.vty in
        Value.VTbl.add fresh_of v nv;
        Value.VTbl.replace vmap v (Value.Var nv);
        nv
  in
  (* pre-create fresh vars for all defs so forward refs resolve *)
  List.iter
    (fun (bb : Block.t) ->
      List.iter (fun v -> ignore (fresh_var v)) (Block.defs bb))
    callee.blocks;
  let label_of = inl_label uid in
  let map_v (v : Value.t) =
    match v with
    | Value.Var x -> (
        match Value.VTbl.find_opt vmap x with Some r -> r | None -> v)
    | _ -> v
  in
  let cont_label = inl_label uid "cont" in
  let rets = ref [] in
  let copied =
    List.map
      (fun (bb : Block.t) ->
        let nb =
          Block.map_operands map_v
            (Block.map_labels label_of
               {
                 bb with
                 label = label_of bb.label;
                 phis =
                   List.map
                     (fun (p : Instr.phi) ->
                       { p with pdst = fresh_var p.pdst })
                     bb.phis;
                 body =
                   List.map
                     (fun (i : Instr.t) ->
                       {
                         i with
                         dst = Option.map fresh_var i.dst;
                       })
                     bb.body;
               })
        in
        match nb.term with
        | Instr.Ret v ->
            rets := (nb.label, v) :: !rets;
            { nb with term = Instr.Br cont_label }
        | _ -> nb)
      callee.blocks
  in
  (* pull constant-operand static allocations out of the inlined entry *)
  let statics, copied =
    match copied with
    | entry :: rest ->
        let statics, dynamic =
          List.partition
            (fun (i : Instr.t) ->
              match i.op with
              | Instr.Alloca _ -> true
              | Instr.Call (n, cargs)
                when String.equal n Intrinsics.lf_alloca ->
                  List.for_all is_const_operand cargs
              | _ -> false)
            entry.body
        in
        (statics, { entry with body = dynamic } :: rest)
    | [] -> invalid_arg "inline_site: callee with no blocks"
  in
  (* split the caller block *)
  let prefix = List.filteri (fun i _ -> i < pos) b.body in
  let suffix = List.filteri (fun i _ -> i > pos) b.body in
  (* the statics go to the top of the caller's entry block *)
  let entry_label = (Func.entry caller).Block.label in
  let split_entry = String.equal block entry_label in
  let prefix = if split_entry then statics @ prefix else prefix in
  let with_statics (blk : Block.t) =
    if statics <> [] && (not split_entry) && String.equal blk.label entry_label
    then { blk with body = statics @ blk.body }
    else blk
  in
  let head =
    { b with body = prefix; term = Instr.Br (label_of (Func.entry callee).Block.label) }
  in
  (* note: values in [rets] were already renamed by [map_v] during the
     block copy; they live in the caller's variable space *)
  let ret_phis, subst =
    match (call_instr.dst, !rets) with
    | None, _ -> ([], None)
    | Some d, [ (_, Some v) ] -> ([], Some (d, v))
    | Some d, rets ->
        let incoming =
          List.map
            (fun (l, v) ->
              match v with
              | Some v -> (l, v)
              | None -> (l, Value.Int (d.vty, 0)))
            rets
        in
        ([ { Instr.pdst = d; incoming } ], None)
  in
  let cont =
    { Block.label = cont_label; phis = ret_phis; body = suffix; term = b.term }
  in
  (* rename phi predecessors in original successors: block -> cont (the
     old terminator, and with it every outgoing edge, now lives in
     [cont]).  The split block can be its own successor — a do-while
     whose body branches back to itself — so [head] itself may need its
     loop-header phis renamed too. *)
  let succ_labels = Instr.successors b.term in
  let rename_phis (blk : Block.t) =
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
                    if String.equal l block then (cont_label, v) else (l, v))
                  p.incoming;
            })
          blk.phis;
    }
  in
  let blocks =
    List.concat_map
      (fun (blk : Block.t) ->
        if String.equal blk.label block then
          let head =
            if List.mem block succ_labels then rename_phis head else head
          in
          (head :: copied) @ [ cont ]
        else
          let blk = with_statics blk in
          if List.mem blk.label succ_labels then [ rename_phis blk ]
          else [ blk ])
      caller.blocks
  in
  caller.blocks <- blocks;
  (match subst with
  | Some (d, v) ->
      let s = Value.VTbl.create 1 in
      Value.VTbl.replace s d v;
      Putils.substitute caller s
  | None -> ());
  true

(* The smallest uid >= [uid] whose spliced labels are all absent from
   [caller].  The uid counter restarts on every run of the pass, and a
   pipeline that runs the pass twice would otherwise reuse labels the
   first run spliced in. *)
let rec fresh_uid (caller : Func.t) (callee : Func.t) uid =
  let taken l = Option.is_some (Func.find_block caller (inl_label uid l)) in
  if
    taken "cont"
    || List.exists (fun (bb : Block.t) -> taken bb.label) callee.blocks
  then fresh_uid caller callee (uid + 1)
  else uid

let run (m : Irmod.t) : bool =
  let taken = address_taken m in
  let inlinable : (string, Func.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      if
        (not f.is_external)
        && (not (Hashtbl.mem taken f.fname))
        && (not (directly_recursive f))
        && Func.instr_count f <= size_threshold
        && not (String.equal f.fname "main")
      then Hashtbl.replace inlinable f.fname f)
    m.funcs;
  if Hashtbl.length inlinable = 0 then false
  else begin
    let changed = ref false in
    let uid = ref 0 in
    List.iter
      (fun (caller : Func.t) ->
        if not caller.is_external then begin
          let budget = ref max_inlines_per_func in
          let continue_ = ref true in
          while !continue_ && !budget > 0 do
            (* find the first inlinable call site *)
            let site = ref None in
            List.iter
              (fun (blk : Block.t) ->
                if !site = None then
                  List.iteri
                    (fun pos (i : Instr.t) ->
                      if !site = None then
                        match i.op with
                        | Instr.Call (callee, _)
                          when Hashtbl.mem inlinable callee
                               && not (String.equal callee caller.fname) ->
                            site := Some (blk.label, pos, callee)
                        | _ -> ())
                    blk.body)
              caller.blocks;
            match !site with
            | None -> continue_ := false
            | Some (block, pos, callee) ->
                let callee = Hashtbl.find inlinable callee in
                uid := fresh_uid caller callee (!uid + 1);
                decr budget;
                if inline_site caller callee ~block ~pos ~uid:!uid
                then changed := true
                else continue_ := false
          done
        end)
      m.funcs;
    !changed
  end

let pass : Pass.t = { name = "inline"; run }
