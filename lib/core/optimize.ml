(** Approach-independent check optimizations on instrumentation targets.

    Three passes, each vetoable per checker (capability flags on
    {!Checker.t}) and per configuration ({!Config.t} knobs), applied in
    a fixed order:

    {ol
    {- {b Dominance elimination} (§5.3, [opt_dominance]): when two
       accesses go through the same pointer SSA value and one access's
       check dominates the other with at least the same width, the
       dominated check is redundant — if the first check passes, the
       second cannot fail, and if it fails the program aborts before
       reaching the second.  This is the optimization "frequently
       described in the literature" [1, 10, 23] that the paper measures
       removing between 8% (177mesa) and 50% (256bzip2) of checks.}
    {- {b Static in-bounds elimination} ([opt_static]): a CHOP-style
       constraint pass.  The checked pointer is chased through geps and
       pointer bitcasts to an allocation of statically known size
       (alloca, sized global, [malloc]/[calloc] of constants), while the
       byte offset is bounded by interval arithmetic over constants,
       affine arithmetic and canonical loop induction variables
       ({!Mi_analysis.Indvar}).  A check whose whole offset interval
       plus access width fits inside the allocation can never fire and
       is deleted.}
    {- {b Loop-invariant check hoisting} ([opt_hoist]): checks inside a
       canonical counted loop whose address is affine in the induction
       variable over a loop-invariant base are replaced by one {e
       widened} check in the preheader covering the footprint of every
       iteration.  Sound only under early-abort semantics, for a
       checker that guarantees no temporal hazard
       ({!Checker.check_elim_sound}): the widened check may abort before
       the loop for an access a later iteration would have made.
       The footprint argument needs every iteration to actually reach
       the check, so the check's block must dominate every latch, the
       loop must be single-exit with a known-positive trip count, and
       the body must not call anything that could terminate the program
       first ([exit]/[abort]/non-builtin callees).}}

    The passes only ever {e remove} or {e summarize} checks discovered
    by [Itarget]; emitting the surviving and hoisted checks stays the
    instrumenter's business. *)

open Mi_mir
module Dom = Mi_analysis.Dom
module Cfg = Mi_analysis.Cfg
module Loops = Mi_analysis.Loops
module Indvar = Mi_analysis.Indvar

type stats = {
  before : int;  (** checks discovered *)
  after : int;  (** in-place checks surviving all passes *)
  removed_dominance : int;
  removed_static : int;
  removed_hoisted : int;
      (** in-loop checks replaced by a widened preheader check *)
}

let removed s = s.removed_dominance + s.removed_static + s.removed_hoisted

let no_stats n =
  {
    before = n;
    after = n;
    removed_dominance = 0;
    removed_static = 0;
    removed_hoisted = 0;
  }

type hoisted = {
  h_preheader : string;  (** label of the preheader block to emit into *)
  h_base : Value.t;  (** loop-invariant base pointer *)
  h_min_off : int;  (** smallest byte offset any iteration accesses *)
  h_span : int;  (** bytes covered: max offset + width - min offset *)
  h_access : Itarget.access;  (** [Astore] if any replaced check stored *)
  h_origin : Edit.anchor;  (** anchor of the first replaced check *)
  h_replaced : int;  (** how many in-loop checks it stands for *)
}

type result = {
  kept : Itarget.check list;  (** surviving checks, in discovery order *)
  hoisted : hoisted list;  (** widened preheader checks to emit *)
  stats : stats;
}

(* identity of a check: anchors are unique per discovered check *)
let anchor_key (c : Itarget.check) =
  (c.Itarget.c_anchor.Edit.ablock, c.Itarget.c_anchor.Edit.apos)

(* ------------------------------------------------------------------ *)
(* Pass 1: dominance elimination                                       *)
(* ------------------------------------------------------------------ *)

(* One sweep entry: a check's position and width. *)
type dentry = { e_bi : int; e_pos : int; e_w : int; e_id : string * int }

(* Remove every check dominated by an equal-or-wider check on the same
   pointer SSA value.  A removed check still shields the checks it
   dominates (its own dominator does), so the removal decision for each
   check only depends on the set of group members above it in the
   dominator tree — which an ancestor-stack sweep over the dominator
   DFS preorder computes in O(n log n) per group instead of the naive
   all-pairs scan. *)
let dominance_eliminate_sweep (cfg : Cfg.t) (dom : Dom.t)
    (checks : Itarget.check list) : Itarget.check list =
  let groups : (Value.key, dentry list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (c : Itarget.check) ->
      let bi = Cfg.index cfg c.c_anchor.Edit.ablock in
      let e =
        {
          e_bi = bi;
          e_pos = c.c_anchor.Edit.apos;
          e_w = c.c_width;
          e_id = anchor_key c;
        }
      in
      let key = Value.key c.c_ptr in
      match Hashtbl.find_opt groups key with
      | Some l -> l := e :: !l
      | None -> Hashtbl.add groups key (ref [ e ]))
    checks;
  let removed : (string * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let sweep_group entries =
    (* Reachable entries: sort by dominator-DFS preorder (within a
       block, by position).  Processing in that order with a stack of
       dominating ancestors — popping entries that do not dominate the
       current one — keeps exactly the group members that dominate the
       current check on the stack, each entry carrying the running
       maximum width of itself and everything below it. *)
    let reach, unreach =
      List.partition (fun e -> cfg.Cfg.reachable.(e.e_bi)) entries
    in
    let arr = Array.of_list reach in
    Array.sort
      (fun a b ->
        let c = compare dom.Dom.dfs_in.(a.e_bi) dom.Dom.dfs_in.(b.e_bi) in
        if c <> 0 then c else compare a.e_pos b.e_pos)
      arr;
    let stack = ref [] in
    Array.iter
      (fun e ->
        let dominates_e (top : dentry * int) =
          let t = fst top in
          if t.e_bi = e.e_bi then t.e_pos < e.e_pos
          else Dom.dominates dom t.e_bi e.e_bi
        in
        let rec pop () =
          match !stack with
          | top :: rest when not (dominates_e top) ->
              stack := rest;
              pop ()
          | _ -> ()
        in
        pop ();
        let above = match !stack with [] -> min_int | (_, w) :: _ -> w in
        if above >= e.e_w then Hashtbl.replace removed e.e_id ();
        stack := (e, max e.e_w above) :: !stack)
      arr;
    (* Entries in unreachable blocks: [Dom.dominates] is false for
       them in either direction, so only an earlier equal-or-wider
       check in the same block shadows them. *)
    let by_block : (int, dentry list ref) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun e ->
        match Hashtbl.find_opt by_block e.e_bi with
        | Some l -> l := e :: !l
        | None -> Hashtbl.add by_block e.e_bi (ref [ e ]))
      unreach;
    Hashtbl.iter
      (fun _ l ->
        let es =
          List.sort (fun a b -> compare a.e_pos b.e_pos) (List.rev !l)
        in
        ignore
          (List.fold_left
             (fun above e ->
               if above >= e.e_w then Hashtbl.replace removed e.e_id ();
               max above e.e_w)
             min_int es))
      by_block
  in
  Hashtbl.iter (fun _ l -> sweep_group (List.rev !l)) groups;
  List.filter (fun c -> not (Hashtbl.mem removed (anchor_key c))) checks

let dominance_eliminate (f : Func.t) (checks : Itarget.check list) :
    Itarget.check list =
  let cfg = Cfg.build f in
  let dom = Dom.build cfg in
  dominance_eliminate_sweep cfg dom checks

(* ------------------------------------------------------------------ *)
(* Shared analysis context for the static and hoisting passes          *)
(* ------------------------------------------------------------------ *)

type def =
  | Dparam
  | Dinstr of int * Instr.t  (** defining block index + instruction *)
  | Dphi of int * Instr.phi

type actx = {
  cfg : Cfg.t;
  dom : Dom.t;
  loops : Loops.t;
  defs : def Value.VTbl.t;
  counted : (Loops.loop * Indvar.counted) Value.VTbl.t;
      (** induction phi -> its loop and closed-form interval *)
}

let build_actx (cfg : Cfg.t) (dom : Dom.t) : actx =
  let loops = Loops.build cfg dom in
  let defs = Value.VTbl.create 64 in
  List.iter (fun p -> Value.VTbl.replace defs p Dparam) cfg.Cfg.func.params;
  Array.iteri
    (fun bi (b : Block.t) ->
      List.iter
        (fun (p : Instr.phi) -> Value.VTbl.replace defs p.pdst (Dphi (bi, p)))
        b.phis;
      List.iter
        (fun (i : Instr.t) ->
          match i.dst with
          | Some d -> Value.VTbl.replace defs d (Dinstr (bi, i))
          | None -> ())
        b.body)
    cfg.Cfg.blocks;
  let counted = Value.VTbl.create 8 in
  List.iter
    (fun (l : Loops.loop) ->
      match Indvar.counted_loop cfg l with
      | Some c -> Value.VTbl.replace counted c.Indvar.iv (l, c)
      | None -> ())
    loops.Loops.loops;
  { cfg; dom; loops; defs; counted }

let def_of (a : actx) (x : Value.var) = Value.VTbl.find_opt a.defs x

(* Interval of the values an i64 expression takes when evaluated in
   block [blk]: constants, affine arithmetic over intervals, value-
   preserving casts, and — only for uses inside their loop — canonical
   induction variables with their exact [init, last] range.  [None] is
   "unknown"; the recursion depth is bounded defensively (SSA operand
   chains are acyclic outside phis, and non-induction phis fail). *)
let rec ival (a : actx) ~blk (v : Value.t) (depth : int) : (int * int) option
    =
  if depth <= 0 then None
  else
    match v with
    | Value.Int (_, k) -> Some (k, k)
    | Value.Var x -> (
        match Value.VTbl.find_opt a.counted x with
        | Some (l, c) when Indvar.in_body l blk ->
            Some (c.Indvar.init, c.Indvar.last)
        | _ -> (
            match def_of a x with
            | Some (Dinstr (_, { op = Instr.Bin (bop, _, p, q); _ })) -> (
                match (ival a ~blk p (depth - 1), ival a ~blk q (depth - 1))
                with
                | Some (plo, phi_), Some (qlo, qhi) -> (
                    match bop with
                    | Instr.Add -> Some (plo + qlo, phi_ + qhi)
                    | Instr.Sub -> Some (plo - qhi, phi_ - qlo)
                    | Instr.Mul ->
                        let products =
                          [ plo * qlo; plo * qhi; phi_ * qlo; phi_ * qhi ]
                        in
                        Some
                          ( List.fold_left min max_int products,
                            List.fold_left max min_int products )
                    | _ -> None)
                | _ -> None)
            | Some (Dinstr (_, { op = Instr.Cast (Instr.Sext, _, src, _); _ }))
              ->
                ival a ~blk src (depth - 1)
            | Some (Dinstr (_, { op = Instr.Cast (Instr.Zext, _, src, _); _ }))
              -> (
                (* zext is value-preserving only for non-negative values *)
                match ival a ~blk src (depth - 1) with
                | Some (lo, hi) when lo >= 0 -> Some (lo, hi)
                | _ -> None)
            | _ -> None))
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Pass 2: static in-bounds elimination                                *)
(* ------------------------------------------------------------------ *)

(* Chase [v] (evaluated in block [blk]) back to an allocation of
   statically known size, accumulating the interval of byte offsets
   from the allocation base: [Some (size, lo, hi)] means [v] always
   points [lo..hi] bytes past the start of a [size]-byte object. *)
let rec chase_alloc (a : actx) (m : Irmod.t) ~blk (v : Value.t) (depth : int)
    : (int * int * int) option =
  if depth <= 0 then None
  else
    match v with
    | Value.Glob g -> (
        match Irmod.find_global m g with
        | Some gl when gl.Irmod.gsize_known -> Some (gl.Irmod.gsize, 0, 0)
        | _ -> None)
    | Value.Var x -> (
        match def_of a x with
        | Some (Dinstr (_, { op = Instr.Alloca { size; _ }; _ })) ->
            Some (size, 0, 0)
        | Some (Dinstr (_, { op = Instr.Gep (base, idxs); _ })) -> (
            match chase_alloc a m ~blk base (depth - 1) with
            | None -> None
            | Some (size, lo0, hi0) ->
                let rec add_idxs lo hi = function
                  | [] -> Some (size, lo, hi)
                  | { Instr.stride; idx } :: rest -> (
                      match ival a ~blk idx 24 with
                      | None -> None
                      | Some (ilo, ihi) ->
                          let c1 = stride * ilo and c2 = stride * ihi in
                          add_idxs (lo + min c1 c2) (hi + max c1 c2) rest)
                in
                add_idxs lo0 hi0 idxs)
        | Some
            (Dinstr (_, { op = Instr.Cast (Instr.Bitcast, fty, src, tty); _ }))
          when Ty.is_ptr fty && Ty.is_ptr tty ->
            chase_alloc a m ~blk src (depth - 1)
        | Some (Dinstr (_, { op = Instr.Call (callee, args); _ })) -> (
            (* statically sized heap / protected-stack allocations; the
               call trapping (OOM) means the access is never reached *)
            match (callee, args) with
            | "malloc", [ Value.Int (_, n) ] when n >= 0 -> Some (n, 0, 0)
            | "calloc", [ Value.Int (_, n); Value.Int (_, k) ]
              when n >= 0 && k >= 0 ->
                Some (n * k, 0, 0)
            | name, [ Value.Int (_, n) ]
              when (name = Intrinsics.lf_alloca || name = Intrinsics.tp_alloca)
                   && n >= 0 ->
                (* the protected allocators return regions of at least
                   the requested size *)
                Some (n, 0, 0)
            | _ -> None)
        | _ -> None)
    | _ -> None

(* Delete every check provably in bounds: the whole offset interval
   plus the access width fits inside the root allocation. *)
let static_pass (a : actx) (m : Irmod.t) (checks : Itarget.check list) :
    Itarget.check list * int =
  let provable (c : Itarget.check) =
    let blk = Cfg.index a.cfg c.c_anchor.Edit.ablock in
    match chase_alloc a m ~blk c.c_ptr 24 with
    | Some (size, lo, hi) -> lo >= 0 && hi + c.c_width <= size
    | None -> false
  in
  let kept = List.filter (fun c -> not (provable c)) checks in
  (kept, List.length checks - List.length kept)

(* ------------------------------------------------------------------ *)
(* Pass 3: loop-invariant check hoisting with range widening           *)
(* ------------------------------------------------------------------ *)

(* Is [v] invariant in loop [l] (defined outside the body)?  Such a
   definition dominates the preheader: it dominates its in-loop use,
   sits outside the body, and the preheader is on every path from
   entry into the loop. *)
let loop_invariant (a : actx) (l : Loops.loop) (v : Value.t) =
  match v with
  | Value.Var x -> (
      match def_of a x with
      | Some (Dinstr (bi, _)) | Some (Dphi (bi, _)) ->
          not (Indvar.in_body l bi)
      | Some Dparam -> true
      | None -> false)
  | Value.Int _ | Value.Glob _ | Value.Fn _ -> true
  | Value.Flt _ -> false

(* Decompose [ptr] as base + [lo, hi] where base is loop-invariant and
   the offset interval is exact over the loop's iteration space: geps
   whose indices are constants or the loop's induction variable. *)
let rec affine_off (a : actx) (l : Loops.loop) (c : Indvar.counted)
    (ptr : Value.t) (depth : int) : (Value.t * int * int) option =
  if depth <= 0 then None
  else if loop_invariant a l ptr then Some (ptr, 0, 0)
  else
    match ptr with
    | Value.Var x -> (
        match def_of a x with
        | Some (Dinstr (_, { op = Instr.Gep (base, idxs); _ })) -> (
            match affine_off a l c base (depth - 1) with
            | None -> None
            | Some (b, lo0, hi0) ->
                let rec add_idxs lo hi = function
                  | [] -> Some (b, lo, hi)
                  | { Instr.stride; idx } :: rest -> (
                      match idx with
                      | Value.Int (_, k) ->
                          add_idxs (lo + (stride * k)) (hi + (stride * k)) rest
                      | Value.Var y when Value.var_equal y c.Indvar.iv ->
                          let c1 = stride * c.Indvar.init
                          and c2 = stride * c.Indvar.last in
                          add_idxs (lo + min c1 c2) (hi + max c1 c2) rest
                      | _ -> None)
                in
                add_idxs lo0 hi0 idxs)
        | Some
            (Dinstr (_, { op = Instr.Cast (Instr.Bitcast, fty, src, tty); _ }))
          when Ty.is_ptr fty && Ty.is_ptr tty ->
            affine_off a l c src (depth - 1)
        | _ -> None)
    | _ -> None

(* May the loop body terminate the program before a later iteration's
   check would have run?  Any call to [exit]/[abort]-capable builtins
   or to a non-builtin (which could do so transitively) vetoes
   hoisting out of this loop. *)
let body_may_exit (a : actx) (l : Loops.loop) =
  List.exists
    (fun bi ->
      let b = Cfg.block a.cfg bi in
      List.exists
        (fun (i : Instr.t) ->
          match i.op with
          | Instr.Call (name, _) ->
              (not (Intrinsics.is_builtin name)) || Intrinsics.may_abort name
          | _ -> false)
        b.Block.body)
    l.Loops.body

(* accumulator for one (loop, base) hoist group *)
type hacc = {
  mutable a_lo : int;
  mutable a_end : int;  (** max offset + width *)
  mutable a_store : bool;
  a_origin : Edit.anchor;
  a_pre : string;
  a_base : Value.t;
  mutable a_count : int;
}

let hoist_pass (a : actx) (checks : Itarget.check list) :
    Itarget.check list * hoisted list =
  let groups : (int * Value.key, hacc) Hashtbl.t = Hashtbl.create 8 in
  let order : (int * Value.key) list ref = ref [] in
  (* counted info by loop header *)
  let counted_of_header : (int, Indvar.counted) Hashtbl.t = Hashtbl.create 8 in
  Value.VTbl.iter
    (fun _ ((l, c) : Loops.loop * Indvar.counted) ->
      Hashtbl.replace counted_of_header l.Loops.header c)
    a.counted;
  let hoistable (chk : Itarget.check) =
    let bi = Cfg.index a.cfg chk.c_anchor.Edit.ablock in
    match Loops.innermost_header a.loops bi with
    | None -> None
    | Some h -> (
        match Loops.find_loop a.loops h with
        | None -> None
        | Some l -> (
            match Hashtbl.find_opt counted_of_header l.Loops.header with
            | None -> None
            | Some cnt ->
                if body_may_exit a l then None
                else if
                  not
                    (List.for_all
                       (fun latch -> Dom.dominates a.dom bi latch)
                       l.Loops.latches)
                then None
                else
                  Option.bind (Loops.preheader a.cfg l) (fun pre ->
                      Option.map
                        (fun (base, lo, hi) -> (l, pre, base, lo, hi))
                        (affine_off a l cnt chk.c_ptr 16))))
  in
  let kept =
    List.filter
      (fun (chk : Itarget.check) ->
        match hoistable chk with
        | None -> true
        | Some (l, pre, base, lo, hi) ->
            let key = (l.Loops.header, Value.key base) in
            (match Hashtbl.find_opt groups key with
            | Some g ->
                g.a_lo <- min g.a_lo lo;
                g.a_end <- max g.a_end (hi + chk.c_width);
                g.a_store <- g.a_store || chk.c_access = Itarget.Astore;
                g.a_count <- g.a_count + 1
            | None ->
                order := key :: !order;
                Hashtbl.add groups key
                  {
                    a_lo = lo;
                    a_end = hi + chk.c_width;
                    a_store = chk.c_access = Itarget.Astore;
                    a_origin = chk.c_anchor;
                    a_pre = Cfg.label a.cfg pre;
                    a_base = base;
                    a_count = 1;
                  });
            false)
      checks
  in
  let hoisted =
    List.rev_map
      (fun key ->
        let g = Hashtbl.find groups key in
        {
          h_preheader = g.a_pre;
          h_base = g.a_base;
          h_min_off = g.a_lo;
          h_span = g.a_end - g.a_lo;
          h_access = (if g.a_store then Itarget.Astore else Itarget.Aload);
          h_origin = g.a_origin;
          h_replaced = g.a_count;
        })
      !order
  in
  (kept, hoisted)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** Apply the target-level optimizations enabled by [config], in the
    order dominance -> static -> hoisting (the dominance pass runs
    first so its removal counts stay comparable with dominance-only
    configurations, the §5.3 series). *)
let run (config : Config.t) (m : Irmod.t) (f : Func.t)
    (checks : Itarget.check list) : result =
  let before = List.length checks in
  if not (config.opt_dominance || config.opt_static || config.opt_hoist) then
    { kept = checks; hoisted = []; stats = no_stats before }
  else begin
    let cfg = Cfg.build f in
    let dom = Dom.build cfg in
    let checks, removed_dominance =
      if config.opt_dominance then
        let kept = dominance_eliminate_sweep cfg dom checks in
        (kept, before - List.length kept)
      else (checks, 0)
    in
    let actx =
      if config.opt_static || config.opt_hoist then Some (build_actx cfg dom)
      else None
    in
    let checks, removed_static =
      match actx with
      | Some a when config.opt_static -> static_pass a m checks
      | _ -> (checks, 0)
    in
    let kept, hoisted =
      match actx with
      | Some a when config.opt_hoist -> hoist_pass a checks
      | _ -> (checks, [])
    in
    let removed_hoisted =
      List.fold_left (fun n h -> n + h.h_replaced) 0 hoisted
    in
    {
      kept;
      hoisted;
      stats =
        {
          before;
          after = List.length kept;
          removed_dominance;
          removed_static;
          removed_hoisted;
        };
    }
  end
