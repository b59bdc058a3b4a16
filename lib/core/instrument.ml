(** The MemInstrument module pass: discovers instrumentation targets
    (Table 1), propagates witnesses, places checks and invariant
    maintenance code for the configured approach.

    A {e witness} (§3.1) is the set of SSA values that carry a pointer's
    metadata to its uses: a [(base, bound)] pair for SoftBound, the
    allocation base pointer for Low-Fat Pointers, the allocation key for
    the temporal checker.  Witnesses are computed by memoized recursion
    over SSA definitions; phis and selects on pointers get companion
    phis/selects on each witness component.  Which values make up a
    witness, how each definition kind sources one, and how checks and
    invariants are spelled is the {e checker}'s business: this pass is
    approach-generic and dispatches through the [Mi_core.Checker]
    registry entry named by [config.approach].

    Checks are emitted as calls to the intrinsics in [Mi_mir.Intrinsics]
    {e by name}, and those names are load-bearing beyond this pass: the
    VM's execution engine fuses call sites naming the hot check
    intrinsics ([sb_check], [lf_check], [tp_check], trie and
    shadow-stack ops) into superinstructions at precompile time, keyed
    on the intrinsic's registered typed implementation and its arity.
    A call whose argument list does not match that arity does not fuse
    and traps in the boxed adapter. Keep [Intrinsics], the emitted
    argument lists and the runtimes' [State.register_intrinsic] calls
    in sync. *)

open Mi_mir

type func_stats = {
  fname : string;
  checks_found : int;
  checks_placed : int;
  checks_removed : int;  (** total over the three elimination passes *)
  checks_removed_dominance : int;
  checks_removed_static : int;
  checks_removed_hoisted : int;
      (** in-loop checks a widened preheader check stands for *)
  hoisted_checks_placed : int;  (** widened preheader checks emitted *)
  invariants_placed : int;
  checks_mutated : int;
      (** checks deleted or weakened by an injected fault plan *)
}

type mod_stats = {
  per_func : func_stats list;
  total_checks_found : int;
  total_checks_placed : int;
  total_checks_removed : int;
  total_checks_removed_dominance : int;
  total_checks_removed_static : int;
  total_checks_removed_hoisted : int;
  total_hoisted_checks_placed : int;
  total_invariants : int;
  total_checks_mutated : int;
}

(* defsite of an SSA variable *)
type defsite =
  | Dparam of int  (** parameter index *)
  | Dinstr of Edit.anchor * Instr.t
  | Dphi of string * Instr.phi

let vi64 = Checker.vi64
let anchor_str = Checker.anchor_str

let access_name = function Itarget.Aload -> "load" | Astore -> "store"

(* the defsite of each variable of [f], by [vid]; [None] past the
   function's ids *)
let build_defsites (f : Func.t) : defsite option array =
  let t = Array.make f.next_id None in
  List.iteri (fun i (p : Value.var) -> t.(p.vid) <- Some (Dparam i)) f.params;
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (p : Instr.phi) -> t.(p.pdst.vid) <- Some (Dphi (b.label, p)))
        b.phis;
      List.iteri
        (fun pos (i : Instr.t) ->
          match i.dst with
          | Some d ->
              t.(d.vid) <-
                Some (Dinstr ({ Edit.ablock = b.label; apos = pos }, i))
          | None -> ())
        b.body)
    f.blocks;
  t

(* ------------------------------------------------------------------ *)
(* Per-function driver                                                 *)
(* ------------------------------------------------------------------ *)

let instrument_func ?(faults = Mi_faultkit.Fault.none) (config : Config.t)
    (sites : Mi_obs.Site.t) (m : Irmod.t) (f : Func.t) : func_stats =
  let checker = Checker.find_exn config.approach in
  checker.Checker.prepare_func config f;
  let targets = Itarget.discover m f in
  (* the optimization passes only run where the checker's guarantees
     make them sound (temporal checks are not idempotent across a free,
     proven-in-bounds says nothing about liveness, and key liveness at a
     preheader says nothing about iteration k) *)
  let opt_config =
    if Checker.check_elim_sound checker then config
    else
      {
        config with
        opt_dominance = false;
        opt_hoist = false;
        opt_static = false;
      }
  in
  let opt = Optimize.run opt_config m f targets.checks in
  let opt_stats = opt.Optimize.stats in
  let edit = Edit.create f in
  let defsites = build_defsites f in
  let memo : (Value.key, Checker.witness) Hashtbl.t = Hashtbl.create 64 in
  let call_ret : (Edit.anchor, Checker.witness) Hashtbl.t =
    Hashtbl.create 16
  in
  let invariants = ref 0 in
  let check_ordinal = ref 0 in
  let mutated = ref 0 in
  (* Register an instrumentation site for a check placed in this
     function; the id rides along as the check call's last argument so
     the runtime can attribute executions back to it. *)
  let new_site construct =
    let id =
      Mi_obs.Site.register sites ~func:f.fname ~construct
        ~approach:(Config.approach_name config.approach)
    in
    Value.Int (Ty.I64, id)
  in
  let ctx : Checker.ctx =
    {
      config;
      m;
      f;
      edit;
      witness_of = (fun _ -> assert false);
      new_site;
      count_invariant = (fun () -> incr invariants);
      set_call_ret = (fun a w -> Hashtbl.replace call_ret a w);
      get_call_ret = (fun a -> Hashtbl.find_opt call_ret a);
    }
  in
  (* --- witness computation (generic over the checker's components) --- *)
  let rec witness_of (v : Value.t) : Checker.witness =
    let key = Value.key v in
    match Hashtbl.find_opt memo key with
    | Some w -> w
    | None ->
        let w = compute_witness v in
        (* phis memoize themselves before recursing; replace is
           idempotent *)
        Hashtbl.replace memo key w;
        w
  and compute_witness (v : Value.t) : Checker.witness =
    match v with
    | Value.Int (_, _) | Value.Fn _ -> checker.Checker.w_const ctx v
    | Value.Flt _ -> invalid_arg "witness of float"
    | Value.Glob g -> checker.Checker.w_global ctx g
    | Value.Var x -> (
        match
          if x.vid < Array.length defsites then defsites.(x.vid) else None
        with
        | None ->
            invalid_arg
              (Printf.sprintf "witness: no defsite for %s in %s"
                 (Value.var_to_string x) f.fname)
        | Some site -> witness_of_def x site)
  and witness_of_def (x : Value.var) (site : defsite) : Checker.witness =
    match site with
    | Dparam idx -> checker.Checker.w_param ctx x ~idx
    | Dphi (blk, p) ->
        (* create witness phis first (cycles!), recurse, then patch *)
        let vars =
          Array.map
            (fun (suffix, ty) ->
              Edit.fresh edit ~name:(Checker.witness_name "phi" suffix) ty)
            checker.Checker.components
        in
        let w = Array.map (fun v -> Value.Var v) vars in
        Hashtbl.replace memo (Value.K_var x.vid) w;
        let parts =
          List.map (fun (lbl, v) -> (lbl, witness_of v)) p.Instr.incoming
        in
        Array.iteri
          (fun k var ->
            Edit.add_phi edit blk
              {
                Instr.pdst = var;
                incoming = List.map (fun (l, ws) -> (l, ws.(k))) parts;
              })
          vars;
        w
    | Dinstr (anchor, i) -> (
        match i.op with
        | Instr.Gep (base, _) ->
            (* pointer arithmetic inherits the source pointer's witness *)
            witness_of base
        | Instr.Select (_, c, a, b) ->
            let wa = witness_of a in
            let wb = witness_of b in
            Array.mapi
              (fun k (suffix, ty) ->
                Edit.emit_after edit anchor
                  ~name:(Checker.witness_name "sel" suffix)
                  ty
                  (Instr.Select (ty, c, wa.(k), wb.(k))))
              checker.Checker.components
        | Instr.Alloca { size; _ } -> checker.Checker.w_alloca ctx anchor x ~size
        | Instr.Load (ty, addr) ->
            if not (Ty.is_ptr ty) then
              invalid_arg "witness of non-pointer load";
            checker.Checker.w_load ctx anchor x ~addr
        | Instr.Cast (IntToPtr, _, _, _) -> checker.Checker.w_inttoptr ctx anchor x
        | Instr.Cast (Bitcast, from_ty, src, to_ty)
          when Ty.is_ptr from_ty && Ty.is_ptr to_ty ->
            witness_of src
        | Instr.Cast (_, _, _, _) -> checker.Checker.w_cast_other ctx x
        | Instr.Call (callee, args) -> (
            match checker.Checker.w_call ctx anchor x ~callee ~args with
            | Some w -> w
            | None -> (
                (* general call: witness comes from the call protocol *)
                match Hashtbl.find_opt call_ret anchor with
                | Some w -> w
                | None ->
                    let w = checker.Checker.w_call_fallback ctx anchor x in
                    Hashtbl.replace call_ret anchor w;
                    w))
        | _ ->
            invalid_arg
              (Printf.sprintf "witness: unexpected def %s for %s"
                 (Printer.instr_to_string i) (Value.var_to_string x)))
  in
  ctx.witness_of <- witness_of;
  (* --- checks and memops (generic; the checker spells the call) ------ *)
  let emit_memop (mo : Itarget.memop) =
    checker.Checker.emit_memop_invariant ctx mo;
    if config.sb_wrapper_checks && config.mode = Config.Full then begin
      (* the wrapper-style checks disabled by default for comparability
         (§5.1.2) *)
      let check_one ptr =
        let site = new_site ("memop@" ^ anchor_str mo.m_anchor) in
        let w = witness_of ptr in
        Edit.insert_before edit mo.m_anchor
          (Instr.mk (checker.Checker.check_op ~ptr ~width:mo.m_len w ~site))
      in
      check_one mo.m_dst;
      Option.iter check_one mo.m_src
    end
  in
  (* Returns [true] when the check was actually emitted ([false]:
     deleted by the fault plan).  A weakened check is emitted with the
     checker's wide witness, so it executes and counts but can never
     report. *)
  let emit_check (c : Itarget.check) : bool =
    let ordinal = !check_ordinal in
    check_ordinal := ordinal + 1;
    let mutation =
      Mi_faultkit.Fault.check_mutation_for faults ~func:f.fname ~ordinal
    in
    match mutation with
    | Some Mi_faultkit.Fault.Delete ->
        incr mutated;
        false
    | (None | Some Mi_faultkit.Fault.Weaken) as mutation ->
        let weakened = mutation <> None in
        if weakened then incr mutated;
        let site =
          new_site (access_name c.c_access ^ "@" ^ anchor_str c.c_anchor)
        in
        let w =
          if weakened then checker.Checker.wide else witness_of c.c_ptr
        in
        Edit.insert_before edit c.c_anchor
          (Instr.mk
             (checker.Checker.check_op ~ptr:c.c_ptr ~width:(vi64 c.c_width) w
                ~site));
        true
  in
  (* A widened preheader check stands for every iteration's access to a
     loop-invariant base; it goes through the same ordinal/mutation/site
     machinery as an in-place check (so mutation campaigns can delete or
     weaken it), distinguished by the "hoist:" construct infix. *)
  let emit_hoisted (h : Optimize.hoisted) : bool =
    let ordinal = !check_ordinal in
    check_ordinal := ordinal + 1;
    let mutation =
      Mi_faultkit.Fault.check_mutation_for faults ~func:f.fname ~ordinal
    in
    match mutation with
    | Some Mi_faultkit.Fault.Delete ->
        incr mutated;
        false
    | (None | Some Mi_faultkit.Fault.Weaken) as mutation ->
        let weakened = mutation <> None in
        if weakened then incr mutated;
        let site =
          new_site
            (access_name h.Optimize.h_access ^ "@hoist:"
            ^ anchor_str h.Optimize.h_origin)
        in
        let w =
          if weakened then checker.Checker.wide
          else witness_of h.Optimize.h_base
        in
        let ptr =
          if h.Optimize.h_min_off = 0 then h.Optimize.h_base
          else
            let dst = Edit.fresh edit ~name:"hoistp" Ty.Ptr in
            Edit.insert_at_end edit h.Optimize.h_preheader
              (Instr.mk ~dst
                 (Instr.Gep
                    ( h.Optimize.h_base,
                      [ { Instr.stride = 1; idx = vi64 h.Optimize.h_min_off } ]
                    )));
            Value.Var dst
        in
        Edit.insert_at_end edit h.Optimize.h_preheader
          (Instr.mk
             (checker.Checker.check_op ~ptr ~width:(vi64 h.Optimize.h_span) w
                ~site));
        true
  in
  (* invariants first: the call protocol pre-creates return witnesses *)
  List.iter (checker.Checker.emit_call ctx) targets.calls;
  List.iter
    (fun (s : Itarget.ptr_store) ->
      incr invariants;
      checker.Checker.emit_ptr_store ctx s)
    targets.ptr_stores;
  List.iter
    (fun (r : Itarget.ptr_ret) ->
      incr invariants;
      checker.Checker.emit_ret ctx r)
    targets.ptr_rets;
  List.iter (checker.Checker.emit_escape ctx) targets.escape_casts;
  List.iter emit_memop targets.memops;
  let placed, hoisted_placed =
    match config.mode with
    | Config.Full ->
        let placed =
          List.fold_left
            (fun n c -> if emit_check c then n + 1 else n)
            0 opt.Optimize.kept
        in
        let hoisted_placed =
          List.fold_left
            (fun n h -> if emit_hoisted h then n + 1 else n)
            0 opt.Optimize.hoisted
        in
        (placed + hoisted_placed, hoisted_placed)
    | Config.Geninvariants | Config.Noop -> (0, 0)
  in
  Edit.apply edit;
  {
    fname = f.fname;
    checks_found = opt_stats.Optimize.before;
    checks_placed = placed;
    checks_removed = Optimize.removed opt_stats;
    checks_removed_dominance = opt_stats.Optimize.removed_dominance;
    checks_removed_static = opt_stats.Optimize.removed_static;
    checks_removed_hoisted = opt_stats.Optimize.removed_hoisted;
    hoisted_checks_placed = hoisted_placed;
    invariants_placed = !invariants;
    checks_mutated = !mutated;
  }

(* ------------------------------------------------------------------ *)
(* Module-level driver                                                 *)
(* ------------------------------------------------------------------ *)

(** Instrument every defined function of [m] in place according to
    [config].  Returns static statistics (checks found/placed/eliminated
    per function) used by the §5.3 evaluation.

    When [obs] is given, the pass runs inside a tracing span (if its
    tracer records), every placed check is registered in [obs.sites]
    (the site id rides along as the check call's last argument), and the
    static statistics are absorbed into [obs.metrics] under the
    [static.*] namespace. *)
let run ?(obs : Mi_obs.Obs.t option) ?(faults = Mi_faultkit.Fault.none)
    (config : Config.t) (m : Irmod.t) : mod_stats =
  let sites =
    match obs with Some o -> o.Mi_obs.Obs.sites | None -> Mi_obs.Site.create ()
  in
  let sites_before = Mi_obs.Site.count sites in
  let instrument () =
    let per_func =
      match config.mode with
      | Config.Noop -> []
      | _ ->
          let checker = Checker.find_exn config.approach in
          let stats =
            List.map
              (fun f -> instrument_func ~faults config sites m f)
              (Irmod.defined_funcs m)
          in
          (match checker.Checker.module_ctor config m with
          | Some f -> Irmod.add_func m f
          | None -> ());
          stats
    in
    {
      per_func;
      total_checks_found =
        List.fold_left (fun a s -> a + s.checks_found) 0 per_func;
      total_checks_placed =
        List.fold_left (fun a s -> a + s.checks_placed) 0 per_func;
      total_checks_removed =
        List.fold_left (fun a s -> a + s.checks_removed) 0 per_func;
      total_checks_removed_dominance =
        List.fold_left (fun a s -> a + s.checks_removed_dominance) 0 per_func;
      total_checks_removed_static =
        List.fold_left (fun a s -> a + s.checks_removed_static) 0 per_func;
      total_checks_removed_hoisted =
        List.fold_left (fun a s -> a + s.checks_removed_hoisted) 0 per_func;
      total_hoisted_checks_placed =
        List.fold_left (fun a s -> a + s.hoisted_checks_placed) 0 per_func;
      total_invariants =
        List.fold_left (fun a s -> a + s.invariants_placed) 0 per_func;
      total_checks_mutated =
        List.fold_left (fun a s -> a + s.checks_mutated) 0 per_func;
    }
  in
  match obs with
  | None -> instrument ()
  | Some o ->
      let tr = o.Mi_obs.Obs.trace in
      (* the span and its instruction counts only when someone traces *)
      let traced = Mi_obs.Trace.recording tr in
      let name = "instrument:" ^ m.Irmod.mname in
      if traced then
        Mi_obs.Trace.begin_span tr ~cat:"instrument"
          ~args:
            [
              ( "approach",
                Mi_obs.Trace.Astr (Config.approach_name config.approach) );
              ("instrs_before", Mi_obs.Trace.Aint (Irmod.instr_count m));
            ]
          name;
      let stats =
        try instrument ()
        with e ->
          Mi_obs.Trace.end_span tr name;
          raise e
      in
      let metrics = o.Mi_obs.Obs.metrics in
      Mi_obs.Metrics.incr ~by:stats.total_checks_found metrics
        "static.checks_found";
      Mi_obs.Metrics.incr ~by:stats.total_checks_placed metrics
        "static.checks_placed";
      Mi_obs.Metrics.incr ~by:stats.total_checks_removed_dominance metrics
        "static.checks_removed_dominance";
      (* the static/hoist counters only exist when the passes are
         enabled, keeping dominance-only metric snapshots (and their
         goldens) unchanged *)
      if config.opt_static then
        Mi_obs.Metrics.incr ~by:stats.total_checks_removed_static metrics
          "static.checks_removed_static";
      if config.opt_hoist then begin
        Mi_obs.Metrics.incr ~by:stats.total_checks_removed_hoisted metrics
          "static.checks_removed_hoisted";
        Mi_obs.Metrics.incr ~by:stats.total_hoisted_checks_placed metrics
          "static.hoisted_checks_placed"
      end;
      Mi_obs.Metrics.incr ~by:stats.total_invariants metrics
        "static.invariants_placed";
      (* a compile-phase quantity: keep it in the [static.] namespace so
         cached (compile-skipping) runs don't make it cache-dependent *)
      if stats.total_checks_mutated > 0 then
        Mi_obs.Metrics.incr ~by:stats.total_checks_mutated metrics
          "static.checks_mutated";
      Mi_obs.Metrics.incr
        ~by:(Mi_obs.Site.count sites - sites_before)
        metrics "static.check_sites";
      if traced then
        Mi_obs.Trace.end_span tr
          ~args:
            [
              ("instrs_after", Mi_obs.Trace.Aint (Irmod.instr_count m));
              ("checks_placed", Mi_obs.Trace.Aint stats.total_checks_placed);
              ("checks_removed", Mi_obs.Trace.Aint stats.total_checks_removed);
              ("invariants", Mi_obs.Trace.Aint stats.total_invariants);
            ]
          name;
      stats
