(** The MIR interpreter.

    Functions are precompiled into a dense executable form: SSA variables
    become slots in per-frame integer/float register banks, labels become
    block indices, phi nodes become parallel move lists on the incoming
    edges, and every operand is resolved (globals to their load addresses,
    immediates inline).  Execution charges cycles according to the
    {!Cost} model, which is what the runtime-overhead experiments
    measure.

    {2 The fast-path execution engine}

    Dynamic calls never hash a name on the hot path.  At load time every
    call site is resolved into a direct variant:

    - [XCallX] — the callee is a function of the image: the site holds a
      [ref] to its precompiled body (a ref, so mutually recursive
      functions resolve in one pass) and arguments copy straight from
      the caller's register banks into the callee's, with no boxing;
    - fused superinstructions ([XFast0]..[XFast5], [XFastR]) — the
      callee is a runtime intrinsic ({!State.register_intrinsic}) and
      the site's arity matches its typed implementation
      ({!State.fast_fn}): the call is one direct closure invocation on
      unboxed integers;
    - [XCallBuiltin] — everything else: a per-site inline cache holds
      the resolved boxed builtin (pre-warmed at load when the name is
      already registered, filled on first execution otherwise).  For an
      intrinsic that is the adapter derived from the same typed
      implementation, which traps on a malformed call.

    Caches carry the {!State.t.builtin_gen} generation they were
    resolved at; registering a builtin after load bumps the generation
    and every affected site transparently re-resolves.  The contract
    throughout: resolution strategy is invisible to the cost model —
    modeled cycles, steps, counters and site profiles are identical on
    the boxed lookup path, only wall-clock time changes. *)

open Mi_mir
module Rng = Mi_support.Rng

(* ------------------------------------------------------------------ *)
(* Executable form                                                     *)
(* ------------------------------------------------------------------ *)

type xv =
  | XI of int  (** immediate integer / resolved address *)
  | XF of float
  | XR of int  (** integer-bank register *)
  | XFR of int  (** float-bank register *)

type move = { mdst : int; mflt : bool; msrc : xv }

type builtin = State.t -> State.value array -> State.value option

(* Per-call-site inline cache for names resolved against the builtin
   table.  [bgen] is the State.builtin_gen the entry was captured at; a
   registration after load invalidates it and the site re-resolves. *)
type bcache = { mutable bgen : int; mutable bfn : builtin option }

(* Cache for a fused superinstruction's typed fast function, revalidated
   against builtin_gen exactly like [bcache]. *)
type fcache = { mutable fgen : int; mutable ffn : State.fast_fn option }

(* A fused runtime-intrinsic call; [fargs] has exactly the arity of the
   intrinsic's typed implementation. *)
type fused = {
  fname : string;  (** intrinsic name, for revalidation and fallback *)
  fdst : (bool * int) option;
  fargs : xv array;
  fc : fcache;
}

type xinstr =
  | XBin of Instr.binop * Ty.t * int * xv * xv
  | XFBin of Instr.fbinop * int * xv * xv
  | XIcmp of Instr.icmp * Ty.t * int * xv * xv
  | XFcmp of Instr.fcmp * int * xv * xv
  | XCastII of Instr.cast * Ty.t * Ty.t * int * xv
  | XSiToFp of int * xv
  | XFpToSi of Ty.t * int * xv
  | XBitsIF of int * xv  (** bitcast i64 -> f64: dst is float reg *)
  | XBitsFI of int * xv  (** bitcast f64 -> i64: dst is int reg *)
  | XLoadI of Ty.t * int * xv  (** normalized integer load *)
  | XLoadF of int * xv
  | XStoreI of int * xv * xv  (** width, value, addr *)
  | XStoreF of xv * xv
  | XGep of int * xv * (int * xv) array
  | XSelI of int * xv * xv * xv
  | XSelF of int * xv * xv * xv
  | XCallX of {
      xdst : (bool * int) option;  (** (is_float, slot) *)
      target : xfunc ref;  (** filled during [load]; no name lookup *)
      xargs : xv array;
    }
  | XCallBuiltin of {
      xdst : (bool * int) option;
      xcallee : string;
      xargs : xv array;
      cache : bcache;  (** per-site inline cache *)
    }
  | XFast5 of fused  (** __mi_sb_check (ptr, width, base, bound, site) *)
  | XFast4 of fused  (** __mi_lf_check (ptr, width, base, site) *)
  | XFast0 of fused  (** nullary effectful intrinsic: ss_leave *)
  | XFast1 of fused  (** unary effectful intrinsic: ss_enter *)
  | XFast2 of fused  (** binary effectful intrinsic: ss_set_base/bound *)
  | XFast3 of fused
      (** ternary effectful intrinsic: trie_store, meta_copy,
          lf_invariant_check, tp_check *)
  | XFastR of fused
      (** unary int-returning intrinsic: trie loads, ss_get_*, lf_base,
          lf_alloca *)
  | XAlloca of int * int * int  (** dst, size, align *)
  | XMemcpy of xv * xv * xv
  | XMemset of xv * xv * xv

and xterm =
  | XRet of xv option
  | XBr of int
  | XCbr of xv * int * int
  | XUnreachable

and xblock = {
  xinstrs : xinstr array;
  xterm : xterm;
  (* parallel phi moves to perform when entering this block, indexed by
     the predecessor block we arrive from: [||] when the block has no
     phis, otherwise one (possibly empty) move array per block index *)
  xmoves : move array array;
}

and xfunc = {
  xname : string;
  xblocks : xblock array;
  n_iregs : int;
  n_fregs : int;
  param_slots : (bool * int) array;  (** (is_float, slot) per parameter *)
  ret_is_float : bool;
  mutable xcov : Mi_obs.Coverage.fn option;
      (** coverage counters for this function, filled by [load] when the
          state carries a registry; [None] costs one option check per
          executed block.  Recording is block/edge-granular and happens
          before the block body runs, so it is identical under fast and
          generic dispatch. *)
}

type image = {
  xfuncs : (string, xfunc ref) Hashtbl.t;
  global_addr : (string, int) Hashtbl.t;
  fn_addr : (string, int) Hashtbl.t;  (** fake code addresses *)
  merged : Irmod.t;
}

(* ------------------------------------------------------------------ *)
(* Precompilation                                                      *)
(* ------------------------------------------------------------------ *)

exception Link_error of string

(* Placeholder body the per-function refs point at until [load]'s second
   pass fills them; never executed. *)
let dummy_xfunc =
  {
    xname = "<unresolved>";
    xblocks = [||];
    n_iregs = 0;
    n_fregs = 0;
    param_slots = [||];
    ret_is_float = false;
    xcov = None;
  }

(* Decide whether a call to [callee] can fuse into a superinstruction:
   the state must hold a typed intrinsic of that name and the site's
   static shape (arity, result slot, int-typed operands) must match it
   exactly.  Anything else stays a boxed call, whose adapter traps on
   the mismatch. *)
let fuse (st : State.t) callee (xdst : (bool * int) option)
    (xargs : xv array) : xinstr option =
  let ints_only =
    Array.for_all (function XI _ | XR _ -> true | XF _ | XFR _ -> false) xargs
  in
  (* [State.fast_dispatch] off: force every runtime call through the
     boxed adapter, so both call paths are differentially testable *)
  if not (st.State.fast_dispatch && ints_only) then None
  else
    match State.find_fast_builtin st callee with
    | None -> None
    | Some ff -> (
        let f =
          {
            fname = callee;
            fdst = xdst;
            fargs = xargs;
            fc = { fgen = st.State.builtin_gen; ffn = Some ff };
          }
        in
        match (ff, xdst, Array.length xargs) with
        | State.F0 _, None, 0 -> Some (XFast0 f)
        | State.F1 _, None, 1 -> Some (XFast1 f)
        | State.F2 _, None, 2 -> Some (XFast2 f)
        | State.F3 _, None, 3 -> Some (XFast3 f)
        | State.F4 _, None, 4 -> Some (XFast4 f)
        | State.F5 _, None, 5 -> Some (XFast5 f)
        | State.FR1 _, (None | Some (false, _)), 1 -> Some (XFastR f)
        | _ -> None)

let precompile_func (st : State.t) ~xfuncs ~global_addr ~fn_addr (f : Func.t)
    : xfunc =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let block_idx = Hashtbl.create n in
  Array.iteri
    (fun i (b : Block.t) -> Hashtbl.replace block_idx b.label i)
    blocks;
  let bidx l =
    match Hashtbl.find_opt block_idx l with
    | Some i -> i
    | None -> raise (Link_error (f.fname ^ ": unknown label " ^ l))
  in
  (* slot assignment *)
  let slot_of : (bool * int) Value.VTbl.t = Value.VTbl.create 64 in
  let n_i = ref 0 and n_f = ref 0 in
  let assign (v : Value.var) =
    if not (Value.VTbl.mem slot_of v) then
      if Ty.is_float v.vty then begin
        Value.VTbl.add slot_of v (true, !n_f);
        incr n_f
      end
      else begin
        Value.VTbl.add slot_of v (false, !n_i);
        incr n_i
      end
  in
  List.iter assign f.params;
  Array.iter
    (fun (b : Block.t) ->
      List.iter (fun (p : Instr.phi) -> assign p.pdst) b.phis;
      List.iter
        (fun (i : Instr.t) -> Option.iter assign i.dst)
        b.body)
    blocks;
  let slot v =
    match Value.VTbl.find_opt slot_of v with
    | Some s -> s
    | None ->
        raise
          (Link_error
             (Printf.sprintf "%s: unassigned variable %s" f.fname
                (Value.var_to_string v)))
  in
  let xval (v : Value.t) : xv =
    match v with
    | Var x ->
        let is_f, s = slot x in
        if is_f then XFR s else XR s
    | Int (_, k) -> XI k
    | Flt fl -> XF fl
    | Glob g -> (
        match Hashtbl.find_opt global_addr g with
        | Some a -> XI a
        | None -> raise (Link_error ("unresolved global @" ^ g)))
    | Fn fn -> (
        match Hashtbl.find_opt fn_addr fn with
        | Some a -> XI a
        | None -> raise (Link_error ("unresolved function &" ^ fn)))
  in
  (* discarded results share one scratch slot per bank: a fresh slot per
     dead destination would bloat n_iregs/n_fregs and with it the bank
     allocation of every call of this function *)
  let iscratch = ref (-1) and fscratch = ref (-1) in
  let int_slot ~what (d : Value.var option) =
    match d with
    | Some v ->
        let is_f, s = slot v in
        if is_f then raise (Link_error (what ^ ": float dst"));
        s
    | None ->
        if !iscratch < 0 then begin
          iscratch := !n_i;
          incr n_i
        end;
        !iscratch
  in
  let flt_slot ~what (d : Value.var option) =
    match d with
    | Some v ->
        let is_f, s = slot v in
        if not is_f then raise (Link_error (what ^ ": int dst"));
        s
    | None ->
        if !fscratch < 0 then begin
          fscratch := !n_f;
          incr n_f
        end;
        !fscratch
  in
  let xinstr (i : Instr.t) : xinstr =
    match i.op with
    | Bin (op, ty, a, b) ->
        XBin (op, ty, int_slot ~what:"bin" i.dst, xval a, xval b)
    | FBin (op, a, b) -> XFBin (op, flt_slot ~what:"fbin" i.dst, xval a, xval b)
    | Icmp (op, ty, a, b) ->
        XIcmp (op, ty, int_slot ~what:"icmp" i.dst, xval a, xval b)
    | Fcmp (op, a, b) -> XFcmp (op, int_slot ~what:"fcmp" i.dst, xval a, xval b)
    | Cast (c, from_ty, v, to_ty) -> (
        match c with
        | SiToFp -> XSiToFp (flt_slot ~what:"sitofp" i.dst, xval v)
        | FpToSi -> XFpToSi (to_ty, int_slot ~what:"fptosi" i.dst, xval v)
        | Bitcast when Ty.is_float to_ty && not (Ty.is_float from_ty) ->
            XBitsIF (flt_slot ~what:"bitcast" i.dst, xval v)
        | Bitcast when Ty.is_float from_ty && not (Ty.is_float to_ty) ->
            XBitsFI (int_slot ~what:"bitcast" i.dst, xval v)
        | _ ->
            XCastII (c, from_ty, to_ty, int_slot ~what:"cast" i.dst, xval v))
    | Load (ty, addr) ->
        if Ty.is_float ty then XLoadF (flt_slot ~what:"load" i.dst, xval addr)
        else XLoadI (ty, int_slot ~what:"load" i.dst, xval addr)
    | Store (ty, v, addr) ->
        if Ty.is_float ty then XStoreF (xval v, xval addr)
        else XStoreI (Ty.size_of ty, xval v, xval addr)
    | Gep (base, idxs) ->
        XGep
          ( int_slot ~what:"gep" i.dst,
            xval base,
            Array.of_list
              (List.map (fun gi -> (gi.Instr.stride, xval gi.Instr.idx)) idxs)
          )
    | Select (ty, c, a, b) ->
        if Ty.is_float ty then
          XSelF (flt_slot ~what:"select" i.dst, xval c, xval a, xval b)
        else XSelI (int_slot ~what:"select" i.dst, xval c, xval a, xval b)
    | Call (callee, args) -> (
        let xdst =
          match i.dst with
          | None -> None
          | Some v -> Some (slot v)
        in
        let xargs = Array.of_list (List.map xval args) in
        (* resolve now: image function > fused intrinsic > builtin cache;
           names unknown at load keep a cold cache and resolve at run
           time (or trap, with the same message the lookup path gave) *)
        match Hashtbl.find_opt xfuncs callee with
        | Some r -> XCallX { xdst; target = r; xargs }
        | None -> (
            match fuse st callee xdst xargs with
            | Some xi -> xi
            | None ->
                XCallBuiltin
                  {
                    xdst;
                    xcallee = callee;
                    xargs;
                    cache =
                      {
                        bgen = st.State.builtin_gen;
                        bfn = State.find_builtin st callee;
                      };
                  }))
    | Alloca { size; align } ->
        XAlloca (int_slot ~what:"alloca" i.dst, size, align)
    | Memcpy (d, s, n') -> XMemcpy (xval d, xval s, xval n')
    | Memset (d, b, n') -> XMemset (xval d, xval b, xval n')
  in
  let xblocks =
    Array.map
      (fun (b : Block.t) ->
        let xinstrs = Array.of_list (List.map xinstr b.body) in
        let xterm =
          match b.term with
          | Instr.Ret v -> XRet (Option.map xval v)
          | Instr.Br l -> XBr (bidx l)
          | Instr.Cbr (c, l1, l2) -> XCbr (xval c, bidx l1, bidx l2)
          | Instr.Unreachable -> XUnreachable
        in
        (xinstrs, xterm, b))
      blocks
  in
  (* phi moves: for each block with phis, one parallel move list per
     predecessor block index — entering the block is a single array read
     away from its edge's moves *)
  let final_blocks =
    Array.map
      (fun (xinstrs, xterm, (b : Block.t)) ->
        let preds = Hashtbl.create 4 in
        List.iter
          (fun (p : Instr.phi) ->
            let is_f, dslot = slot p.pdst in
            List.iter
              (fun (lbl, v) ->
                let pi = bidx lbl in
                let mv = { mdst = dslot; mflt = is_f; msrc = xval v } in
                match Hashtbl.find_opt preds pi with
                | Some l -> l := mv :: !l
                | None -> Hashtbl.add preds pi (ref [ mv ]))
              p.incoming)
          b.phis;
        let xmoves =
          if Hashtbl.length preds = 0 then [||]
          else begin
            let a = Array.make n [||] in
            Hashtbl.iter
              (fun pi l -> a.(pi) <- Array.of_list (List.rev !l))
              preds;
            a
          end
        in
        { xinstrs; xterm; xmoves })
      xblocks
  in
  {
    xname = f.fname;
    xblocks = final_blocks;
    n_iregs = !n_i;
    n_fregs = !n_f;
    param_slots =
      Array.of_list
        (List.map
           (fun p ->
             let is_f, s = slot p in
             (is_f, s))
           f.params);
    ret_is_float =
      (match f.ret_ty with Some ty -> Ty.is_float ty | None -> false);
    xcov = None;
  }

(* ------------------------------------------------------------------ *)
(* Linking and loading                                                 *)
(* ------------------------------------------------------------------ *)

(** Merge separately-compiled modules: resolve extern declarations against
    definitions from sibling modules, keep unresolved externs for the
    builtin table.  This models the paper's link step (Fig. 8). *)
let link (modules : Irmod.t list) : Irmod.t =
  let out = Irmod.mk "linked" in
  let gdefs = Hashtbl.create 32 and gdecls = Hashtbl.create 32 in
  let fdefs = Hashtbl.create 32 and fdecls = Hashtbl.create 32 in
  List.iter
    (fun (m : Irmod.t) ->
      List.iter
        (fun (g : Irmod.global) ->
          if g.gextern then begin
            if not (Hashtbl.mem gdecls g.gname) then
              Hashtbl.add gdecls g.gname g
          end
          else if Hashtbl.mem gdefs g.gname then
            raise (Link_error ("duplicate definition of global " ^ g.gname))
          else Hashtbl.add gdefs g.gname g)
        m.globals;
      List.iter
        (fun (f : Func.t) ->
          if f.is_external then begin
            if not (Hashtbl.mem fdecls f.fname) then
              Hashtbl.add fdecls f.fname f
          end
          else if Hashtbl.mem fdefs f.fname then
            raise (Link_error ("duplicate definition of function " ^ f.fname))
          else Hashtbl.add fdefs f.fname f)
        m.funcs)
    modules;
  (* definitions win over declarations; preserve first-module order *)
  let seen_g = Hashtbl.create 32 and seen_f = Hashtbl.create 32 in
  List.iter
    (fun (m : Irmod.t) ->
      List.iter
        (fun (g : Irmod.global) ->
          if not (Hashtbl.mem seen_g g.gname) then begin
            Hashtbl.add seen_g g.gname ();
            match Hashtbl.find_opt gdefs g.gname with
            | Some d -> Irmod.add_global out d
            | None -> Irmod.add_global out g
          end)
        m.globals;
      List.iter
        (fun (f : Func.t) ->
          if not (Hashtbl.mem seen_f f.fname) then begin
            Hashtbl.add seen_f f.fname ();
            match Hashtbl.find_opt fdefs f.fname with
            | Some d -> Irmod.add_func out d
            | None -> Irmod.add_func out f
          end)
        m.funcs)
    modules;
  out

(** Lay out globals and write their initializers.  [alloc_global] decides
    placement per global: return [Some addr] to place it yourself (the
    Low-Fat runtime mirrors instrumented globals into low-fat regions,
    [Duck & Yap 2018]), or [None] for the default (non-low-fat) globals
    segment.  Extern globals with no definition anywhere model
    external-library globals: they always live in the globals segment. *)
let load
    ?(alloc_global :
       (State.t -> name:string -> size:int -> align:int -> int option) option)
    (st : State.t) (modules : Irmod.t list) : image =
  let merged = link modules in
  let global_addr = Hashtbl.create 32 in
  let gbase = ref Layout.globals_base in
  let seg_alloc ~size ~align =
    let a = Mi_support.Util.align_up !gbase (max align 8) in
    gbase := a + max size 1 + 32;
    (* 32-byte gap between globals so raw overflows between distinct
       globals stay observable *)
    a
  in
  List.iter
    (fun (g : Irmod.global) ->
      let size =
        if g.gextern && (g.gsize = 0 || not g.gsize_known) then 4096
        else max g.gsize 1
      in
      let addr =
        if g.gextern then seg_alloc ~size ~align:g.galign
        else
          match alloc_global with
          | Some f -> (
              match f st ~name:g.gname ~size ~align:g.galign with
              | Some a -> a
              | None -> seg_alloc ~size ~align:g.galign)
          | None -> seg_alloc ~size ~align:g.galign
      in
      Hashtbl.replace global_addr g.gname addr)
    merged.globals;
  (* write initializers; GPtr fields need all addresses assigned first *)
  List.iter
    (fun (g : Irmod.global) ->
      if not g.gextern then begin
        let addr = Hashtbl.find global_addr g.gname in
        let off = ref 0 in
        List.iter
          (fun (fld : Irmod.gfield) ->
            (match fld with
            | GBytes s -> Memory.store_bytes st.State.mem (addr + !off) s
            | GZero _ -> () (* memory is zero-initialized *)
            | GPtr name -> (
                match Hashtbl.find_opt global_addr name with
                | Some a -> Memory.store st.State.mem (addr + !off) 8 a
                | None ->
                    raise
                      (Link_error
                         (Printf.sprintf
                            "global %s references unknown global %s" g.gname
                            name))));
            off := !off + Irmod.field_size fld)
          g.gfields
      end)
    merged.globals;
  (* fake code addresses inside the null guard so dereferencing traps *)
  let fn_addr = Hashtbl.create 32 in
  List.iteri
    (fun i (f : Func.t) -> Hashtbl.replace fn_addr f.fname (0x1000 + (i * 16)))
    merged.funcs;
  (* two passes: create one ref per defined function first, so direct
     call sites — including mutually recursive ones — resolve in the
     single precompilation pass that then fills the refs *)
  let xfuncs = Hashtbl.create 32 in
  List.iter
    (fun (f : Func.t) ->
      if not f.is_external then
        Hashtbl.replace xfuncs f.fname (ref dummy_xfunc))
    merged.funcs;
  List.iter
    (fun (f : Func.t) ->
      if not f.is_external then
        Hashtbl.find xfuncs f.fname
        := precompile_func st ~xfuncs ~global_addr ~fn_addr f)
    merged.funcs;
  (* register coverage geometry when the state carries a registry: the
     successor lists of the precompiled blocks are the stable block/edge
     id space (a conditional branch with both arms on one target is a
     single edge) *)
  (match st.State.coverage with
  | None -> ()
  | Some cov ->
      Hashtbl.iter
        (fun _ r ->
          let xf = !r in
          let succ =
            Array.map
              (fun (b : xblock) ->
                match b.xterm with
                | XRet _ | XUnreachable -> [||]
                | XBr t -> [| t |]
                | XCbr (_, t1, t2) -> if t1 = t2 then [| t1 |] else [| t1; t2 |])
              xf.xblocks
          in
          xf.xcov <-
            Some (Mi_obs.Coverage.register_fn cov ~name:xf.xname ~succ))
        xfuncs);
  { xfuncs; global_addr; fn_addr; merged }

(** [(n_iregs, n_fregs)] of a loaded function — the register-bank sizes
    every call of it allocates. *)
let func_regs (img : image) name =
  Option.map
    (fun r -> ((!r).n_iregs, (!r).n_fregs))
    (Hashtbl.find_opt img.xfuncs name)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Exited of int
  | Safety_violation of { checker : string; reason : string }
  | Trapped of string
  | Exhausted of int
      (** ran out of fuel (payload: the budget) — resource exhaustion,
          not a program error *)

type result = {
  outcome : outcome;
  cycles : int;
  steps : int;
  output : string;
  counters : (string * int) list;
  mem_pages : int;
}

(* One dynamic step: fuel accounting plus the poll-hook check that
   fault injectors and wall-clock deadlines piggyback on.  The single
   site for both the instruction loop and the terminator. *)
let[@inline] tick (st : State.t) =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then raise (State.Fuel_exhausted st.fuel);
  if st.steps >= st.next_poll_step then State.run_polls st

let ival iregs = function
  | XI k -> k
  | XR r -> iregs.(r)
  | XF _ | XFR _ -> raise (State.Trap "float operand in integer context")

let fval fregs = function
  | XF f -> f
  | XFR r -> fregs.(r)
  | XI _ | XR _ -> raise (State.Trap "int operand in float context")

let[@inline] box_arg iregs fregs = function
  | XI k -> State.I k
  | XR r -> State.I iregs.(r)
  | XF f -> State.F f
  | XFR r -> State.F fregs.(r)

(* Write a call result into the caller's banks; the error messages here
   are part of the engine's compatibility surface. *)
let set_call_result name (xdst : (bool * int) option) iregs fregs
    (res : State.value option) =
  match (xdst, res) with
  | None, _ -> ()
  | Some (is_f, s), Some v ->
      if is_f then fregs.(s) <- State.as_float v
      else iregs.(s) <- State.as_int v
  | Some _, None ->
      raise (State.Trap ("void result used from call to " ^ name))

(* Revalidate a fused site's fast function against the current builtin
   generation (one int compare on the hot path). *)
let[@inline] fused_fn (st : State.t) (f : fused) =
  if f.fc.fgen <> st.builtin_gen then begin
    f.fc.ffn <- State.find_fast_builtin st f.fname;
    f.fc.fgen <- st.builtin_gen
  end;
  f.fc.ffn

(* Cold path of a fused site: the typed intrinsic disappeared or changed
   arity after load (a builtin was re-registered).  Execute through the
   boxed builtin exactly like an [XCallBuiltin] site would. *)
let fused_slow (st : State.t) (f : fused) iregs fregs =
  let vargs = Array.map (box_arg iregs fregs) f.fargs in
  match State.find_builtin st f.fname with
  | Some fn -> set_call_result f.fname f.fdst iregs fregs (fn st vargs)
  | None -> raise (State.Trap ("unresolved external: " ^ f.fname))

(* The frame loop.  [iregs]/[fregs] are the callee's banks, already
   loaded with the arguments; the caller-facing prologues below differ
   only in where the arguments come from. *)
let rec exec_frame (st : State.t) (xf : xfunc) (iregs : int array)
    (fregs : float array) : State.value option =
  let c = st.cost in
  let saved_sp = st.stack_ptr in
  st.frame_enter_hook st;
  let finish (r : State.value option) =
    st.frame_exit_hook st;
    st.stack_ptr <- saved_sp;
    r
  in
  (* temp buffers for parallel phi moves *)
  let tmp_i = Array.make 16 0 and tmp_f = Array.make 16 0.0 in
  let result = ref None in
  (* coverage counter arrays, hoisted so the per-block recording below
     is a handful of array operations with no call; block ids come from
     the precompiled CFG the geometry was registered from, so unsafe
     indexing is in-bounds by construction.  [cov_on] costs the same
     single branch per block as the previous option match. *)
  let cov_blocks, cov_succ, cov_ebase, cov_edges =
    match xf.xcov with
    | None -> ([||], [||], [||], [||])
    | Some cov -> Mi_obs.Coverage.counters cov
  in
  let cov_on = Array.length cov_blocks > 0 in
  (try
     let cur = ref 0 and prev = ref (-1) and running = ref true in
     while !running do
       let b = xf.xblocks.(!cur) in
       (* coverage side band: block entry + traversed edge.  Never
          touches cycles/steps/counters, so enabling it cannot perturb
          any differential oracle. *)
       if cov_on then begin
         let cu = !cur in
         Array.unsafe_set cov_blocks cu (Array.unsafe_get cov_blocks cu + 1);
         let p = !prev in
         if p >= 0 then begin
           let succ = Array.unsafe_get cov_succ p in
           let base = Array.unsafe_get cov_ebase p in
           let n = Array.length succ in
           let rec edge k =
             if k < n then
               if Array.unsafe_get succ k = cu then
                 Array.unsafe_set cov_edges (base + k)
                   (Array.unsafe_get cov_edges (base + k) + 1)
               else edge (k + 1)
           in
           edge 0
         end
       end;
       (* phi moves for the edge prev -> cur, parallel semantics *)
       if !prev >= 0 && Array.length b.xmoves > 0 then begin
         let mv = b.xmoves.(!prev) in
         let n = Array.length mv in
         if n > 0 then begin
           let tmp_i = if n <= 16 then tmp_i else Array.make n 0 in
           let tmp_f = if n <= 16 then tmp_f else Array.make n 0.0 in
           for k = 0 to n - 1 do
             if mv.(k).mflt then tmp_f.(k) <- fval fregs mv.(k).msrc
             else tmp_i.(k) <- ival iregs mv.(k).msrc
           done;
           for k = 0 to n - 1 do
             if mv.(k).mflt then fregs.(mv.(k).mdst) <- tmp_f.(k)
             else iregs.(mv.(k).mdst) <- tmp_i.(k);
             st.cycles <- st.cycles + c.alu
           done
         end
       end;
       (* body *)
       let instrs = b.xinstrs in
       for k = 0 to Array.length instrs - 1 do
         tick st;
         match instrs.(k) with
         | XBin (op, ty, d, a, bb) ->
             st.cycles <-
               st.cycles
               + (match op with
                 | Mul -> c.mul
                 | SDiv | UDiv | SRem | URem -> c.div
                 | _ -> c.alu);
             let x = ival iregs a and y = ival iregs bb in
             iregs.(d) <-
               (try Eval.binop op ty x y
                with Eval.Div_by_zero ->
                  raise (State.Trap "integer division by zero"))
         | XFBin (op, d, a, bb) ->
             st.cycles <- st.cycles + c.fpu;
             fregs.(d) <- Eval.fbinop op (fval fregs a) (fval fregs bb)
         | XIcmp (op, ty, d, a, bb) ->
             st.cycles <- st.cycles + c.alu;
             iregs.(d) <- Eval.icmp op ty (ival iregs a) (ival iregs bb)
         | XFcmp (op, d, a, bb) ->
             st.cycles <- st.cycles + c.fpu;
             iregs.(d) <- Eval.fcmp op (fval fregs a) (fval fregs bb)
         | XCastII (cst, from_ty, to_ty, d, v) ->
             st.cycles <- st.cycles + c.alu;
             iregs.(d) <- Eval.cast_int cst from_ty to_ty (ival iregs v)
         | XSiToFp (d, v) ->
             st.cycles <- st.cycles + c.fpu;
             fregs.(d) <- float_of_int (ival iregs v)
         | XFpToSi (to_ty, d, v) ->
             st.cycles <- st.cycles + c.fpu;
             let f = fval fregs v in
             if Float.is_nan f then iregs.(d) <- 0
             else iregs.(d) <- Eval.normalize to_ty (int_of_float f)
         | XBitsIF (d, v) ->
             (* inverse of XBitsFI below: the integer holds the pattern's
                top 63 bits, shifted back up; bit 0 reads as zero *)
             st.cycles <- st.cycles + c.alu;
             fregs.(d) <-
               Int64.float_of_bits
                 (Int64.shift_left (Int64.of_int (ival iregs v)) 1)
         | XBitsFI (d, v) ->
             (* the IEEE pattern has 64 bits, the int substrate 63: keep
                the top 63 (sign, exponent, mantissa bits 51..1) so the
                round-trip preserves sign and magnitude to 1 ulp, and
                sign tests on the integer pattern work.  Truncating via
                Int64.to_int would instead clip the sign bit (so
                bitcast(bitcast(-1.0)) read +1.0) — same full-width
                discipline as Memory.load_i64_full. *)
             st.cycles <- st.cycles + c.alu;
             iregs.(d) <-
               Int64.to_int
                 (Int64.shift_right_logical
                    (Int64.bits_of_float (fval fregs v))
                    1)
         | XLoadI (ty, d, a) ->
             st.cycles <- st.cycles + c.load;
             let addr = ival iregs a in
             iregs.(d) <-
               Eval.normalize ty
                 (Memory.load st.mem addr (Ty.size_of ty))
         | XLoadF (d, a) ->
             st.cycles <- st.cycles + c.load;
             fregs.(d) <- Memory.load_f64 st.mem (ival iregs a)
         | XStoreI (w, v, a) ->
             st.cycles <- st.cycles + c.store;
             Memory.store st.mem (ival iregs a) w (ival iregs v)
         | XStoreF (v, a) ->
             st.cycles <- st.cycles + c.store;
             Memory.store_f64 st.mem (ival iregs a) (fval fregs v)
         | XGep (d, base, idxs) ->
             let acc = ref (ival iregs base) in
             for j = 0 to Array.length idxs - 1 do
               let stride, iv = idxs.(j) in
               acc := !acc + (stride * ival iregs iv);
               st.cycles <- st.cycles + c.gep_term
             done;
             iregs.(d) <- !acc
         | XSelI (d, cc, a, bb) ->
             st.cycles <- st.cycles + c.select;
             iregs.(d) <-
               (if ival iregs cc <> 0 then ival iregs a else ival iregs bb)
         | XSelF (d, cc, a, bb) ->
             st.cycles <- st.cycles + c.select;
             fregs.(d) <-
               (if ival iregs cc <> 0 then fval fregs a else fval fregs bb)
         | XCallX { xdst; target; xargs } ->
             st.cycles <- st.cycles + c.call_overhead;
             let callee = !target in
             let res = exec_call_regs st callee xargs iregs fregs in
             set_call_result callee.xname xdst iregs fregs res
         | XCallBuiltin { xdst; xcallee; xargs; cache } -> (
             let fn =
               if cache.bgen = st.builtin_gen then cache.bfn
               else begin
                 let f = State.find_builtin st xcallee in
                 cache.bfn <- f;
                 cache.bgen <- st.builtin_gen;
                 f
               end
             in
             match fn with
             | Some fn ->
                 let vargs = Array.map (box_arg iregs fregs) xargs in
                 set_call_result xcallee xdst iregs fregs (fn st vargs)
             | None ->
                 raise (State.Trap ("unresolved external: " ^ xcallee)))
         | XFast5 f -> (
             match fused_fn st f with
             | Some (State.F5 fn) ->
                 let a = f.fargs in
                 fn st (ival iregs a.(0)) (ival iregs a.(1))
                   (ival iregs a.(2)) (ival iregs a.(3)) (ival iregs a.(4))
             | _ -> fused_slow st f iregs fregs)
         | XFast4 f -> (
             match fused_fn st f with
             | Some (State.F4 fn) ->
                 let a = f.fargs in
                 fn st (ival iregs a.(0)) (ival iregs a.(1))
                   (ival iregs a.(2)) (ival iregs a.(3))
             | _ -> fused_slow st f iregs fregs)
         | XFast0 f -> (
             match fused_fn st f with
             | Some (State.F0 fn) -> fn st
             | _ -> fused_slow st f iregs fregs)
         | XFast1 f -> (
             match fused_fn st f with
             | Some (State.F1 fn) -> fn st (ival iregs f.fargs.(0))
             | _ -> fused_slow st f iregs fregs)
         | XFast2 f -> (
             match fused_fn st f with
             | Some (State.F2 fn) ->
                 fn st (ival iregs f.fargs.(0)) (ival iregs f.fargs.(1))
             | _ -> fused_slow st f iregs fregs)
         | XFast3 f -> (
             match fused_fn st f with
             | Some (State.F3 fn) ->
                 let a = f.fargs in
                 fn st (ival iregs a.(0)) (ival iregs a.(1))
                   (ival iregs a.(2))
             | _ -> fused_slow st f iregs fregs)
         | XFastR f -> (
             match fused_fn st f with
             | Some (State.FR1 fn) -> (
                 let r = fn st (ival iregs f.fargs.(0)) in
                 match f.fdst with
                 | None -> ()
                 | Some (_, s) -> iregs.(s) <- r)
             | _ -> fused_slow st f iregs fregs)
         | XAlloca (d, size, align) ->
             st.cycles <- st.cycles + c.alu;
             let sp =
               (st.stack_ptr - size) land lnot (max align 8 - 1)
             in
             if sp < Layout.stack_limit then
               raise (State.Trap "stack overflow");
             st.stack_ptr <- sp;
             iregs.(d) <- sp
         | XMemcpy (dv, sv, nv) ->
             let n = ival iregs nv in
             st.cycles <- st.cycles + Cost.memop_cost c n;
             Memory.copy st.mem ~dst:(ival iregs dv) ~src:(ival iregs sv) n
         | XMemset (dv, bv, nv) ->
             let n = ival iregs nv in
             st.cycles <- st.cycles + Cost.memop_cost c n;
             Memory.fill st.mem ~dst:(ival iregs dv)
               ~byte:(ival iregs bv land 0xff)
               n
       done;
       (* terminator *)
       tick st;
       (match b.xterm with
       | XRet v ->
           result :=
             (match v with
             | None -> None
             | Some xv ->
                 Some
                   (if xf.ret_is_float then State.F (fval fregs xv)
                    else State.I (ival iregs xv)));
           running := false
       | XBr t ->
           st.cycles <- st.cycles + c.branch;
           prev := !cur;
           cur := t
       | XCbr (cc, t1, t2) ->
           st.cycles <- st.cycles + c.branch;
           prev := !cur;
           cur := if ival iregs cc <> 0 then t1 else t2
       | XUnreachable ->
           raise (State.Trap ("reached unreachable in " ^ xf.xname)))
     done
   with e ->
     ignore (finish None);
     raise e);
  finish !result

(* Boxed-argument entry: [run] below and embedders call functions this
   way; arguments arrive as {!State.value}s. *)
and exec_call (st : State.t) (xf : xfunc) (args : State.value array) :
    State.value option =
  if Array.length args <> Array.length xf.param_slots then
    raise
      (State.Trap
         (Printf.sprintf "call to %s with %d args, expected %d" xf.xname
            (Array.length args)
            (Array.length xf.param_slots)));
  let iregs = Array.make (max xf.n_iregs 1) 0 in
  let fregs = Array.make (max xf.n_fregs 1) 0.0 in
  Array.iteri
    (fun i (is_f, s) ->
      match args.(i) with
      | State.I v ->
          if is_f then raise (State.Trap "int arg for float param")
          else iregs.(s) <- v
      | State.F v ->
          if is_f then fregs.(s) <- v
          else raise (State.Trap "float arg for int param"))
    xf.param_slots;
  exec_frame st xf iregs fregs

(* Direct entry for [XCallX]: arguments copy from the caller's banks
   into the callee's without materializing a boxed value array. *)
and exec_call_regs (st : State.t) (xf : xfunc) (xargs : xv array)
    (ciregs : int array) (cfregs : float array) : State.value option =
  if Array.length xargs <> Array.length xf.param_slots then
    raise
      (State.Trap
         (Printf.sprintf "call to %s with %d args, expected %d" xf.xname
            (Array.length xargs)
            (Array.length xf.param_slots)));
  let iregs = Array.make (max xf.n_iregs 1) 0 in
  let fregs = Array.make (max xf.n_fregs 1) 0.0 in
  Array.iteri
    (fun i (is_f, s) ->
      match xargs.(i) with
      | XI k ->
          if is_f then raise (State.Trap "int arg for float param")
          else iregs.(s) <- k
      | XR r ->
          if is_f then raise (State.Trap "int arg for float param")
          else iregs.(s) <- ciregs.(r)
      | XF f ->
          if is_f then fregs.(s) <- f
          else raise (State.Trap "float arg for int param")
      | XFR r ->
          if is_f then fregs.(s) <- cfregs.(r)
          else raise (State.Trap "float arg for int param"))
    xf.param_slots;
  exec_frame st xf iregs fregs

let merged_module (img : image) = img.merged

(** Run function [entry] (default ["main"]).  If the image defines
    [__mi_global_init], it runs first (SoftBound metadata for pointers in
    global initializers — the constructor the instrumentation emits). *)
let run ?(entry = "main") (st : State.t) (img : image) : result =
  let outcome =
    try
      (match Hashtbl.find_opt img.xfuncs "__mi_global_init" with
      | Some f -> ignore (exec_call st !f [||])
      | None -> ());
      match Hashtbl.find_opt img.xfuncs entry with
      | None -> Trapped ("no entry function " ^ entry)
      | Some f -> (
          match exec_call st !f [||] with
          | Some (State.I code) -> Exited code
          | Some (State.F _) -> Exited 0
          | None -> Exited 0)
    with
    | State.Exit_program code -> Exited code
    | State.Safety_abort { checker; reason } ->
        Safety_violation { checker; reason }
    | State.Trap msg -> Trapped msg
    | State.Fuel_exhausted budget -> Exhausted budget
    | Memory.Fault (addr, msg) ->
        Trapped (Printf.sprintf "memory fault at %#x: %s" addr msg)
  in
  (* fold the execution-level quantities into the metrics namespace so a
     single serialized registry describes the whole run *)
  Mi_obs.Metrics.set_gauge st.metrics "vm.cycles" st.cycles;
  Mi_obs.Metrics.set_gauge st.metrics "vm.steps" st.steps;
  Mi_obs.Metrics.set_gauge st.metrics "vm.mem_pages" st.mem.Memory.page_count;
  {
    outcome;
    cycles = st.cycles;
    steps = st.steps;
    output = State.output st;
    counters = State.counters_alist st;
    mem_pages = st.mem.Memory.page_count;
  }
