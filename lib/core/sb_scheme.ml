(** The SoftBound checker scheme (Nagarakatte et al., PLDI'09): witnesses
    are [(base, bound)] pairs, in-memory pointers keep their bounds in a
    disjoint trie keyed by the pointer's location, and bounds cross calls
    on a shadow stack (Table 1 row "SoftBound"). *)

open Mi_mir
module C = Checker

let vi64 = C.vi64
let vptr = C.vptr
let call1 = C.call1
let wide = [| vptr 0; vptr C.wide_bound |]
let null_w = [| vptr 0; vptr 0 |]

(* bounds live in the trie and cross calls on the shadow stack *)
let disjoint : Disjoint.t =
  {
    components =
      [|
        {
          suffix = "b";
          ty = Ty.Ptr;
          ss_get = Intrinsics.ss_get_base;
          ss_set = Intrinsics.ss_set_base;
          trie_load = Intrinsics.sb_trie_load_base;
        };
        {
          suffix = "e";
          ty = Ty.Ptr;
          ss_get = Intrinsics.ss_get_bound;
          ss_set = Intrinsics.ss_set_bound;
          trie_load = Intrinsics.sb_trie_load_bound;
        };
      |];
    ss_enter = Intrinsics.ss_enter;
    ss_leave = Intrinsics.ss_leave;
    trie_store = Intrinsics.sb_trie_store;
    meta_copy = Intrinsics.sb_meta_copy;
  }

let w_global (ctx : C.ctx) g : C.witness =
  match Irmod.find_global ctx.m g with
  | None ->
      (* global from another module we cannot see; size unknown *)
      if ctx.config.Config.sb_size_zero_wide_upper then
        [| Value.Glob g; vptr C.wide_bound |]
      else null_w
  | Some gl ->
      if gl.gsize_known then
        (* bound = @g + size, materialized once at function entry *)
        let bound =
          Edit.emit_entry ctx.edit ~name:"gbound" Ty.Ptr
            (Instr.Gep (Value.Glob g, [ { stride = 1; idx = vi64 gl.gsize } ]))
        in
        [| Value.Glob g; bound |]
      else if ctx.config.Config.sb_size_zero_wide_upper then
        (* §4.3: size-zero extern array declaration -> wide upper bound *)
        [| Value.Glob g; vptr C.wide_bound |]
      else null_w

let w_alloca (ctx : C.ctx) anchor x ~size : C.witness =
  let bound =
    Edit.emit_after ctx.edit anchor ~name:"abound" Ty.Ptr
      (Instr.Gep (Value.Var x, [ { stride = 1; idx = vi64 size } ]))
  in
  [| Value.Var x; bound |]

let w_inttoptr (ctx : C.ctx) _anchor _x : C.witness =
  (* §4.4: no metadata survives the round trip through an integer; the
     policy decides between wide and null bounds *)
  if ctx.config.Config.sb_inttoptr_wide then wide else null_w

let w_call (ctx : C.ctx) anchor x ~callee ~args : C.witness option =
  match callee with
  | "malloc" ->
      let bound =
        Edit.emit_after ctx.edit anchor ~name:"mbound" Ty.Ptr
          (Instr.Gep (Value.Var x, [ { stride = 1; idx = List.nth args 0 } ]))
      in
      Some [| Value.Var x; bound |]
  | "calloc" ->
      let total =
        Edit.emit_after ctx.edit anchor ~name:"csz" Ty.I64
          (Instr.Bin (Mul, Ty.I64, List.nth args 0, List.nth args 1))
      in
      let bound =
        Edit.emit_after ctx.edit anchor ~name:"cbound" Ty.Ptr
          (Instr.Gep (Value.Var x, [ { stride = 1; idx = total } ]))
      in
      Some [| Value.Var x; bound |]
  | _ -> None

let w_call_fallback (ctx : C.ctx) anchor _x : C.witness =
  (* no protocol was set up (e.g. an unwrapped builtin that returns a
     pointer): SoftBound reads the — possibly stale — return slot of the
     shadow stack; exactly the §4.3 hazard *)
  Disjoint.ret_slot disjoint ctx anchor

let emit_call (ctx : C.ctx) (c : Itarget.call) =
  match c.l_kind with
  | Itarget.Runtime_internal | Itarget.Known_alloc | Itarget.Plain_builtin ->
      ()
  | Itarget.Wrapped | Itarget.General ->
      Disjoint.emit_call disjoint ctx c;
      (* wrapped libc functions are replaced by their metadata-
         maintaining wrapper (Fig. 6) *)
      if c.l_kind = Itarget.Wrapped && Disjoint.crosses c then
        Edit.set_replacement ctx.edit c.l_anchor
          (Instr.mk ?dst:c.l_dst
             (Instr.Call (Intrinsics.sb_wrapper c.l_callee, c.l_args)))

let check_op ~ptr ~width (w : C.witness) ~site =
  call1 Intrinsics.sb_check [ ptr; width; w.(0); w.(1); site ]

(* SoftBound constructor: register trie metadata for pointers appearing in
   global initializers, so loads of those pointers find valid bounds. *)
let global_init (m : Irmod.t) : Func.t option =
  let entries =
    List.concat_map
      (fun (g : Irmod.global) ->
        if g.gextern then []
        else
          let _, acc =
            List.fold_left
              (fun (off, acc) (fld : Irmod.gfield) ->
                match fld with
                | Irmod.GPtr target -> (off + 8, (g.gname, off, target) :: acc)
                | f -> (off + Irmod.field_size f, acc))
              (0, []) g.gfields
          in
          List.rev acc)
      m.globals
  in
  if entries = [] then None
  else begin
    let b = Builder.create ~name:"__mi_global_init" ~params:[] ~ret_ty:None in
    Builder.start_block b "entry";
    List.iter
      (fun (holder, off, target) ->
        let loc =
          Builder.gep b (Value.Glob holder) [ { stride = 1; idx = vi64 off } ]
        in
        let size =
          match Irmod.find_global m target with
          | Some tg when tg.gsize_known -> Some tg.gsize
          | _ -> None
        in
        let base = Value.Glob target in
        let bound =
          match size with
          | Some s -> Builder.gep b base [ { stride = 1; idx = vi64 s } ]
          | None -> vptr C.wide_bound
        in
        ignore
          (Builder.call b ~ret:None Intrinsics.sb_trie_store
             [ loc; base; bound ]))
      entries;
    Builder.ret b None;
    Some (Builder.finish b)
  end

let checker : C.t =
  {
    name = "softbound";
    aliases = [ "sb" ];
    descr = "SoftBound: disjoint (base, bound) metadata, trie + shadow stack";
    counter_ns = "sb";
    table_name = "SoftBound";
    basis = Config.softbound;
    components = Disjoint.components disjoint;
    guarantees = [ C.Spatial ];
    precision = C.Exact;
    wide;
    w_const = (fun _ _ -> null_w);
    w_global;
    w_param = Disjoint.w_param disjoint;
    w_alloca;
    w_load = Disjoint.w_load disjoint;
    w_inttoptr;
    w_cast_other = (fun _ _ -> null_w);
    w_call;
    w_call_fallback;
    emit_ptr_store = Disjoint.emit_ptr_store disjoint;
    emit_call;
    emit_ret = Disjoint.emit_ret disjoint;
    emit_escape = (fun _ _ -> ());
    emit_memop_invariant = Disjoint.emit_memop_invariant disjoint;
    check_op;
    prepare_func = (fun _ _ -> ());
    module_ctor = (fun _ m -> global_init m);
  }

let register () = C.register checker
