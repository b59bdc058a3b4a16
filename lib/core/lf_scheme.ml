(** The Low-Fat Pointers checker scheme (Duck & Yap, CC'16): the witness
    is the allocation base pointer, recomputed from any in-bounds pointer
    by masking; the invariant (pointers stay in bounds) is established by
    escape checks at stores, calls, returns and pointer-to-integer casts
    (Table 1 row "Low-Fat"). *)

open Mi_mir
module C = Checker

let vptr = C.vptr
let call1 = C.call1

let lf_base_of (ctx : C.ctx) anchor name v : C.witness =
  let b =
    Edit.emit_after ctx.edit anchor ~name Ty.Ptr
      (call1 Intrinsics.lf_base [ v ])
  in
  [| b |]

let w_param (ctx : C.ctx) x ~idx:_ : C.witness =
  (* rely on the invariant: incoming pointers are in bounds, so the base
     can be recomputed from the value (§3.3) *)
  let b =
    Edit.emit_entry ctx.edit ~name:"argbase" Ty.Ptr
      (call1 Intrinsics.lf_base [ Value.Var x ])
  in
  [| b |]

let w_call (_ctx : C.ctx) _anchor x ~callee ~args:_ : C.witness option =
  match callee with
  | "malloc" | "calloc" | "realloc" -> Some [| Value.Var x |]
  | name when name = Intrinsics.lf_alloca -> Some [| Value.Var x |]
  | _ -> None

let invariant_check (ctx : C.ctx) ~before ~construct v =
  ctx.count_invariant ();
  let w = ctx.witness_of v in
  let site = ctx.new_site construct in
  let instr = Instr.mk (call1 Intrinsics.lf_invariant_check [ v; w.(0); site ]) in
  before instr

let emit_ptr_store (ctx : C.ctx) (s : Itarget.ptr_store) =
  (* ptr_store invariants are counted by the generic driver *)
  let w = ctx.witness_of s.s_value in
  let site = ctx.new_site ("ptr-store@" ^ C.anchor_str s.s_anchor) in
  Edit.insert_before ctx.edit s.s_anchor
    (Instr.mk (call1 Intrinsics.lf_invariant_check [ s.s_value; w.(0); site ]))

let emit_call (ctx : C.ctx) (c : Itarget.call) =
  (* establish the invariant: pointers passed to callees are in bounds *)
  List.iter
    (fun (idx, v) ->
      invariant_check ctx
        ~before:(fun i -> Edit.insert_before ctx.edit c.l_anchor i)
        ~construct:
          ("call-arg" ^ string_of_int idx ^ "@" ^ C.anchor_str c.l_anchor)
        v)
    c.l_ptr_args

let emit_ret (ctx : C.ctx) (r : Itarget.ptr_ret) =
  let w = ctx.witness_of r.r_value in
  let site = ctx.new_site ("ret@" ^ r.r_block) in
  Edit.insert_at_end ctx.edit r.r_block
    (Instr.mk (call1 Intrinsics.lf_invariant_check [ r.r_value; w.(0); site ]))

let emit_escape (ctx : C.ctx) (e : Itarget.ptr_escape_cast) =
  (* §4.4: check at pointer-to-integer casts *)
  invariant_check ctx
    ~before:(fun i -> Edit.insert_before ctx.edit e.e_anchor i)
    ~construct:("ptrtoint@" ^ C.anchor_str e.e_anchor)
    e.e_ptr

let check_op ~ptr ~width (w : C.witness) ~site =
  call1 Intrinsics.lf_check [ ptr; width; w.(0); site ]

let checker : C.t =
  {
    name = "lowfat";
    aliases = [ "lf" ];
    descr = "Low-Fat Pointers: size-class regions, base recomputation";
    counter_ns = "lf";
    table_name = "Low-Fat";
    basis = Config.lowfat;
    components = [| ("phibase", "selbase", Ty.Ptr) |];
    guarantees = [ C.Spatial ];
    precision = C.Size_class;
    (* a non-low-fat base: the check treats it as wide and never reports *)
    wide = [| vptr 0 |];
    w_const = (fun _ v -> [| v |]);
    w_global = (fun _ g -> [| Value.Glob g |]);
    w_param;
    w_alloca =
      (fun _ _ x ~size:_ ->
        (* reachable only with lf_stack protection off: conventional stack
           addresses are outside the low-fat regions, so the check treats
           them as wide (§4.6) *)
        [| Value.Var x |]);
    w_load =
      (fun ctx anchor x ~addr:_ ->
        (* rely on the invariant: loaded pointers are in bounds *)
        lf_base_of ctx anchor "ldbase" (Value.Var x));
    w_inttoptr =
      (fun ctx anchor x ->
        (* §4.4: Low-Fat assumes the integer still encodes an in-bounds
           pointer and recomputes — unsound if it was corrupted in the
           meantime *)
        lf_base_of ctx anchor "i2pbase" (Value.Var x));
    w_cast_other = (fun _ x -> [| Value.Var x |]);
    w_call;
    w_call_fallback =
      (fun ctx anchor x -> lf_base_of ctx anchor "retbase" (Value.Var x));
    emit_ptr_store;
    emit_call;
    emit_ret;
    emit_escape;
    emit_memop_invariant = (fun _ _ -> ());
    check_op;
    prepare_func =
      (fun config f ->
        if config.Config.lf_stack then
          C.replace_allocas Intrinsics.lf_alloca f);
    module_ctor = (fun _ _ -> None);
  }

let register () = C.register checker
