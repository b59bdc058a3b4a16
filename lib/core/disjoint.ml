(** Disjoint metadata, the shared half of the SoftBound and temporal
    schemes (Table 1): a pointer's witness lives apart from the pointer,
    in a trie keyed by the location of an in-memory pointer and, across
    calls, on a shadow stack (slot 0 for the return value, slots 1.. for
    the pointer arguments in order).

    Both schemes emit the same protocol; only the intrinsics differ, so
    a checker describes its metadata once, as a {!t} naming the
    intrinsics of each witness component, and this module emits the
    call protocol, the return-slot read, the parameter and trie-load
    witnesses, the pointer-store trie update and the memcpy metadata
    copy for it.  Every witness variable it creates is named by a fixed
    prefix ([arg], [ld], [ret]) and the component's suffix. *)

open Mi_mir
module C = Checker

(** One witness component and the intrinsics that move it. *)
type component = {
  suffix : string;  (** [b] makes [argb], [ldb], [retb], [phib], ... *)
  ty : Ty.t;
  ss_get : string;  (** [(slot) -> value] *)
  ss_set : string;  (** [(slot, value)] *)
  trie_load : string;  (** [(addr) -> value] *)
}

type t = {
  components : component array;
  ss_enter : string;  (** [(nslots)] *)
  ss_leave : string;
  trie_store : string;  (** [(addr, value of each component)] *)
  meta_copy : string;  (** [(dst, src, len)] *)
}

(** The [(suffix, type)] pairs of {!Checker.t.components}. *)
let components d = Array.map (fun c -> (c.suffix, c.ty)) d.components

(* one value per component, named [prefix ^ suffix], emitted in
   component order *)
let read d emit prefix op =
  Array.map
    (fun c ->
      emit ?name:(Some (C.witness_name prefix c.suffix)) c.ty (op c))
    d.components

(* slot index of a pointer parameter on the shadow stack: 1 + its rank
   among the pointer-typed parameters *)
let ptr_param_slot (f : Func.t) idx =
  let rank = ref 0 in
  let result = ref None in
  List.iteri
    (fun i (p : Value.var) ->
      if Ty.is_ptr p.vty then begin
        incr rank;
        if i = idx then result := Some !rank
      end)
    f.params;
  !result

(** A parameter's witness: the caller pushed it on the shadow stack. *)
let w_param d (ctx : C.ctx) _x ~idx : C.witness =
  match ptr_param_slot ctx.f idx with
  | Some slot ->
      read d (Edit.emit_entry ctx.edit) "arg" (fun c ->
          C.call1 c.ss_get [ C.vi64 slot ])
  | None -> invalid_arg "ptr param without slot"

(** A loaded pointer's witness: the trie entry of its location. *)
let w_load d (ctx : C.ctx) anchor _x ~addr : C.witness =
  read d (Edit.emit_after ctx.edit anchor) "ld" (fun c ->
      C.call1 c.trie_load [ addr ])

(** The witness in the return slot, read right after the call at
    [anchor]. *)
let ret_slot d (ctx : C.ctx) anchor : C.witness =
  read d (Edit.emit_after ctx.edit anchor) "ret" (fun c ->
      C.call1 c.ss_get [ C.vi64 0 ])

(** Storing a pointer stores its witness in the trie. *)
let emit_ptr_store d (ctx : C.ctx) (s : Itarget.ptr_store) =
  let w = ctx.witness_of s.s_value in
  Edit.insert_after ctx.edit s.s_anchor
    (Instr.mk (C.call1 d.trie_store (s.s_addr :: Array.to_list w)))

(** Whether a call moves metadata: it takes or returns a pointer. *)
let crosses (c : Itarget.call) = c.l_has_ptr_ret || c.l_ptr_args <> []

(** The call protocol around a call that {!crosses}: open a frame, push
    each pointer argument's witness, take the result's witness from the
    return slot, close the frame. *)
let emit_call d (ctx : C.ctx) (c : Itarget.call) =
  if crosses c then begin
    ctx.count_invariant ();
    let before op = Edit.insert_before ctx.edit c.l_anchor (Instr.mk op) in
    before (C.call1 d.ss_enter [ C.vi64 (List.length c.l_ptr_args) ]);
    List.iteri
      (fun rank (_, v) ->
        let w = ctx.witness_of v in
        Array.iteri
          (fun k comp ->
            before (C.call1 comp.ss_set [ C.vi64 (rank + 1); w.(k) ]))
          d.components)
      c.l_ptr_args;
    if c.l_has_ptr_ret then
      ctx.set_call_ret c.l_anchor (ret_slot d ctx c.l_anchor);
    Edit.insert_after ctx.edit c.l_anchor (Instr.mk (C.call1 d.ss_leave []))
  end

(** Returning a pointer puts its witness in the return slot. *)
let emit_ret d (ctx : C.ctx) (r : Itarget.ptr_ret) =
  let w = ctx.witness_of r.r_value in
  Array.iteri
    (fun k comp ->
      Edit.insert_at_end ctx.edit r.r_block
        (Instr.mk (C.call1 comp.ss_set [ C.vi64 0; w.(k) ])))
    d.components

(** Memory copied wholesale carries its pointers' metadata along (the
    [copy_metadata] of the memcpy wrapper, Fig. 6). *)
let emit_memop_invariant d (ctx : C.ctx) (mo : Itarget.memop) =
  match mo.m_kind with
  | `Memcpy ->
      ctx.count_invariant ();
      Edit.insert_after ctx.edit mo.m_anchor
        (Instr.mk
           (C.call1 d.meta_copy [ mo.m_dst; Option.get mo.m_src; mo.m_len ]))
  | `Memset -> ()
