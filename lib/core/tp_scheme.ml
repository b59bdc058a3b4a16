(** The temporal lock-and-key checker scheme (CETS-style; Zhou/Criswell/
    Hicks' fat-pointer temporal safety informs the witness shape, MESH
    the allocator side).

    The witness of a pointer is a single i64 {e key} naming its
    allocation: every allocation gets a fresh, never-reused key from the
    runtime; [free] (and frame exit, for keyed stack variables) kills
    the key; a dereference check tests that the key is still live.  In-
    memory pointers keep their key in a disjoint trie keyed by the
    pointer's location (like SoftBound's bounds trie), and keys cross
    calls on a dedicated shadow stack whose frames are {e zero-
    initialized} — an uninstrumented callee yields key 0 ("untracked",
    the temporal analog of wide bounds: counted, never reported) instead
    of a stale key, so metadata gaps degrade to unprotected accesses,
    never to false reports.

    Sources that carry no allocation identity (constants, globals,
    integer-to-pointer casts, non-pointer casts) are untracked: temporal
    safety of objects with static storage duration is trivial, and no
    key survives a round trip through an integer. *)

open Mi_mir
module C = Checker

let vi64 = C.vi64
let call1 = C.call1

(* key 0: untracked — the check counts it wide and never aborts *)
let untracked : C.witness = [| vi64 0 |]

(* key of the (live) allocation a just-returned allocator result points
   at, read back from the runtime's key table *)
let alloc_key (ctx : C.ctx) anchor x : C.witness =
  let k =
    Edit.emit_after ctx.edit anchor ~name:"akey" Ty.I64
      (call1 Intrinsics.tp_alloc_key [ Value.Var x ])
  in
  [| k |]

let w_param (ctx : C.ctx) _x ~idx : C.witness =
  match C.ptr_param_slot ctx.f idx with
  | Some slot ->
      (* rely on the invariant: instrumented callers push argument keys
         on the temporal shadow stack; others leave the zeroed frame *)
      let k =
        Edit.emit_entry ctx.edit ~name:"argkey" Ty.I64
          (call1 Intrinsics.tp_ss_get [ vi64 slot ])
      in
      [| k |]
  | None -> invalid_arg "ptr param without slot"

let w_call (ctx : C.ctx) anchor x ~callee ~args:_ : C.witness option =
  match callee with
  | "malloc" | "calloc" | "realloc" -> Some (alloc_key ctx anchor x)
  | name when name = Intrinsics.tp_alloca -> Some (alloc_key ctx anchor x)
  | _ -> None

let emit_ptr_store (ctx : C.ctx) (s : Itarget.ptr_store) =
  let w = ctx.witness_of s.s_value in
  Edit.insert_after ctx.edit s.s_anchor
    (Instr.mk (call1 Intrinsics.tp_trie_store [ s.s_addr; w.(0) ]))

let emit_call (ctx : C.ctx) (c : Itarget.call) =
  (* key propagation only matters for callees that are themselves
     instrumented: builtins neither read argument keys nor set the
     return slot (the zeroed frame makes their results untracked, which
     [w_call] refines for the known allocators) *)
  match c.l_kind with
  | Itarget.Runtime_internal | Itarget.Known_alloc | Itarget.Plain_builtin
  | Itarget.Wrapped ->
      ()
  | Itarget.General ->
      let needs = c.l_has_ptr_ret || c.l_ptr_args <> [] in
      if needs then begin
        ctx.count_invariant ();
        let nslots = List.length c.l_ptr_args in
        Edit.insert_before ctx.edit c.l_anchor
          (Instr.mk (call1 Intrinsics.tp_ss_enter [ vi64 nslots ]));
        List.iteri
          (fun rank (_, v) ->
            let w = ctx.witness_of v in
            Edit.insert_before ctx.edit c.l_anchor
              (Instr.mk (call1 Intrinsics.tp_ss_set [ vi64 (rank + 1); w.(0) ])))
          c.l_ptr_args;
        (if c.l_has_ptr_ret then
           let k =
             Edit.emit_after ctx.edit c.l_anchor ~name:"retkey" Ty.I64
               (call1 Intrinsics.tp_ss_get [ vi64 0 ])
           in
           ctx.set_call_ret c.l_anchor [| k |]);
        Edit.insert_after ctx.edit c.l_anchor
          (Instr.mk (call1 Intrinsics.tp_ss_leave []))
      end

let emit_ret (ctx : C.ctx) (r : Itarget.ptr_ret) =
  let w = ctx.witness_of r.r_value in
  Edit.insert_at_end ctx.edit r.r_block
    (Instr.mk (call1 Intrinsics.tp_ss_set [ vi64 0; w.(0) ]))

let emit_memop_invariant (ctx : C.ctx) (mo : Itarget.memop) =
  match mo.m_kind with
  | `Memcpy ->
      (* keys of pointers copied wholesale move with them *)
      ctx.count_invariant ();
      Edit.insert_after ctx.edit mo.m_anchor
        (Instr.mk
           (call1 Intrinsics.tp_meta_copy
              [ mo.m_dst; Option.get mo.m_src; mo.m_len ]))
  | `Memset -> ()

let check_op ~ptr ~width:_ (w : C.witness) ~site =
  (* temporal checks are width-independent: any byte of a dead object is
     a use-after-free *)
  call1 Intrinsics.tp_check [ ptr; w.(0); site ]

let checker : C.t =
  {
    name = "temporal";
    aliases = [ "tp"; "cets" ];
    descr = "Temporal lock-and-key: use-after-free / double-free detection";
    counter_ns = "tp";
    table_name = "Temporal";
    basis = Config.temporal;
    components = [| ("phikey", "selkey", Ty.I64) |];
    (* temporal hazards veto check elimination ([C.check_elim_sound]):
       a free() between two accesses kills the key a dominating or
       hoisted check proved live, so "optimized" temporal configs are
       sound no-ops (see DESIGN.md) *)
    guarantees = [ C.Uaf; C.Double_free ];
    (* a key covers exactly one allocation; unread, as no spatial
       hazard is guaranteed *)
    precision = C.Exact;
    wide = untracked;
    w_const = (fun _ _ -> untracked);
    w_global = (fun _ _ -> untracked);
    w_param;
    w_alloca =
      (fun _ _ _ ~size:_ ->
        (* unreachable: [prepare_func] turns every alloca into a keyed
           [__mi_tp_alloca] call *)
        untracked);
    w_load =
      (fun ctx anchor _x ~addr ->
        (* in-memory pointers carry their key in the temporal trie *)
        let k =
          Edit.emit_after ctx.edit anchor ~name:"ldkey" Ty.I64
            (call1 Intrinsics.tp_trie_load [ addr ])
        in
        [| k |]);
    w_inttoptr = (fun _ _ _ -> untracked);
    w_cast_other = (fun _ _ -> untracked);
    w_call;
    w_call_fallback = (fun _ _ _ -> untracked);
    emit_ptr_store;
    emit_call;
    emit_ret;
    emit_escape = (fun _ _ -> ());
    emit_memop_invariant;
    check_op;
    prepare_func = (fun _ f -> C.replace_allocas Intrinsics.tp_alloca f);
    module_ctor = (fun _ _ -> None);
  }

let register () = C.register checker
