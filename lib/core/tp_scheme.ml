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

(* keys live in the temporal trie and cross calls on the temporal
   shadow stack *)
let disjoint : Disjoint.t =
  {
    components =
      [|
        {
          suffix = "key";
          ty = Ty.I64;
          ss_get = Intrinsics.tp_ss_get;
          ss_set = Intrinsics.tp_ss_set;
          trie_load = Intrinsics.tp_trie_load;
        };
      |];
    ss_enter = Intrinsics.tp_ss_enter;
    ss_leave = Intrinsics.tp_ss_leave;
    trie_store = Intrinsics.tp_trie_store;
    meta_copy = Intrinsics.tp_meta_copy;
  }

(* key of the (live) allocation a just-returned allocator result points
   at, read back from the runtime's key table *)
let alloc_key (ctx : C.ctx) anchor x : C.witness =
  let k =
    Edit.emit_after ctx.edit anchor ~name:"akey" Ty.I64
      (call1 Intrinsics.tp_alloc_key [ Value.Var x ])
  in
  [| k |]

let w_call (ctx : C.ctx) anchor x ~callee ~args:_ : C.witness option =
  match callee with
  | "malloc" | "calloc" | "realloc" -> Some (alloc_key ctx anchor x)
  | name when name = Intrinsics.tp_alloca -> Some (alloc_key ctx anchor x)
  | _ -> None

let emit_call (ctx : C.ctx) (c : Itarget.call) =
  (* key propagation only matters for callees that are themselves
     instrumented: builtins neither read argument keys nor set the
     return slot (the zeroed frame makes their results untracked, which
     [w_call] refines for the known allocators) *)
  match c.l_kind with
  | Itarget.Runtime_internal | Itarget.Known_alloc | Itarget.Plain_builtin
  | Itarget.Wrapped ->
      ()
  | Itarget.General -> Disjoint.emit_call disjoint ctx c

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
    components = Disjoint.components disjoint;
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
    w_param = Disjoint.w_param disjoint;
    w_alloca =
      (fun _ _ _ ~size:_ ->
        (* unreachable: [prepare_func] turns every alloca into a keyed
           [__mi_tp_alloca] call *)
        untracked);
    w_load = Disjoint.w_load disjoint;
    w_inttoptr = (fun _ _ _ -> untracked);
    w_cast_other = (fun _ _ -> untracked);
    w_call;
    w_call_fallback = (fun _ _ _ -> untracked);
    emit_ptr_store = Disjoint.emit_ptr_store disjoint;
    emit_call;
    emit_ret = Disjoint.emit_ret disjoint;
    emit_escape = (fun _ _ -> ());
    emit_memop_invariant = Disjoint.emit_memop_invariant disjoint;
    check_op;
    prepare_func = (fun _ f -> C.replace_allocas Intrinsics.tp_alloca f);
    module_ctor = (fun _ _ -> None);
  }

let register () = C.register checker
