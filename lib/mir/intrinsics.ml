(** Registry of runtime functions the instrumentation and the VM know
    about, with the effect information the optimizer needs.

    Instrumentation code is inserted as calls to these functions (the
    paper's "calls to check functions", Fig. 8): checks may abort the
    program and therefore act as barriers for code motion, while metadata
    loads are removable when their result is unused — the exact property
    the paper observes when the compiler deletes unused trie loads
    (§5.4). *)

(* --- memory-safety runtime ---------------------------------------- *)

(* SoftBound *)
let sb_check = "__mi_sb_check" (* (ptr, width, base, bound) *)
let sb_trie_load_base = "__mi_sb_trie_load_base" (* (addr) -> ptr *)
let sb_trie_load_bound = "__mi_sb_trie_load_bound" (* (addr) -> ptr *)
let sb_trie_store = "__mi_sb_trie_store" (* (addr, base, bound) *)
let sb_meta_copy = "__mi_sb_meta_copy" (* (dst, src, len) *)

(* shadow stack (shared protocol; only SoftBound uses it) *)
let ss_enter = "__mi_ss_enter" (* (nslots) *)
let ss_leave = "__mi_ss_leave" (* () *)
let ss_set_base = "__mi_ss_set_base" (* (slot, base) *)
let ss_set_bound = "__mi_ss_set_bound" (* (slot, bound) *)
let ss_get_base = "__mi_ss_get_base" (* (slot) -> ptr *)
let ss_get_bound = "__mi_ss_get_bound" (* (slot) -> ptr *)

(* Low-Fat Pointers *)
let lf_check = "__mi_lf_check" (* (ptr, width, base) *)
let lf_invariant_check = "__mi_lf_invariant_check" (* (ptr) escape check *)
let lf_base = "__mi_lf_base" (* (ptr) -> ptr : recompute base *)
let lf_alloca = "__mi_lf_alloca" (* (size) -> ptr : mirrored stack alloc *)

(* Temporal lock-and-key (CETS-style): every allocation gets a fresh,
   never-reused key; [free] kills the key; a dereference check tests the
   key's liveness.  Key 0 means "untracked" (globals, integers cast to
   pointers, uninstrumented callees) and always passes — the temporal
   analog of wide bounds. *)
let tp_check = "__mi_tp_check" (* (ptr, key) *)
let tp_alloc_key = "__mi_tp_alloc_key" (* (base) -> key of live allocation *)
let tp_trie_load = "__mi_tp_trie_load" (* (addr) -> key *)
let tp_trie_store = "__mi_tp_trie_store" (* (addr, key) *)
let tp_meta_copy = "__mi_tp_meta_copy" (* (dst, src, len) *)
let tp_alloca = "__mi_tp_alloca" (* (size) -> ptr : keyed stack alloc *)

(* temporal shadow stack (key per pointer argument / return; frames are
   zero-initialized so uninstrumented callees yield key 0, not stale keys) *)
let tp_ss_enter = "__mi_tp_ss_enter" (* (nslots) *)
let tp_ss_leave = "__mi_tp_ss_leave" (* () *)
let tp_ss_set = "__mi_tp_ss_set" (* (slot, key) *)
let tp_ss_get = "__mi_tp_ss_get" (* (slot) -> key *)

(* global-bounds helper: bounds of a global by address (for SoftBound
   globals whose size the module knows) *)
let global_size = "__mi_global_size" (* (addr) -> i64 *)

(* --- C library / OS builtins implemented by the VM ------------------ *)

let c_library =
  [
    "malloc"; "calloc"; "realloc"; "free";
    "memcmp"; "strlen"; "strcpy"; "strncpy"; "strcmp"; "strcat"; "strchr";
    "abs"; "labs";
    "print_int"; "print_f64"; "print_str"; "putchar"; "print_newline";
    "mi_rand"; "mi_srand";
    "exit"; "abort";
    "sqrt"; "fabs"; "sin"; "cos"; "exp"; "log"; "floor"; "ceil"; "pow";
  ]

(* SoftBound wrappers for C library functions that handle pointers in
   memory or return pointers (Fig. 6 of the paper). *)
let sb_wrapped = [ "strcpy"; "strncpy"; "strcat"; "strchr"; "realloc" ]

let sb_wrapper name = "__sbw_" ^ name

(* ------------------------------------------------------------------ *)

type effect_class =
  | Pure  (** no side effect, no memory read; removable and movable *)
  | Read_meta
      (** reads instrumentation metadata (trie / shadow stack); removable
          when unused, but not movable across metadata writes or calls *)
  | Effectful  (** writes memory or metadata, or performs I/O *)
  | May_abort  (** may terminate the program: checks, [abort], [exit] *)
  | Allocating  (** returns fresh memory: [malloc] and friends *)

(* one table lookup per call: passes classify every call they visit *)
let classes : (string, effect_class) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (cls, names) -> List.iter (fun n -> Hashtbl.replace t n cls) names)
    [
      (May_abort, [ sb_check; lf_check; lf_invariant_check; tp_check ]);
      (Pure, [ lf_base; global_size ]);
      ( Read_meta,
        [
          sb_trie_load_base; sb_trie_load_bound; ss_get_base; ss_get_bound;
          tp_alloc_key; tp_trie_load; tp_ss_get;
        ] );
      ( Effectful,
        [
          sb_trie_store; sb_meta_copy; ss_enter; ss_leave; ss_set_base;
          ss_set_bound; tp_trie_store; tp_meta_copy; tp_ss_enter; tp_ss_leave;
          tp_ss_set;
        ] );
      (Allocating, [ "malloc"; "calloc"; "realloc"; lf_alloca; tp_alloca ]);
      (May_abort, [ "abort"; "exit" ]);
      (* memcmp/strlen/strcmp read user memory; we separately flag them as
         memory readers in [reads_memory] below *)
      ( Pure,
        [
          "memcmp"; "strlen"; "strcmp"; "abs"; "labs"; "mi_rand"; "sqrt";
          "fabs"; "sin"; "cos"; "exp"; "log"; "floor"; "ceil"; "pow";
        ] );
    ];
  t

let classify name : effect_class =
  Option.value ~default:Effectful (Hashtbl.find_opt classes name)

(** True for calls whose only effect is computing a result: safe to delete
    when the result is unused.  This is what lets DCE remove unused trie
    loads, reproducing the paper's §5.4 observation. *)
let removable_if_unused name =
  match classify name with
  | Pure | Read_meta | Allocating -> true
  | Effectful | May_abort -> false

(** True if deleting or reordering the call can change whether the program
    aborts. Code motion must not move loads/stores across these. *)
let may_abort name =
  match classify name with May_abort -> true | _ -> false

(** True if the call reads user (non-metadata) memory. *)
let reads_memory name =
  List.mem name [ "memcmp"; "strlen"; "strcmp"; "strchr" ]

(** True if the call writes user memory. *)
let writes_memory name =
  List.mem name
    [ "strcpy"; "strncpy"; "strcat"; "realloc"; "free"; "mi_srand" ]
  || String.length name > 6
     && String.sub name 0 6 = "__sbw_" (* wrappers write through args *)

(** True for functions the VM implements natively (no MIR body needed). *)
let c_library_set =
  Hashtbl.of_seq (Seq.map (fun n -> (n, ())) (List.to_seq c_library))

let is_builtin name =
  Hashtbl.mem c_library_set name
  || String.starts_with ~prefix:"__mi_" name
  || String.starts_with ~prefix:"__sbw_" name

(** Does this intrinsic never return normally into instrumented code in a
    way that needs metadata? Used to skip shadow-stack setup for calls to
    the runtime itself. *)
let is_runtime_internal name =
  (String.length name >= 5 && String.sub name 0 5 = "__mi_")
  || (String.length name >= 6 && String.sub name 0 6 = "__sbw_")
