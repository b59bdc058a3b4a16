(** Registry of runtime functions the instrumentation and the VM know
    about, with the effect information the optimizer needs.

    Instrumentation code is inserted as calls to these functions: checks
    may abort and therefore act as code-motion barriers, while metadata
    loads are removable when unused — the property behind the paper's
    §5.4/§5.5 observations. *)

(** {1 SoftBound runtime} *)

(** [(ptr, width, base, bound)] *)
val sb_check : string

(** [(addr) -> ptr] *)
val sb_trie_load_base : string

(** [(addr) -> ptr] *)
val sb_trie_load_bound : string

(** [(addr, base, bound)] *)
val sb_trie_store : string

(** [(dst, src, len)] *)
val sb_meta_copy : string

(** {1 Shadow stack} *)

(** [(nslots)] *)
val ss_enter : string

val ss_leave : string

(** [(slot, base)] *)
val ss_set_base : string

val ss_set_bound : string

(** [(slot) -> ptr] *)
val ss_get_base : string

val ss_get_bound : string

(** {1 Low-Fat runtime} *)

(** [(ptr, width, base)] *)
val lf_check : string

(** [(ptr, base): escape check] *)
val lf_invariant_check : string

(** [(ptr) -> ptr: recompute the base] *)
val lf_base : string

(** [(size) -> ptr: mirrored stack allocation] *)
val lf_alloca : string

(** {1 Temporal lock-and-key runtime}

    Every allocation gets a fresh, never-reused key; [free] kills the
    key; checks test liveness.  Key [0] is "untracked" and always
    passes (the temporal analog of wide bounds). *)

(** [(ptr, key)] *)
val tp_check : string

(** [(base) -> key: key of the live allocation starting at [base]] *)
val tp_alloc_key : string

(** [(addr) -> key] *)
val tp_trie_load : string

(** [(addr, key)] *)
val tp_trie_store : string

(** [(dst, src, len)] *)
val tp_meta_copy : string

(** [(size) -> ptr: keyed stack allocation] *)
val tp_alloca : string

(** [(nslots)]; frames are zero-initialized (no stale keys) *)
val tp_ss_enter : string

val tp_ss_leave : string

(** [(slot, key)] *)
val tp_ss_set : string

(** [(slot) -> key] *)
val tp_ss_get : string

val global_size : string

(** {1 C library} *)

val c_library : string list
(** Builtins the VM implements natively. *)

val sb_wrapped : string list
(** libc functions with a SoftBound metadata wrapper (Fig. 6). *)

val sb_wrapper : string -> string
(** Wrapper name for a wrapped function ([__sbw_<name>]). *)

(** {1 Effect classification} *)

type effect_class =
  | Pure  (** no side effect, no memory read; removable and movable *)
  | Read_meta
      (** reads instrumentation metadata; removable when unused, not
          movable across metadata writes *)
  | Effectful
  | May_abort  (** checks, [abort], [exit] *)
  | Allocating

val classify : string -> effect_class

val removable_if_unused : string -> bool
(** Lets DCE delete unused metadata loads (§5.4). *)

val may_abort : string -> bool
val reads_memory : string -> bool
val is_builtin : string -> bool
val is_runtime_internal : string -> bool
