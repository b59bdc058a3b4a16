(** SoftBound runtime (Nagarakatte et al., PLDI'09, with the trie and
    shadow stack of the later CETS/SNAPL work).

    Pointer bounds live in a disjoint metadata space: a two-level trie
    maps the in-memory location of a pointer to its (base, bound) pair,
    and a shadow stack carries bounds for pointer arguments and returns
    across calls.  Locations without metadata read as null bounds (0,0),
    so dereferencing such pointers reports — the "outdated or unavailable
    bounds" behaviour of §4.3–4.5. *)

open Mi_vm

type t
(** Runtime state: the trie's primary table and the shadow stack. *)

(** {1 Trie (in-memory pointer metadata)} *)

val trie_store : t -> int -> base:int -> bound:int -> unit
(** Record bounds for the pointer stored at the given address. *)

val trie_load : t -> int -> int * int
(** Bounds for the pointer stored at the given address; (0, 0) if none
    were ever recorded. *)

val meta_copy : t -> dst:int -> src:int -> int -> unit
(** Copy metadata for every 8-byte slot of a moved memory range — the
    [copy_metadata] of the memcpy wrapper (Fig. 6). *)

(** {1 Shadow stack} *)

val ss_enter : t -> int -> unit
(** Open a frame with the given number of pointer-argument slots (slot 0
    is reserved for the return value). *)

val ss_leave : t -> unit
val ss_set_base : t -> int -> int -> unit
val ss_set_bound : t -> int -> int -> unit
val ss_get_base : t -> int -> int
val ss_get_bound : t -> int -> int

(** {1 Check (Figure 2)} *)

val check : t -> site:int -> int -> int -> base:int -> bound:int -> unit
(** [check t ~site ptr width ~base ~bound] raises {!State.Safety_abort}
    when [ptr < base] or [ptr + width > bound]; counts a wide check when
    the bound is the wide sentinel.  [site] attributes the execution to
    an instrumentation site ({!Mi_obs.Site}); -1 attributes it to none. *)

(** {1 Installation} *)

val install : State.t -> t
(** Register the [__mi_sb_*]/[__mi_ss_*] builtins and the libc wrappers
    ([__sbw_strcpy], [__sbw_realloc], ...). *)
