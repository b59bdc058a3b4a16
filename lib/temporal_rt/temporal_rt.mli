(** Temporal lock-and-key runtime (CETS, ISMM'10).

    Every allocation gets a fresh, never-reused i64 key; [free] and
    frame exit kill keys; a dereference check that finds its key dead
    reports a use-after-free.  Key 0 is "untracked": counted as a wide
    check, never reported.  In-memory pointers keep their key in a
    disjoint trie; keys cross calls on a zero-initialized shadow stack,
    so metadata gaps degrade to unprotected accesses rather than false
    reports.  The allocator hooks chain over whatever was installed
    before, and the free hook doubles as the double-free detector. *)

open Mi_vm

type t
(** Runtime state: live-key set, per-allocation key table, pointer-key
    trie and shadow stack ({!Mi_vm.Shadow_stack}, one key per slot,
    zeroed frames).  Keyed stack objects are filed per frame by
    {!Mi_vm.Frame_objects}. *)

(** {1 Keys} *)

val key_of_alloc : t -> int -> int
(** The live key of the allocation starting at the given base address;
    0 if the address owns none (never keyed, or already freed). *)

(** {1 Trie (keys of in-memory pointers)} *)

val trie_store : t -> int -> int -> unit
(** Record the key of the pointer stored at the given address (key 0
    clears the slot). *)

val trie_load : t -> int -> int
(** Key of the pointer stored at the given address; 0 if none. *)

val meta_copy : t -> dst:int -> src:int -> int -> unit
(** Copy keys for every 8-byte slot of a moved memory range. *)

(** {1 Shadow stack} *)

val ss_enter : t -> int -> unit
(** Open a frame with the given number of pointer-argument slots (slot 0
    is the return slot).  The frame is zero-initialized: slots never
    written read as key 0. *)

val ss_leave : t -> unit
val ss_set : t -> int -> int -> unit
val ss_get : t -> int -> int

(** {1 Check (CETS Figure 4)} *)

val check : t -> site:int -> int -> int -> unit
(** [check t ~site ptr key] raises {!State.Safety_abort} when [key] is
    nonzero and dead; key 0 counts as a wide check and never reports.
    [site] attributes the execution to an instrumentation site; -1
    attributes it to none. *)

(** {1 Installation} *)

val install : State.t -> t
(** Attach the runtime: chain the allocator hooks (fresh key per
    allocation; the free hook kills keys and reports double/invalid
    frees) and register the [__mi_tp_*] intrinsics, among them the
    keyed [__mi_tp_alloca] whose allocations die at frame exit. *)
