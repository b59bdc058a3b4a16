(** Low-Fat Pointers runtime (Duck & Yap CC'16, NDSS'17 stack protection,
    arXiv'18 globals).

    The VM's address space is partitioned into regions, one per
    power-of-two size class from 2^4 to 2^30 bytes; base and size of any
    allocation are recomputed from a pointer's value by masking.
    Allocations beyond the largest class or in an exhausted region fall
    back to the standard allocator and receive wide bounds (§4.6). *)

open Mi_vm

type t
(** Runtime state: per-region bump pointers and free lists.  Mirrored
    stack objects are filed per frame by {!Mi_vm.Frame_objects}. *)

(** {1 Pointer arithmetic (Figures 4/5 of the paper)} *)

val region_of_addr : int -> int
val is_low_fat : int -> bool

val alloc_size : int -> int option
(** Size class of the object containing the address; [None] if the
    address is not low-fat (wide bounds). *)

val base : int -> int
(** Base pointer of the containing object, by masking away the offset
    bits.  Non-low-fat addresses are returned unchanged. *)

val class_of_size : int -> int option
(** Smallest region index able to hold the given padded byte count;
    [None] beyond the largest class. *)

(** {1 Allocation} *)

val lf_malloc : t -> State.t -> int -> int
(** Allocate with +1 byte of padding (one-past-the-end support,
    footnote 3); falls back to {!State.std_malloc} for oversized requests
    or exhausted regions, bumping the [lf.fallback_*] counters. *)

val lf_free : t -> State.t -> int -> unit
(** Return a low-fat object to its region's free list; forwards
    non-low-fat pointers to the standard allocator.  Traps on interior
    pointers. *)

(** {1 Checks} *)

val check : t -> site:int -> int -> int -> int -> unit
(** [check t ~site ptr width base]: the dereference check of Figure 5.
    Raises {!State.Safety_abort} when [ptr..ptr+width) leaves the object;
    counts wide (unprotected) checks when [base] is not low-fat.  [site]
    attributes the execution to an instrumentation site
    ({!Mi_obs.Site}); -1 attributes it to none. *)

val invariant_check : t -> site:int -> int -> int -> unit
(** [invariant_check t ~site ptr base]: the escape check establishing the
    in-bounds invariant (Table 1, §4.2). *)

(** {1 Installation} *)

val install : ?stack_protection:bool -> State.t -> t
(** Attach the runtime: replaces the process-wide allocator (external
    libraries get low-fat heap objects automatically, §4.3), registers
    the [__mi_lf_*] builtins, and — with [stack_protection] — the
    mirrored [__mi_lf_alloca] with frame-exit cleanup. *)

val alloc_global : t -> State.t -> size:int -> align:int -> int
(** Global-variable mirroring: place a global in a low-fat region.  Pass
    via [~alloc_global] to {!Mi_vm.Interp.load} for globals defined in
    instrumented translation units. *)
