(** Virtual address-space layout of the VM, mirroring Figure 3 of the
    paper: the low part is carved into low-fat regions, one per
    power-of-two size class from 2^4 to 2^30 bytes; stack, standard heap,
    and globals live at high addresses whose region index falls outside
    the low-fat range (non-low-fat pointers get wide bounds). *)

val page_bits : int
val page_size : int

val null_guard : int
(** Addresses below this value are never valid. *)

(** {1 Low-fat regions} *)

val region_bits : int
(** Each region spans [2^region_bits] bytes of VA space. *)

val region_span : int

val min_size_log : int
(** Smallest class: 2^4 = 16 bytes. *)

val max_size_log : int
(** Largest class: 2^30 = 1 GiB; larger allocations fall back to the
    standard allocator (§4.6, the 429mcf case). *)

val region_of_size_log : int -> int
val min_region : int
val max_region : int

val size_of_region : int -> int
(** Allocation size served by a region index in
    [min_region .. max_region]. *)

val region_index : int -> int
val is_low_fat : int -> bool
val region_start : int -> int

(** {1 Conventional segments} *)

val heap_base : int
val heap_limit : int
val stack_top : int
val stack_limit : int
val globals_base : int

(** {1 Wide-bounds sentinel} *)

val wide_bound : int
(** Upper bound every address compares below ("wide bounds"). *)
