(** Sparse paged byte memory with little-endian accessors.

    Pages materialize zero-filled on first touch.  The only hard fault is
    the null guard page: real out-of-bounds accesses into padding or
    neighbouring allocations behave exactly like hardware — they silently
    read or corrupt memory.  Ground truth about violations comes from the
    instrumentation, not the VM. *)

exception Fault of int * string
(** (address, description) *)

type t
(** Pages live in a table keyed by page index, behind a direct-mapped
    cache of recently touched pages that only ever holds pages already
    in the table: the cache changes no value, page count or fault. *)

val create : ?max_pages:int -> unit -> t
(** [max_pages] (default 2^19) bounds the pages touched; touching one
    more raises {!Fault} ["out of VM memory (page limit)"]. *)

val page_count : t -> int
(** Pages touched so far. *)

val cache_slots : int
(** Slots of the page cache, a power of two. *)

val cache_arrays : t -> int array * Bytes.t array
(** The page cache, for a caller that probes it inline (the
    interpreter's loads and stores): slot [i land (cache_slots - 1)]
    holds page index [i] (or -1) in the first array and that page in
    the second.  Both arrays live as long as [t].
    A slot only ever holds a page the table already has, never a page
    below {!Layout.null_guard}, so an access that lies inside one cached
    page can be served from it with exactly the outcome of {!load} or
    {!store}.  Read it, never write it. *)

val load8 : t -> int -> int
val store8 : t -> int -> int -> unit

val load : t -> int -> int -> int
(** [load t addr width] for widths 1, 2, 4, 8, little-endian; the result
    is the raw unsigned bit pattern (callers normalize by type). *)

val store : t -> int -> int -> int -> unit
(** [store t addr width v]. *)

val load_f64 : t -> int -> float
val store_f64 : t -> int -> float -> unit
(** [f64] values keep their full 64-bit pattern (no round trip through
    OCaml's 63-bit int). *)

val load_i64_full : t -> int -> int64
val store_i64_full : t -> int -> int64 -> unit
(** Full-width 64-bit accessors underlying the [f64] pair — exposed so
    tests can pin the cross-page slow paths bit-for-bit against the
    in-page fast paths. *)

val copy : t -> dst:int -> src:int -> int -> unit
(** [memmove] semantics: overlapping ranges copy correctly. *)

val fill : t -> dst:int -> byte:int -> int -> unit

val load_cstring : t -> int -> string
(** Read a NUL-terminated string (bounded; traps on runaways). *)

val store_cstring : t -> int -> string -> unit
val store_bytes : t -> int -> string -> unit
