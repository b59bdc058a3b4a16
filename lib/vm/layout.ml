(** Virtual address-space layout of the VM.

    The layout mirrors Figure 3 of the paper: the low part of the address
    space is carved into low-fat regions, one per power-of-two allocation
    size from 2^4 to 2^30 bytes; stack, standard heap, and globals live at
    high addresses whose region index falls outside the low-fat range, so
    the Low-Fat runtime classifies pointers into them as non-low-fat
    ("wide bounds") exactly as the paper describes for foreign memory. *)

let page_bits = 12
let page_size = 1 lsl page_bits (* 4 KiB *)

(** Addresses below this value are never valid (null page guard). *)
let null_guard = 0x10000

(* --- Low-fat regions ------------------------------------------------- *)

(** Each low-fat region spans [2^region_bits] bytes of VA space; the
    region index is [addr lsr region_bits]. *)
let region_bits = 32

let region_span = 1 lsl region_bits

(** Smallest low-fat allocation size: 2^4 = 16 bytes. *)
let min_size_log = 4

(** Largest low-fat allocation size: 2^30 = 1 GiB.  Allocations beyond
    this fall back to the standard allocator and are unprotected — the
    429mcf case of §4.6. *)
let max_size_log = 30

(** Region index for allocation size [2^k] is [k - min_size_log + 1], so
    valid indices are 1 .. 27. *)
let region_of_size_log k = k - min_size_log + 1

let min_region = region_of_size_log min_size_log
let max_region = region_of_size_log max_size_log

(** Allocation size served by region [r] (for [min_region <= r <=
    max_region]). *)
let size_of_region r = 1 lsl (r + min_size_log - 1)

let region_index addr = addr lsr region_bits

let is_low_fat addr =
  let r = region_index addr in
  r >= min_region && r <= max_region

let region_start r = r * region_span

(* --- Conventional segments ------------------------------------------ *)

let heap_base = 0x2000_0000_0000
let heap_limit = 0x2FFF_FFFF_F000
let stack_top = 0x3000_0080_0000 (* 8 MiB conventional stack *)
let stack_limit = 0x3000_0000_0000
let globals_base = 0x4000_0000_0000

(** Sentinel upper bound used for "wide bounds": every address compares
    below it. *)
let wide_bound = 0x7FFF_FFFF_FFFF
