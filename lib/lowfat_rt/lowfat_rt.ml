(** Low-Fat Pointers runtime (Duck & Yap, CC'16; stack protection NDSS'17;
    globals arXiv'18).

    The virtual address space is partitioned into regions, one per
    power-of-two size class from 2^4 to 2^30 bytes (see {!Mi_vm.Layout});
    an allocation of size [s] is served from the region of class
    [2^ceil(log2 (s+1))] — the extra byte implements the paper's
    footnote 3, making one-past-the-end pointers in-bounds.  Base and size
    of an object are recomputed from any pointer into it by masking, which
    is what {!base} and the checks do.

    Allocations larger than the largest class, or allocations in an
    exhausted region, fall back to the standard allocator and yield
    non-low-fat pointers with wide bounds (§4.6 — the 429mcf case). *)

open Mi_vm
module Layout = Mi_vm.Layout
module Util = Mi_support.Util

(* per-step counters, resolved once at install *)
type counters = {
  n_checks : Mi_obs.Metrics.handle;
  n_checks_wide : Mi_obs.Metrics.handle;
  n_inv_checks : Mi_obs.Metrics.handle;
  n_inv_checks_wide : Mi_obs.Metrics.handle;
  n_base_recompute : Mi_obs.Metrics.handle;
}

type t = {
  st : State.t;
  n : counters;
  bump : int array;  (** per region index: next unallocated address *)
  free : int list ref array;  (** per region: free list *)
}

(* --- pointer arithmetic (mirrors Figures 4/5 of the paper) ----------- *)

let region_of_addr addr = Layout.region_index addr

let is_low_fat = Layout.is_low_fat

(** Size class (bytes) of the object containing [addr]; [None] if the
    address is not in a low-fat region ("wide bounds"). *)
let alloc_size addr =
  if is_low_fat addr then Some (Layout.size_of_region (region_of_addr addr))
  else None

(** Base pointer of the object containing [addr]: mask away the offset
    bits.  Non-low-fat pointers are returned unchanged (their region has
    no mask — they get wide bounds at check time). *)
let base addr =
  if is_low_fat addr then
    addr land lnot (Layout.size_of_region (region_of_addr addr) - 1)
  else addr

(** Smallest region able to hold [padded] bytes. *)
let class_of_size padded =
  let k = max Layout.min_size_log (Util.log2_exact (Util.round_up_pow2 padded)) in
  if k > Layout.max_size_log then None else Some (Layout.region_of_size_log k)

(* --- allocation ------------------------------------------------------ *)

let lf_malloc (t : t) st sz =
  if sz < 0 then raise (State.Trap "malloc with negative size");
  State.charge st st.State.cost.Cost.lf_alloc;
  State.bump st "lf.malloc";
  (* +1 byte of padding for one-past-the-end pointers (footnote 3) *)
  match class_of_size (max sz 1 + 1) with
  | None ->
      (* larger than the largest supported size: standard allocator *)
      State.bump st "lf.fallback_large";
      State.std_malloc st sz
  | Some r -> (
      let size = Layout.size_of_region r in
      match !(t.free.(r)) with
      | a :: rest ->
          t.free.(r) := rest;
          State.observe st "alloc.bytes" sz;
          Hashtbl.replace st.State.alloc_sizes a sz;
          a
      | [] ->
          let a = t.bump.(r) in
          if a + size > Layout.region_start (r + 1) then begin
            (* region exhausted: fall back, pointer is not low-fat *)
            State.bump st "lf.fallback_exhausted";
            State.std_malloc st sz
          end
          else begin
            t.bump.(r) <- a + size;
            State.observe st "alloc.bytes" sz;
            Hashtbl.replace st.State.alloc_sizes a sz;
            a
          end)

let lf_free (t : t) st addr =
  if addr <> 0 then
    if is_low_fat addr then begin
      State.charge st st.State.cost.Cost.lf_alloc;
      State.bump st "lf.free";
      let r = region_of_addr addr in
      let size = Layout.size_of_region r in
      if addr land (size - 1) <> 0 then
        raise (State.Trap "free of interior low-fat pointer");
      Hashtbl.remove st.State.alloc_sizes addr;
      t.free.(r) := addr :: !(t.free.(r))
    end
    else State.std_free st addr

(* --- checks ----------------------------------------------------------- *)

(* The bounds test of Figure 5: fail iff (ptr - base) > size - width,
   computed unsigned.  The size comes straight from the region (no
   [alloc_size] option), so an executed check allocates nothing.  A
   non-low-fat base has wide bounds and the access is unprotected
   (§4.6).  [n]/[n_wide] count the test, [report] words a failure. *)
let[@inline] bounds_test t ~site ~n ~n_wide ~report ptr width b =
  let st = t.st in
  State.charge st st.State.cost.Cost.lf_check;
  Mi_obs.Metrics.bump n;
  if not (is_low_fat b) then begin
    Mi_obs.Metrics.bump n_wide;
    State.site_hit st site ~wide:true ~cycles:st.State.cost.Cost.lf_check
  end
  else begin
    State.site_hit st site ~wide:false ~cycles:st.State.cost.Cost.lf_check;
    let size = Layout.size_of_region (region_of_addr b) in
    let off = ptr - b in
    if off < 0 || off > size - width then
      raise
        (State.Safety_abort
           { checker = "lowfat"; reason = report ptr b size width })
  end

let access_report ptr b size width =
  Printf.sprintf "out-of-bounds access: ptr=%#x base=%#x size=%d width=%d" ptr
    b size width

let escape_report ptr b size _width =
  Printf.sprintf "out-of-bounds pointer escapes: ptr=%#x base=%#x size=%d" ptr
    b size

(* Dereference check: the access [ptr, ptr + width) *)
let check t ~site ptr width b =
  bounds_test t ~site ~n:t.n.n_checks ~n_wide:t.n.n_checks_wide
    ~report:access_report ptr width b

(* Escape check establishing the in-bounds invariant (Table 1, §4.2):
   a pointer leaving the function must point into its witness's object,
   i.e. a one-byte access at it passes. *)
let invariant_check t ~site ptr b =
  bounds_test t ~site ~n:t.n.n_inv_checks ~n_wide:t.n.n_inv_checks_wide
    ~report:escape_report ptr 1 b

(* --- installation ----------------------------------------------------- *)

(** Attach the Low-Fat runtime to a VM state.  [stack_protection] mirrors
    instrumented [alloca]s into low-fat regions and frees them on frame
    exit; it must be on when the instrumentation was configured with
    [lf_stack]. *)
let install ?(stack_protection = true) (st : State.t) : t =
  let n = Layout.max_region + 2 in
  let t =
    {
      st;
      n =
        {
          n_checks = State.handle st "lf.checks";
          n_checks_wide = State.handle st "lf.checks_wide";
          n_inv_checks = State.handle st "lf.inv_checks";
          n_inv_checks_wide = State.handle st "lf.inv_checks_wide";
          n_base_recompute = State.handle st "lf.base_recompute";
        };
      bump = Array.init n (fun r -> Layout.region_start r);
      free = Array.init n (fun _ -> ref []);
    }
  in
  (* the process-wide allocator becomes low-fat: external libraries get
     protected heap objects automatically (§4.3) *)
  st.malloc_hook <- (fun st sz -> lf_malloc t st sz);
  st.free_hook <- (fun st a -> lf_free t st a);
  let base_recompute st ptr =
    State.charge st st.State.cost.Cost.lf_base;
    Mi_obs.Metrics.bump t.n.n_base_recompute;
    base ptr
  in
  (* Each intrinsic's one typed implementation; the boxed builtin for
     unfused calls is derived from it by [State.register_intrinsic]. *)
  let reg = State.register_intrinsic st in
  reg Mi_mir.Intrinsics.lf_base (State.FR1 base_recompute);
  reg Mi_mir.Intrinsics.lf_check
    (State.F4 (fun _ ptr width b site -> check t ~site ptr width b));
  reg Mi_mir.Intrinsics.lf_invariant_check
    (State.F3 (fun _ ptr b site -> invariant_check t ~site ptr b));
  if stack_protection then
    reg Mi_mir.Intrinsics.lf_alloca
      (State.FR1
         (Frame_objects.install st
            ~alloc:(fun st sz -> lf_malloc t st sz)
            ~release:(fun st a -> lf_free t st a)));
  t

(** Global-variable mirroring ([Duck & Yap 2018]): place defined globals in
    low-fat regions so accesses to them are protected.  Pass as
    [~alloc_global] to {!Mi_vm.Interp.load}. *)
let alloc_global (t : t) (st : State.t) ~size ~align =
  ignore align;
  State.bump st "lf.global_mirror";
  lf_malloc t st size
