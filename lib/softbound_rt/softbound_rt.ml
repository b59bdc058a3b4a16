(** SoftBound runtime (Nagarakatte et al., PLDI'09, with the data
    structures of the later CETS/SNAPL work the paper selected).

    Pointer bounds are kept in a *disjoint metadata space*:

    - a two-level trie maps the address where a pointer value is stored in
      memory to that pointer's (base, bound) pair (§3.2);
    - a shadow stack propagates bounds for pointer-typed function
      arguments and returns across calls;
    - wrappers for C-library functions that move pointers in memory keep
      the trie in sync (Fig. 6) — without them, the stale-metadata
      problems of §4.3–4.5 appear, which this reproduction also models.

    Reading metadata for an address that never had any yields null bounds
    (0, 0), so dereferencing such a pointer reports a violation — the
    "outdated or unavailable bounds" behaviour the paper analyzes. *)

open Mi_vm
module Intr = Mi_mir.Intrinsics

(* Secondary trie tables cover [1 lsl sec_bits] bytes of address space,
   with one (base, bound) pair per 8-byte-aligned slot. *)
let sec_bits = 16
let slots_per_sec = 1 lsl (sec_bits - 3)

(* per-step counters, resolved once at install *)
type counters = {
  n_checks : Mi_obs.Metrics.handle;
  n_checks_wide : Mi_obs.Metrics.handle;
  n_trie_store : Mi_obs.Metrics.handle;
  n_trie_load : Mi_obs.Metrics.handle;
  n_ss_frames : Mi_obs.Metrics.handle;
}

type t = {
  st : State.t;
  n : counters;
  trie : (int, int array) Hashtbl.t;  (** primary: addr >> 16 -> secondary *)
  mutable ss : int array;  (** shadow stack: pairs of (base, bound) slots *)
  mutable ss_top : int;  (** next free pair index *)
  mutable ss_fp : int;  (** current frame start (pair index) *)
  mutable ss_saved : int list;  (** saved frame pointers *)
}

(* --- trie ------------------------------------------------------------ *)

(* Lookups go through [Hashtbl.find] rather than [find_opt]: metadata
   loads and stores run per pointer access, and an option would be
   allocated on each. *)
let sec_for t addr =
  let key = addr lsr sec_bits in
  match Hashtbl.find t.trie key with
  | s -> s
  | exception Not_found ->
      let s = Array.make (slots_per_sec * 2) 0 in
      Hashtbl.add t.trie key s;
      s

(* the secondary holding [addr]'s slot, or [no_sec] when none exists *)
let no_sec = [||]

let sec_find t addr =
  match Hashtbl.find t.trie (addr lsr sec_bits) with
  | s -> s
  | exception Not_found -> no_sec

let slot_index addr = (addr land ((1 lsl sec_bits) - 1)) lsr 3

let trie_store t addr ~base ~bound =
  State.charge t.st t.st.State.cost.Cost.sb_trie_store;
  Mi_obs.Metrics.bump t.n.n_trie_store;
  let s = sec_for t addr in
  let i = slot_index addr in
  s.((i * 2)) <- base;
  s.((i * 2) + 1) <- bound

let load_sec t addr =
  State.charge t.st t.st.State.cost.Cost.sb_trie_load;
  Mi_obs.Metrics.bump t.n.n_trie_load;
  sec_find t addr

let trie_load t addr =
  let s = load_sec t addr in
  if s == no_sec then (0, 0)
  else
    let i = slot_index addr in
    (s.(i * 2), s.((i * 2) + 1))

(* One half of [trie_load]: [half] 0 is the base, 1 the bound.  The
   intrinsics use it, so a metadata load allocates no pair. *)
let trie_load_half t addr half =
  let s = load_sec t addr in
  if s == no_sec then 0 else s.((slot_index addr * 2) + half)

(** Copy metadata for every pointer-sized slot in [dst, dst+len) from the
    corresponding slot of [src] — the [copy_metadata] of Fig. 6. *)
let meta_copy t ~dst ~src len =
  State.bump t.st "sb.meta_copy";
  let n = len / 8 in
  for k = 0 to n - 1 do
    let sa = src + (k * 8) and da = dst + (k * 8) in
    State.charge t.st
      (t.st.State.cost.Cost.sb_trie_load + t.st.State.cost.Cost.sb_trie_store);
    let b, e =
      let s = sec_find t sa in
      if s == no_sec then (0, 0)
      else
        let i = slot_index sa in
        (s.(i * 2), s.((i * 2) + 1))
    in
    let s = sec_for t da in
    let i = slot_index da in
    s.(i * 2) <- b;
    s.((i * 2) + 1) <- e
  done

(* --- shadow stack ------------------------------------------------------ *)

let ss_ensure t n =
  if n > Array.length t.ss / 2 then begin
    let bigger = Array.make (Array.length t.ss * 2) 0 in
    Array.blit t.ss 0 bigger 0 (Array.length t.ss);
    t.ss <- bigger
  end

let ss_enter t nslots =
  State.charge t.st t.st.State.cost.Cost.ss_frame;
  Mi_obs.Metrics.bump t.n.n_ss_frames;
  t.ss_saved <- t.ss_fp :: t.ss_saved;
  t.ss_fp <- t.ss_top;
  t.ss_top <- t.ss_top + nslots + 1;
  ss_ensure t t.ss_top

let ss_leave t =
  State.charge t.st t.st.State.cost.Cost.ss_frame;
  t.ss_top <- t.ss_fp;
  match t.ss_saved with
  | fp :: rest ->
      t.ss_fp <- fp;
      t.ss_saved <- rest
  | [] -> t.ss_fp <- 0

let ss_pair t slot = (t.ss_fp + slot) * 2

let ss_set_base t slot v =
  State.charge t.st t.st.State.cost.Cost.ss_op;
  ss_ensure t (t.ss_fp + slot + 1);
  t.ss.(ss_pair t slot) <- v

let ss_set_bound t slot v =
  State.charge t.st t.st.State.cost.Cost.ss_op;
  ss_ensure t (t.ss_fp + slot + 1);
  t.ss.(ss_pair t slot + 1) <- v

let ss_get_base t slot =
  State.charge t.st t.st.State.cost.Cost.ss_op;
  ss_ensure t (t.ss_fp + slot + 1);
  t.ss.(ss_pair t slot)

let ss_get_bound t slot =
  State.charge t.st t.st.State.cost.Cost.ss_op;
  ss_ensure t (t.ss_fp + slot + 1);
  t.ss.(ss_pair t slot + 1)

(* --- check (Figure 2 of the paper) ------------------------------------- *)

let check t ~site ptr width ~base ~bound =
  let st = t.st in
  State.charge st st.State.cost.Cost.sb_check;
  Mi_obs.Metrics.bump t.n.n_checks;
  let wide = bound >= Layout.wide_bound in
  if wide then Mi_obs.Metrics.bump t.n.n_checks_wide;
  State.site_hit st site ~wide ~cycles:st.State.cost.Cost.sb_check;
  if ptr < base || ptr + width > bound then
    raise
      (State.Safety_abort
         {
           checker = "softbound";
           reason =
             Printf.sprintf
               "out-of-bounds access: ptr=%#x width=%d bounds=[%#x,%#x)" ptr
               width base bound;
         })

(* --- wrappers (Fig. 6) -------------------------------------------------- *)

(* The wrappers call the original builtin and then fix up metadata.
   Checks inside wrappers are the instrumenter's business
   ([Config.sb_wrapper_checks], off by default for runtime comparability,
   §5.1.2); the runtime wrappers never check. *)

let install_wrappers (t : t) =
  let st = t.st in
  let orig name = Option.get (State.find_builtin st name) in
  let wrap name fixup =
    let base_fn = orig name in
    State.register_builtin st (Intr.sb_wrapper name) (fun st args ->
        let r = base_fn st args in
        fixup st args r;
        r)
  in
  (* strcpy/strncpy/strcat move bytes that cannot contain pointers in
     well-typed C, but the returned pointer's bounds must go to the shadow
     stack return slot, which the instrumented caller reads. *)
  let ret_arg0_bounds _st args _r =
    (* returned pointer aliases argument 0: its bounds are in slot 1 *)
    let b = ss_get_base t 1 and e = ss_get_bound t 1 in
    ss_set_base t 0 b;
    ss_set_bound t 0 e;
    ignore args
  in
  wrap "strcpy" ret_arg0_bounds;
  wrap "strncpy" ret_arg0_bounds;
  wrap "strcat" ret_arg0_bounds;
  wrap "strchr" (fun _st _args _r ->
      let b = ss_get_base t 1 and e = ss_get_bound t 1 in
      ss_set_base t 0 b;
      ss_set_bound t 0 e);
  (* realloc: fresh allocation; copy metadata from the old block *)
  State.register_builtin st (Intr.sb_wrapper "realloc") (fun st args ->
      let old = Builtins.arg_i args 0 and n = Builtins.arg_i args 1 in
      let old_sz =
        if old = 0 then 0
        else Option.value ~default:0 (Hashtbl.find_opt st.alloc_sizes old)
      in
      let r = (orig "realloc") st args in
      let a = State.as_int (Option.get r) in
      if old <> 0 && a <> old then meta_copy t ~dst:a ~src:old (min old_sz n);
      ss_set_base t 0 a;
      ss_set_bound t 0 (a + n);
      r)

(* --- installation ------------------------------------------------------- *)

let install (st : State.t) : t =
  let t =
    {
      st;
      n =
        {
          n_checks = State.handle st "sb.checks";
          n_checks_wide = State.handle st "sb.checks_wide";
          n_trie_store = State.handle st "sb.trie_store";
          n_trie_load = State.handle st "sb.trie_load";
          n_ss_frames = State.handle st "sb.ss_frames";
        };
      trie = Hashtbl.create 256;
      ss = Array.make 8192 0;
      ss_top = 0;
      ss_fp = 0;
      ss_saved = [];
    }
  in
  (* Each intrinsic's one typed implementation; the boxed builtin for
     unfused calls is derived from it by [State.register_intrinsic]. *)
  let reg = State.register_intrinsic st in
  reg Intr.sb_check
    (State.F5
       (fun _ ptr width base bound site -> check t ~site ptr width ~base ~bound));
  reg Intr.sb_trie_store
    (State.F3 (fun _ addr base bound -> trie_store t addr ~base ~bound));
  reg Intr.sb_trie_load_base (State.FR1 (fun _ addr -> trie_load_half t addr 0));
  reg Intr.sb_trie_load_bound
    (State.FR1 (fun _ addr -> trie_load_half t addr 1));
  reg Intr.sb_meta_copy
    (State.F3 (fun _ dst src len -> meta_copy t ~dst ~src len));
  reg Intr.ss_enter (State.F1 (fun _ n -> ss_enter t n));
  reg Intr.ss_leave (State.F0 (fun _ -> ss_leave t));
  reg Intr.ss_set_base (State.F2 (fun _ slot v -> ss_set_base t slot v));
  reg Intr.ss_set_bound (State.F2 (fun _ slot v -> ss_set_bound t slot v));
  reg Intr.ss_get_base (State.FR1 (fun _ slot -> ss_get_base t slot));
  reg Intr.ss_get_bound (State.FR1 (fun _ slot -> ss_get_bound t slot));
  install_wrappers t;
  t
