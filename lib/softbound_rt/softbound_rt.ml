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
   with one (base, bound) pair per 8-byte-aligned slot.  A 4 KiB span
   keeps a secondary at 1,024 words, so metadata costs memory in
   proportion to the spans that hold stored pointers. *)
let sec_bits = 12
let slots_per_sec = 1 lsl (sec_bits - 3)

(* per-step counters, resolved once at install *)
type counters = {
  n_checks : Mi_obs.Metrics.handle;
  n_checks_wide : Mi_obs.Metrics.handle;
  n_trie_store : Mi_obs.Metrics.handle;
  n_trie_load : Mi_obs.Metrics.handle;
}

type t = {
  st : State.t;
  n : counters;
  trie : (int, int array) Hashtbl.t;
      (** primary: addr >> sec_bits -> secondary *)
  ss : Shadow_stack.t;  (** width 2: (base, bound) per slot *)
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

(* the pair in [addr]'s slot of secondary [s]; null bounds without one *)
let pair s addr =
  if s == no_sec then (0, 0)
  else
    let i = slot_index addr in
    (s.(i * 2), s.((i * 2) + 1))

let trie_load t addr = pair (load_sec t addr) addr

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
    let b, e = pair (sec_find t sa) sa in
    let s = sec_for t da in
    let i = slot_index da in
    s.(i * 2) <- b;
    s.((i * 2) + 1) <- e
  done

(* --- shadow stack: (base, bound) pairs, frames not zeroed ------------- *)

let ss_enter t nslots = Shadow_stack.enter t.ss nslots
let ss_leave t = Shadow_stack.leave t.ss
let ss_set_base t slot v = Shadow_stack.set t.ss slot 0 v
let ss_set_bound t slot v = Shadow_stack.set t.ss slot 1 v
let ss_get_base t slot = Shadow_stack.get t.ss slot 0
let ss_get_bound t slot = Shadow_stack.get t.ss slot 1

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
  let ret_arg0_bounds _st _args _r =
    (* returned pointer aliases argument 0: its bounds are in slot 1 *)
    let b = ss_get_base t 1 and e = ss_get_bound t 1 in
    ss_set_base t 0 b;
    ss_set_bound t 0 e
  in
  List.iter
    (fun name -> wrap name ret_arg0_bounds)
    [ "strcpy"; "strncpy"; "strcat"; "strchr" ];
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
        };
      trie = Hashtbl.create 256;
      ss = Shadow_stack.create st ~width:2 ~ns:"sb" ~zero_frames:false;
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
