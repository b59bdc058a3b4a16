(** Temporal lock-and-key runtime (CETS, ISMM'10, adapted to this VM's
    disjoint-metadata idiom).

    Every allocation — heap objects via the chained allocator hook,
    keyed stack variables via [__mi_tp_alloca] — receives a fresh i64
    {e key} drawn from a never-reused counter.  The key is the pointer's
    temporal witness: [free] (and frame exit, for keyed stack objects)
    removes it from the live set, and a dereference check that finds its
    key dead reports a use-after-free.  Key 0 is the distinguished
    {e untracked} key: the temporal analog of wide bounds — counted
    ([tp.checks_wide]), never reported.

    The metadata layout mirrors SoftBound's: in-memory pointers keep
    their key in a disjoint trie keyed by the pointer's location, and
    keys cross calls on a shadow stack.  Unlike SoftBound's, the shadow
    stack's frames are {e zero-initialized} on entry, so a callee or
    caller outside the instrumentation reads key 0 — metadata gaps
    degrade to unprotected accesses, never to false reports (the §4.3
    stale-slot hazard does not exist for this checker by construction).

    The allocator hooks chain: [install] wraps whatever [malloc_hook]/
    [free_hook] were in place, so the temporal runtime composes with any
    underlying allocator.  The free hook is also the double-free
    detector — freeing a nonzero address that owns no live key raises
    {!Mi_vm.State.Safety_abort} before the standard allocator's trap
    would fire. *)

open Mi_vm
module Intr = Mi_mir.Intrinsics

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
  keys : (int, int) Hashtbl.t;  (** allocation base -> its (live) key *)
  live : (int, unit) Hashtbl.t;  (** keys not yet killed *)
  trie : (int, int) Hashtbl.t;  (** pointer location -> stored key *)
  mutable next_key : int;  (** fresh-key counter; keys are never reused *)
  ss : Shadow_stack.t;  (** width 1: one key per slot, zeroed frames *)
  saved_malloc : State.t -> int -> int;
  saved_free : State.t -> int -> unit;
}

(* --- key management --------------------------------------------------- *)

let new_key t addr =
  State.charge t.st t.st.State.cost.Cost.tp_meta;
  State.bump t.st "tp.key_alloc";
  let k = t.next_key in
  t.next_key <- k + 1;
  Hashtbl.replace t.live k ();
  Hashtbl.replace t.keys addr k;
  k

let kill t addr =
  match Hashtbl.find_opt t.keys addr with
  | Some k ->
      Hashtbl.remove t.live k;
      Hashtbl.remove t.keys addr;
      true
  | None -> false

let key_of_alloc t addr =
  State.charge t.st t.st.State.cost.Cost.tp_meta;
  Option.value ~default:0 (Hashtbl.find_opt t.keys addr)

(* --- trie (keys of in-memory pointers) -------------------------------- *)

let trie_store t addr key =
  State.charge t.st t.st.State.cost.Cost.tp_meta;
  Mi_obs.Metrics.bump t.n.n_trie_store;
  if key = 0 then Hashtbl.remove t.trie addr
  else Hashtbl.replace t.trie addr key

let trie_load t addr =
  State.charge t.st t.st.State.cost.Cost.tp_meta;
  Mi_obs.Metrics.bump t.n.n_trie_load;
  match Hashtbl.find t.trie addr with k -> k | exception Not_found -> 0

(** Copy keys for every pointer-sized slot of a moved memory range (the
    temporal half of the memcpy wrapper's [copy_metadata]). *)
let meta_copy t ~dst ~src len =
  State.bump t.st "tp.meta_copy";
  let n = len / 8 in
  for k = 0 to n - 1 do
    State.charge t.st (2 * t.st.State.cost.Cost.tp_meta);
    let sa = src + (k * 8) and da = dst + (k * 8) in
    match Hashtbl.find_opt t.trie sa with
    | Some key -> Hashtbl.replace t.trie da key
    | None -> Hashtbl.remove t.trie da
  done

(* --- shadow stack: one key per slot, frames zeroed ------------------ *)

let ss_enter t nslots = Shadow_stack.enter t.ss nslots
let ss_leave t = Shadow_stack.leave t.ss
let ss_set t slot v = Shadow_stack.set t.ss slot 0 v
let ss_get t slot = Shadow_stack.get t.ss slot 0

(* --- check (CETS Figure 4) --------------------------------------------- *)

let check t ~site ptr key =
  let st = t.st in
  State.charge st st.State.cost.Cost.tp_check;
  Mi_obs.Metrics.bump t.n.n_checks;
  if key = 0 then begin
    (* untracked: no allocation identity, access unprotected *)
    Mi_obs.Metrics.bump t.n.n_checks_wide;
    State.site_hit st site ~wide:true ~cycles:st.State.cost.Cost.tp_check
  end
  else begin
    State.site_hit st site ~wide:false ~cycles:st.State.cost.Cost.tp_check;
    if not (Hashtbl.mem t.live key) then
      raise
        (State.Safety_abort
           {
             checker = "temporal";
             reason =
               Printf.sprintf "use-after-free: ptr=%#x key=%d is dead" ptr key;
           })
  end

(* --- allocator hooks ---------------------------------------------------- *)

let tp_malloc t st sz =
  let a = t.saved_malloc st sz in
  if a <> 0 then ignore (new_key t a);
  a

(* Kill [addr]'s key and return its block to the underlying allocator;
   [false] when the address owns no live key. *)
let release t st addr =
  let live = kill t addr in
  if live then begin
    State.bump t.st "tp.frees";
    t.saved_free st addr
  end;
  live

let tp_free t st addr =
  if addr <> 0 && not (release t st addr) then
    raise
      (State.Safety_abort
         {
           checker = "temporal";
           reason = Printf.sprintf "double or invalid free: ptr=%#x" addr;
         })

(* --- installation ------------------------------------------------------- *)

let install (st : State.t) : t =
  let t =
    {
      st;
      n =
        {
          n_checks = State.handle st "tp.checks";
          n_checks_wide = State.handle st "tp.checks_wide";
          n_trie_store = State.handle st "tp.trie_store";
          n_trie_load = State.handle st "tp.trie_load";
        };
      keys = Hashtbl.create 256;
      live = Hashtbl.create 256;
      trie = Hashtbl.create 256;
      next_key = 1;
      ss = Shadow_stack.create st ~width:1 ~ns:"tp" ~zero_frames:true;
      saved_malloc = st.malloc_hook;
      saved_free = st.free_hook;
    }
  in
  st.malloc_hook <- (fun st sz -> tp_malloc t st sz);
  st.free_hook <- (fun st a -> tp_free t st a);
  (* Each intrinsic's one typed implementation; the boxed builtin for
     unfused calls is derived from it by [State.register_intrinsic]. *)
  let reg = State.register_intrinsic st in
  reg Intr.tp_check
    (State.F3 (fun _ ptr key site -> check t ~site ptr key));
  reg Intr.tp_alloc_key (State.FR1 (fun _ addr -> key_of_alloc t addr));
  reg Intr.tp_trie_store (State.F2 (fun _ addr key -> trie_store t addr key));
  reg Intr.tp_trie_load (State.FR1 (fun _ addr -> trie_load t addr));
  reg Intr.tp_meta_copy
    (State.F3 (fun _ dst src len -> meta_copy t ~dst ~src len));
  reg Intr.tp_ss_enter (State.F1 (fun _ n -> ss_enter t n));
  reg Intr.tp_ss_leave (State.F0 (fun _ -> ss_leave t));
  reg Intr.tp_ss_set (State.F2 (fun _ slot v -> ss_set t slot v));
  reg Intr.tp_ss_get (State.FR1 (fun _ slot -> ss_get t slot));
  (* keyed stack variables: instrumented allocas move to the heap
     allocator (which keys them) and die at frame exit, making
     dangling-stack-reference dereferences detectable; an explicit free
     of one is tolerated, as only still-live keys are killed and
     released *)
  reg Intr.tp_alloca
    (State.FR1
       (Frame_objects.install st
          ~alloc:(fun st sz -> tp_malloc t st sz)
          ~release:(fun st a -> ignore (release t st a))));
  t
