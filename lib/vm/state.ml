(** Mutable VM state: memory, cycle/step accounting, allocator hooks,
    statistics, and the builtin-function registry.

    The memory-safety runtimes ({!Mi_lowfat}, {!Mi_softbound}) do not live
    in this library; they attach to a state by registering builtins and
    replacing the allocator hooks.  This keeps the VM generic and lets the
    harness run the same program under different runtime configurations.

    Runtime statistics live in a {!Mi_obs.Metrics} registry (counters,
    gauges, histograms — one namespace shared with the instrumenter's
    static statistics when the harness passes a common registry), and
    check executions are attributed to their instrumentation site
    through a {!Mi_obs.Site} registry. *)

type value = I of int | F of float

exception Exit_program of int

exception Safety_abort of { checker : string; reason : string }
(** Raised by check intrinsics on a detected violation — the
    instrumentation's "report error & abort" path of Figure 1. *)

exception Trap of string
(** VM-level error: wild access, division by zero, ... *)

(* VM values come from the program, so a kind mismatch (a float passed
   where a builtin wants an int, say) is a program error: it traps.  The
   raise sits in its own function to keep these hot accessors small. *)
let trap msg = raise (Trap msg)
let as_int = function I x -> x | F _ -> trap "expected int value"
let as_float = function F x -> x | I _ -> trap "expected float value"

exception Fuel_exhausted of int
(** The dynamic step budget ran out (payload: the budget).  Distinct
    from {!Trap} so callers can report resource exhaustion separately
    from program errors. *)

(** The one implementation of a runtime intrinsic, typed by arity.
    Fused call sites invoke it directly on unboxed integers; every other
    call goes through the boxed adapter {!register_intrinsic} derives
    from it, so both paths run the same code.  Arguments and results
    are integers (pointers, widths, slots, site ids); nothing on the
    check path is float-typed. *)
type fast_fn =
  | F0 of (t -> unit)
  | F1 of (t -> int -> unit)
  | F2 of (t -> int -> int -> unit)
  | F3 of (t -> int -> int -> int -> unit)
  | F4 of (t -> int -> int -> int -> int -> unit)
  | F5 of (t -> int -> int -> int -> int -> int -> unit)
  | FR1 of (t -> int -> int)  (** one int argument, int result *)

(** A registered builtin.  [boxed] serves every unfused call; a runtime
    intrinsic also carries its [typed] implementation, which [boxed] is
    derived from and fused call sites invoke directly. *)
and builtin = {
  boxed : t -> value array -> value option;
  typed : fast_fn option;
}

and t = {
  mem : Memory.t;
  cost : Cost.t;
  mutable cycles : int;
  mutable steps : int;
  mutable fuel : int;  (** max dynamic instructions before trapping *)
  mutable next_poll_step : int;
      (** earliest step any poll hook wants to run at; [max_int] when
          none is pending *)
  mutable step_limit : int;
      (** [min (fuel + 1) next_poll_step]: the first step at which
          {!slow_tick} has anything to do, so the interpreter's hot path
          pays a single comparison.  [fuel] and [next_poll_step] are
          written only by {!cap_fuel}, {!poll_at} and {!run_polls}, which
          keep it in sync. *)
  mutable poll_hooks : (t -> unit) list;
  out : Buffer.t;
  metrics : Mi_obs.Metrics.t;
  sites : Mi_obs.Site.t;
      (** check-site profile; shared with the instrumenter for per-site
          attribution, otherwise an empty registry that ignores hits *)
  coverage : Mi_obs.Coverage.t option;
      (** block/edge coverage registry.  [None] (the default) means the
          interpreter records nothing: {!Mi_vm.Interp.load} compiles
          terminators without coverage code.  [Some] makes it register
          every function's CFG geometry and compile terminators that
          count block entries and edge traversals.  Recording is a pure
          side band: it never touches cycles, steps or counters, so
          coverage-on and coverage-off runs are observationally
          identical everywhere else. *)
  rng : Mi_support.Rng.t;
  builtins : (string, builtin) Hashtbl.t;
      (** the one builtin registry; {!Mi_vm.Interp.load} resolves every
          call site against it once, and closes it *)
  mutable loaded : bool;
      (** set by {!Mi_vm.Interp.load}: registering a builtin afterwards
          raises [Invalid_argument] *)
  mutable fast_dispatch : bool;
      (** when [false], {!Mi_vm.Interp.load} never fuses intrinsic calls
          into superinstructions: every runtime call dispatches through
          the boxed adapter.  Fusion is a load-time decision, so flip
          this {e before} loading an image.  Both paths run the same
          typed implementation; the switch selects between the two
          interpreter call paths so they stay differentially testable
          (the fuzzing oracle runs every program both ways and demands
          byte-identical results). *)
  mutable malloc_hook : t -> int -> int;
  mutable free_hook : t -> int -> unit;
  mutable frame_enter_hook : t -> unit;
  mutable frame_exit_hook : t -> unit;
  (* standard allocator state *)
  mutable heap_brk : int;
  free_lists : (int, int list ref) Hashtbl.t;  (** size-class -> free list *)
  alloc_sizes : (int, int) Hashtbl.t;  (** live allocation -> usable size *)
  (* conventional stack *)
  mutable stack_ptr : int;
}

let charge t c = t.cycles <- t.cycles + c

let sync_limit t =
  let fuel_stop = if t.fuel = max_int then max_int else t.fuel + 1 in
  t.step_limit <- min fuel_stop t.next_poll_step

(** Lower the fuel budget to [n] steps (a budget already below [n]
    stays). *)
let cap_fuel t n =
  if n < t.fuel then begin
    t.fuel <- n;
    sync_limit t
  end

(** Ask for the poll hooks to run once [t.steps] reaches [at_step] (an
    earlier pending step stays).  Hooks that want to keep polling re-arm
    themselves with it from inside the callback (fault injectors and
    wall-clock deadlines do exactly that). *)
let poll_at t at_step =
  if at_step < t.next_poll_step then begin
    t.next_poll_step <- at_step;
    sync_limit t
  end

(** Register [fn] as a poll hook, first due at [at_step]. *)
let add_poll t ~at_step fn =
  t.poll_hooks <- fn :: t.poll_hooks;
  poll_at t at_step

(** Run every poll hook.  The pending step resets first so hooks can
    re-arm; hooks that have nothing left to do simply return without
    re-arming. *)
let run_polls t =
  t.next_poll_step <- max_int;
  sync_limit t;
  List.iter (fun fn -> fn t) t.poll_hooks

(** The rare half of a step, once [t.steps] has reached
    [t.step_limit]: the fuel test, then the poll hooks, in that order. *)
let slow_tick t =
  if t.steps > t.fuel then raise (Fuel_exhausted t.fuel);
  if t.steps >= t.next_poll_step then run_polls t

let bump ?(by = 1) t key = Mi_obs.Metrics.incr ~by t.metrics key

let counter t key = Mi_obs.Metrics.counter t.metrics key

(** [key]'s counter in [t]'s registry, resolved once: runtimes take
    their per-step counters at install and bump them with
    {!Mi_obs.Metrics.bump}, which costs no name lookup.  Cold paths keep
    {!bump}. *)
let handle t key = Mi_obs.Metrics.handle t.metrics key

(** Counters sorted by key — {!Mi_obs.Metrics.counters_alist} is the
    only order the registry exposes, so reports are deterministic. *)
let counters_alist t = Mi_obs.Metrics.counters_alist t.metrics

let observe t key v = Mi_obs.Metrics.observe t.metrics key v

(** Attribute one executed check to instrumentation site [id] (a
    negative or unknown id is ignored). *)
let site_hit t id ~wide ~cycles = Mi_obs.Site.hit t.sites id ~wide ~cycles

(* Registration closes when an image is loaded: its call sites were
   resolved against the table as it stood then. *)
let register t name b =
  if t.loaded then
    invalid_arg
      (Printf.sprintf "State.register: builtin %s registered after Interp.load"
         name);
  Hashtbl.replace t.builtins name b

(** Register (or replace) builtin [name]; raises [Invalid_argument] once
    an image has been loaded into [t]. *)
let register_builtin t name fn = register t name { boxed = fn; typed = None }

let find_builtin t name =
  Option.map (fun b -> b.boxed) (Hashtbl.find_opt t.builtins name)

(** Register runtime intrinsic [name] from its one typed implementation:
    fused call sites run [ffn] directly, and a boxed adapter derived
    from it here serves every other call.  The adapter traps, naming the
    intrinsic, on a call with the wrong argument count or a float
    argument.  Raises [Invalid_argument] once an image has been loaded
    into [t]. *)
let register_intrinsic t name ffn =
  let fail fmt = Printf.ksprintf (fun m -> trap (name ^ ": " ^ m)) fmt in
  let arity args n =
    let k = Array.length args in
    if k <> n then fail "called with %d arguments, expected %d" k n
  in
  let arg args k =
    match args.(k) with
    | I x -> x
    | F _ -> fail "float argument, expected an int"
  in
  let void n call st args =
    arity args n;
    call st args;
    None
  in
  let boxed : t -> value array -> value option =
    match ffn with
    | F0 f -> void 0 (fun st _ -> f st)
    | F1 f -> void 1 (fun st a -> f st (arg a 0))
    | F2 f -> void 2 (fun st a -> f st (arg a 0) (arg a 1))
    | F3 f -> void 3 (fun st a -> f st (arg a 0) (arg a 1) (arg a 2))
    | F4 f -> void 4 (fun st a -> f st (arg a 0) (arg a 1) (arg a 2) (arg a 3))
    | F5 f ->
        void 5 (fun st a ->
            f st (arg a 0) (arg a 1) (arg a 2) (arg a 3) (arg a 4))
    | FR1 f ->
        fun st a ->
          arity a 1;
          Some (I (f st (arg a 0)))
  in
  register t name { boxed; typed = Some ffn }

let find_fast_builtin t name =
  Option.bind (Hashtbl.find_opt t.builtins name) (fun b -> b.typed)

(* --- standard allocator -------------------------------------------- *)

(* Size-class segregated free lists over a bump region: deterministic and
   cheap.  Classes are powers of two from 16 bytes. *)

let size_class sz = Mi_support.Util.round_up_pow2 (max sz 16)

let std_malloc t sz =
  if sz < 0 then raise (Trap "malloc with negative size");
  charge t t.cost.Cost.alloc;
  bump t "std.malloc";
  observe t "alloc.bytes" sz;
  let cls = size_class (max sz 1) in
  let addr =
    match Hashtbl.find_opt t.free_lists cls with
    | Some ({ contents = a :: rest } as l) ->
        l := rest;
        a
    | _ ->
        let a = Mi_support.Util.align_up t.heap_brk (min cls 4096) in
        if a + cls > Layout.heap_limit then raise (Trap "standard heap exhausted");
        t.heap_brk <- a + cls;
        a
  in
  Hashtbl.replace t.alloc_sizes addr sz;
  addr

let std_free t addr =
  if addr <> 0 then begin
    charge t t.cost.Cost.alloc;
    bump t "std.free";
    match Hashtbl.find_opt t.alloc_sizes addr with
    | None -> raise (Trap (Printf.sprintf "free of non-allocated %#x" addr))
    | Some sz ->
        Hashtbl.remove t.alloc_sizes addr;
        let cls = size_class (max sz 1) in
        (match Hashtbl.find_opt t.free_lists cls with
        | Some l -> l := addr :: !l
        | None -> Hashtbl.add t.free_lists cls (ref [ addr ]))
  end

let create ?(cost = Cost.default) ?(fuel = 2_000_000_000) ?(seed = 42)
    ?metrics ?sites ?coverage () =
  let metrics =
    match metrics with Some m -> m | None -> Mi_obs.Metrics.create ()
  in
  let sites = match sites with Some s -> s | None -> Mi_obs.Site.create () in
  let t =
    {
      mem = Memory.create ();
      cost;
      cycles = 0;
      steps = 0;
      fuel;
      next_poll_step = max_int;
      step_limit = 0;
      poll_hooks = [];
      out = Buffer.create 256;
      metrics;
      sites;
      coverage;
      rng = Mi_support.Rng.create seed;
      builtins = Hashtbl.create 64;
      loaded = false;
      fast_dispatch = true;
      malloc_hook = (fun _ _ -> 0);
      free_hook = (fun _ _ -> ());
      frame_enter_hook = (fun _ -> ());
      frame_exit_hook = (fun _ -> ());
      heap_brk = Layout.heap_base;
      free_lists = Hashtbl.create 16;
      alloc_sizes = Hashtbl.create 256;
      stack_ptr = Layout.stack_top;
    }
  in
  t.malloc_hook <- std_malloc;
  t.free_hook <- std_free;
  sync_limit t;
  t

let output t = Buffer.contents t.out
