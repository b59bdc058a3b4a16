(** The pluggable checker interface and its registry.

    A checker (SoftBound, Low-Fat, the temporal lock-and-key checker,
    ...) is the approach-specific half of the instrumentation pass: the
    generic half ([Mi_core.Instrument]) discovers targets (Table 1),
    memoizes witnesses over SSA definitions and drives placement, while
    everything that differs between approaches — what a witness is made
    of, how each definition kind sources one, which intrinsics maintain
    the invariant, and how a dereference check is spelled — lives behind
    a {!t} record resolved by name through {!find}.

    Checkers self-register at module-initialization time (see
    [Mi_core.Schemes]), mirroring the experiment registry of
    [Mi_bench_kit.Experiments]; registering a checker also registers its
    configuration basis in {!Mi_core.Config}, so CLI approach lookup,
    the experiment matrix and the instrumenter all share one namespace.

    A checker's runtime (one typed implementation per intrinsic, from
    which the VM derives the boxed builtin) is registered separately, on
    the VM side, through [Mi_runtimes] — the compiler half here emits
    calls {e by intrinsic name}, which is the contract binding the two
    halves together. *)

open Mi_mir

type witness = Value.t array
(** The SSA values carrying a pointer's metadata to its uses (§3.1):
    [[|base; bound|]] for SoftBound, [[|base|]] for Low-Fat, [[|key|]]
    for the temporal checker.  The array's arity and slot types are the
    checker's {!t.components}. *)

type ctx = {
  config : Config.t;
  m : Irmod.t;
  f : Func.t;
  edit : Edit.t;
  mutable witness_of : Value.t -> witness;
      (** memoized witness lookup, tied back to the instrumenter's
          witness engine after the context is created *)
  new_site : string -> Value.t;
      (** register an instrumentation site for this function; returns
          the site-id constant that rides on the check call *)
  count_invariant : unit -> unit;
  set_call_ret : Edit.anchor -> witness -> unit;
      (** pre-create the witness of a call's pointer result (the call
          protocol does this so later uses find it) *)
  get_call_ret : Edit.anchor -> witness option;
}
(** What a checker callback may see and do while instrumenting one
    function.  Edits go through [ctx.edit]; the instrumenter applies
    them once per function. *)

type t = {
  name : string;  (** registry name; equals [basis.approach] *)
  aliases : string list;
  descr : string;
  counter_ns : string;
      (** namespace of the runtime's counters, e.g. ["sb"] for
          ["sb.checks"] and ["sb.checks_wide"]; experiments read a run's
          checks through it and label their series with it *)
  table_name : string;
      (** the approach as report tables name it, e.g. ["SoftBound"] *)
  basis : Config.t;  (** the approach's default configuration *)
  components : (string * string * Ty.t) array;
      (** witness slots: (companion-phi name, companion-select name,
          slot type).  The generic engine uses these to build witness
          phis and selects of the right arity — names are load-bearing
          for instrumentation-cache keys and goldens. *)
  supports_dominance_opt : bool;
      (** whether dominance-based check elimination (§5.3) is sound for
          this checker.  False for the temporal checker: a dominating
          check only proves the key was live {e then}; a [free] between
          the two accesses invalidates the dominated check's premise. *)
  supports_hoist_opt : bool;
      (** whether loop-invariant check hoisting with range widening is
          sound: the checker's abort-on-failure semantics must permit
          aborting {e before} the loop for an access a later iteration
          would make.  False for the temporal checker — liveness at the
          preheader proves nothing about liveness at iteration [k]. *)
  supports_static_opt : bool;
      (** whether statically-proven-in-bounds checks may be deleted.
          False for the temporal checker: in-bounds says nothing about
          whether the allocation is still live at the access. *)
  wide : witness;
      (** the checker's "never reports" witness (wide bounds / key 0),
          used by weakened (fault-injected) checks *)
  w_const : ctx -> Value.t -> witness;
  w_global : ctx -> string -> witness;
  w_param : ctx -> Value.var -> idx:int -> witness;
  w_alloca : ctx -> Edit.anchor -> Value.var -> size:int -> witness;
  w_load : ctx -> Edit.anchor -> Value.var -> addr:Value.t -> witness;
  w_inttoptr : ctx -> Edit.anchor -> Value.var -> witness;
  w_cast_other : ctx -> Value.var -> witness;
  w_call :
    ctx ->
    Edit.anchor ->
    Value.var ->
    callee:string ->
    args:Value.t list ->
    witness option;
      (** witness of a call result the checker derives directly
          (allocators); [None] defers to the call protocol /
          {!t.w_call_fallback} *)
  w_call_fallback : ctx -> Edit.anchor -> Value.var -> witness;
      (** witness of a pointer-returning call no protocol covered (e.g.
          an unwrapped builtin) *)
  emit_ptr_store : ctx -> Itarget.ptr_store -> unit;
  emit_call : ctx -> Itarget.call -> unit;
  emit_ret : ctx -> Itarget.ptr_ret -> unit;
  emit_escape : ctx -> Itarget.ptr_escape_cast -> unit;
  emit_memop_invariant : ctx -> Itarget.memop -> unit;
  check_op :
    ptr:Value.t -> width:Value.t -> witness -> site:Value.t -> Instr.op;
      (** the dereference-check call for one access *)
  prepare_func : Config.t -> Func.t -> unit;
      (** pre-pass before target discovery (e.g. replacing allocas with
          a protected stack allocator) *)
  module_ctor : Config.t -> Irmod.t -> Func.t option;
      (** optional module constructor (e.g. SoftBound's global-metadata
          initializer) *)
}

(* --- shared helpers for schemes -------------------------------------- *)

(* Keep in sync with Mi_vm.Layout; duplicated to avoid a core -> vm
   dependency (the instrumentation is compiler-side, the VM is the
   "hardware").  The verifier tests assert the values match. *)
let wide_bound = 0x7FFF_FFFF_FFFF

let vi64 k = Value.Int (Ty.I64, k)
let vptr k = Value.Int (Ty.Ptr, k)
let call1 name args = Instr.Call (name, args)

let anchor_str (a : Edit.anchor) =
  a.Edit.ablock ^ ":" ^ string_of_int a.Edit.apos

(* slot index of a pointer parameter on the shadow stack: 1 + its rank
   among the pointer-typed parameters *)
let ptr_param_slot (f : Func.t) idx =
  let rank = ref 0 in
  let result = ref None in
  List.iteri
    (fun i (p : Value.var) ->
      if Ty.is_ptr p.vty then begin
        incr rank;
        if i = idx then result := Some !rank
      end)
    f.params;
  !result

(** Replace every alloca of [f] with a call to [intrinsic (size)] — the
    mirrored/keyed stack-allocation pre-pass shared by the Low-Fat and
    temporal schemes. *)
let replace_allocas intrinsic (f : Func.t) : unit =
  let edit = Edit.create f in
  List.iter
    (fun (b : Block.t) ->
      List.iteri
        (fun pos (i : Instr.t) ->
          match i.op with
          | Instr.Alloca { size; _ } ->
              Edit.set_replacement edit
                { Edit.ablock = b.Block.label; apos = pos }
                { i with op = call1 intrinsic [ vi64 size ] }
          | _ -> ())
        b.body)
    f.blocks;
  Edit.apply edit

(* --- registry --------------------------------------------------------- *)

let registry : t list ref = ref []

let register (c : t) =
  if c.name <> c.basis.Config.approach then
    invalid_arg
      (Printf.sprintf "Checker.register: name %S <> basis approach %S" c.name
         c.basis.Config.approach);
  if List.exists (fun x -> x.name = c.name) !registry then
    invalid_arg ("Checker.register: duplicate checker " ^ c.name);
  Config.register_basis ~aliases:c.aliases c.basis;
  registry := !registry @ [ c ]

let find name =
  let n = String.lowercase_ascii name in
  List.find_opt (fun c -> c.name = n || List.mem n c.aliases) !registry

let find_exn name =
  match find name with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "unknown checker %S (known: %s)" name
           (String.concat ", " (List.map (fun c -> c.name) !registry)))

let known_names () = List.map (fun c -> c.name) !registry
let all () = !registry

let print_registry () =
  List.iter
    (fun c ->
      Printf.printf "%-12s %s%s\n" c.name c.descr
        (match c.aliases with
        | [] -> ""
        | al -> Printf.sprintf " (aliases: %s)" (String.concat ", " al)))
    !registry

let resolve name =
  match Config.find_approach name with
  | Some cfg -> Ok cfg
  | None ->
      Error
        (Printf.sprintf "unknown approach %s; registered approaches:\n%s" name
           (String.concat ""
              (List.map (Printf.sprintf "  %s\n") (Config.known_approaches ()))))
