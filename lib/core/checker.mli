(** The pluggable checker interface and its registry.

    The generic instrumentation pass ([Mi_core.Instrument]) drives
    target discovery and witness memoization; everything
    approach-specific — witness shape and sources, invariant
    maintenance, the spelling of a dereference check — lives behind a
    {!t} resolved by name.  Checkers self-register at module
    initialization (see [Mi_core.Schemes]); registering also registers
    the checker's configuration basis in {!Mi_core.Config}. *)

open Mi_mir

type witness = Value.t array
(** The SSA values carrying a pointer's metadata to its uses (§3.1):
    [[|base; bound|]] for SoftBound, [[|base|]] for Low-Fat, [[|key|]]
    for the temporal checker; shaped by {!t.components}. *)

(** Per-function instrumentation context handed to checker callbacks;
    edits go through [edit], applied once per function. *)
type ctx = {
  config : Config.t;
  m : Irmod.t;
  f : Func.t;
  edit : Edit.t;
  mutable witness_of : Value.t -> witness;
      (** memoized witness lookup (tied by the instrumenter) *)
  new_site : string -> Value.t;
      (** register a site; returns the id constant for the check call *)
  count_invariant : unit -> unit;
  set_call_ret : Edit.anchor -> witness -> unit;
      (** pre-create the witness of a call's pointer result *)
  get_call_ret : Edit.anchor -> witness option;
}

(** A class of memory-safety violation (§3, Table 2). *)
type hazard =
  | Spatial  (** an access outside the object's bounds *)
  | Uaf  (** an access to an object after its lifetime ended *)
  | Double_free  (** a second [free] of one allocation *)

(** The extent a spatial check compares an access against. *)
type precision =
  | Exact
      (** what the allocation or declaration states: a size-less
          [extern] declaration carries wide bounds (§4.3) *)
  | Size_class  (** the padded size class: the padding passes *)

type t = {
  name : string;  (** registry name; equals [basis.approach] *)
  aliases : string list;
  descr : string;
  counter_ns : string;
      (** namespace of the runtime's counters (["sb"] for ["sb.checks"]);
          reports and the fuzz oracle's tags are built from it *)
  table_name : string;  (** the approach in report tables (["SoftBound"]) *)
  basis : Config.t;
  components : (string * string * Ty.t) array;
      (** witness slots: (phi name, select name, slot type); the names
          are load-bearing for instrumentation-cache keys and goldens *)
  guarantees : hazard list;
      (** the hazard classes the checker guarantees to report: [[Spatial]]
          for SoftBound and Low-Fat, [[Uaf; Double_free]] for the temporal
          checker.  The fuzz oracle's expectations, the safety corpus's
          verdicts, the mutation kill orders and {!check_elim_sound} all
          derive from it. *)
  precision : precision;
      (** [Exact] for SoftBound, [Size_class] for Low-Fat; read only
          where [guarantees] includes [Spatial] *)
  wide : witness;  (** the "never reports" witness (weakened checks) *)
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
      (** a call result's witness (allocators); [None]: call protocol *)
  w_call_fallback : ctx -> Edit.anchor -> Value.var -> witness;
      (** a pointer-returning call no protocol covered *)
  emit_ptr_store : ctx -> Itarget.ptr_store -> unit;
  emit_call : ctx -> Itarget.call -> unit;
  emit_ret : ctx -> Itarget.ptr_ret -> unit;
  emit_escape : ctx -> Itarget.ptr_escape_cast -> unit;
  emit_memop_invariant : ctx -> Itarget.memop -> unit;
  check_op :
    ptr:Value.t -> width:Value.t -> witness -> site:Value.t -> Instr.op;
      (** the dereference-check call for one access *)
  prepare_func : Config.t -> Func.t -> unit;
      (** pre-pass before target discovery (e.g. alloca replacement) *)
  module_ctor : Config.t -> Irmod.t -> Func.t option;
      (** optional module constructor (SoftBound's global metadata) *)
}

val is_temporal : hazard -> bool
(** [Uaf] and [Double_free]: hazards a [free] creates. *)

val check_elim_sound : t -> bool
(** Whether the check-elimination passes (dominance, static in-bounds,
    hoisting) are sound for the checker: each assumes a proven check
    stays proven until its access, which a [free] between the two
    breaks, so guaranteeing a temporal hazard vetoes all three. *)

(** {1 Helpers shared by checker schemes} *)

val wide_bound : int
(** Upper bound of the addressable space (kept in sync with
    [Mi_vm.Layout]; asserted equal by the verifier tests). *)

val vi64 : int -> Value.t
val vptr : int -> Value.t
val call1 : string -> Value.t list -> Instr.op
val anchor_str : Edit.anchor -> string
val ptr_param_slot : Func.t -> int -> int option
(** Shadow-stack slot of pointer parameter [idx]: 1 + its rank among
    the pointer-typed parameters. *)

val replace_allocas : string -> Func.t -> unit
(** Replace every alloca with a call to [intrinsic (size)] — the
    protected-stack pre-pass shared by Low-Fat and temporal. *)

(** {1 Registry} *)

val register : t -> unit
(** Self-registration; also registers [basis] in [Config].  Raises
    [Invalid_argument] on duplicates or a name/basis mismatch. *)

val find : string -> t option
(** Case-insensitive, alias-aware lookup. *)

val find_exn : string -> t
(** Like {!find} but raises [Invalid_argument] naming known checkers. *)

val known_names : unit -> string list
(** Registered checker names, in registration order. *)

val all : unit -> t list

val print_registry : unit -> unit
(** The [--list-approaches] output of every command: one line per
    registered checker on stdout (name, description, aliases). *)

val resolve : string -> (Config.t, string) result
(** {!Config.find_approach}, or the message every command prints (after
    its own name) before exiting 2 on an unregistered approach: the name
    and the registered approaches, one per line. *)
