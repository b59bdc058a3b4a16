(** The MIR interpreter: linking, loading, and execution on the VM.

    Functions are precompiled into a dense executable form (register
    slots, block indices, per-edge parallel phi moves); execution charges
    cycles according to the {!Cost} model — the quantity the paper's
    runtime figures are built from. *)

open Mi_mir

exception Link_error of string

type image
(** A loaded program: linked module, laid-out globals, precompiled
    functions. *)

val link : Irmod.t list -> Irmod.t
(** Merge separately compiled translation units: definitions resolve the
    extern declarations of sibling units (the paper's link step, Fig. 8);
    duplicate definitions raise {!Link_error}. *)

val load :
  ?alloc_global:
    (State.t -> name:string -> size:int -> align:int -> int option) ->
  State.t ->
  Irmod.t list ->
  image
(** Link, lay out and initialize globals, and precompile all functions.
    [alloc_global] decides placement per defined global: return
    [Some addr] to place it yourself (Low-Fat global mirroring), [None]
    for the default (non-low-fat) globals segment.  Extern globals with
    no definition anywhere model external-library globals and always land
    in the globals segment.

    Every call site resolves here, once, against the state's builtins, and
    loading closes the state's registry: install the C library and the
    checker runtimes first, since {!State.register_builtin} and
    {!State.register_intrinsic} raise [Invalid_argument] afterwards. *)

type outcome =
  | Exited of int
  | Safety_violation of { checker : string; reason : string }
      (** an instrumentation check aborted — the "report error" edge of
          the paper's Figure 1 *)
  | Trapped of string  (** VM-level error: wild access, ... *)
  | Exhausted of int
      (** the fuel budget (payload) ran out — resource exhaustion, e.g.
          an infinite loop, distinct from a program error *)

type result = {
  outcome : outcome;
  cycles : int;  (** modeled execution time *)
  steps : int;  (** dynamic instruction count *)
  output : string;  (** collected program output *)
  counters : (string * int) list;  (** runtime statistics, sorted *)
  mem_pages : int;  (** 4 KiB pages touched *)
}

val run : ?entry:string -> State.t -> image -> result
(** Execute [entry] (default ["main"]).  If the image defines
    [__mi_global_init] (SoftBound's constructor for pointers in global
    initializers), it runs first. *)

val func_regs : image -> string -> (int * int) option
(** [(n_iregs, n_fregs)] of a loaded (non-external) function — the
    register-bank sizes every call of it allocates.  Exposed so tests can
    pin precompiler frame-size properties (e.g. discarded results share
    one scratch slot per bank). *)

(** / *)

val merged_module : image -> Irmod.t
