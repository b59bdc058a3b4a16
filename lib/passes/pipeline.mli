(** Compiler pipelines with instrumentation extension points (the
    paper's Figure 8).

    The MemInstrument pass can be plugged into the -O3 pipeline at
    [ModuleOptimizerEarly] (before the main scalar optimizations, but —
    as in clang — after the frontend's per-function mem2reg/cleanup),
    [ScalarOptimizerLate], or [VectorizerStart].  Because inserted checks
    may abort, early instrumentation blocks inlining, GVN and LICM — the
    extension-point effect of Figures 12/13. *)

open Mi_mir

type extension_point =
  | ModuleOptimizerEarly
  | ScalarOptimizerLate
  | VectorizerStart

val ep_name : extension_point -> string
val all_extension_points : extension_point list

(** Optimization levels.  [O3] is the baseline of the paper's runtime
    evaluation; [O0] leaves the naive lowering untouched. *)
type level = O0 | O1 | O3

(** A named group of passes.  Each phase runs under one trace span
    ([name]); [id] is unique across levels (O1's and O3's
    ["scalar-opts"] differ), so a sequence of ids names the module a
    pipeline prefix produces. *)
type phase = {
  name : string;
  id : string;
  passes : Pass.t list;
  rounds : int;  (** at most this many rounds, until nothing changes *)
}

val prefix : level -> extension_point -> phase list
(** The phases that run before [ep] at [level], in order: the part of
    the pipeline every variant instrumented at [ep] (or not at all)
    shares.  [[]] at [O0]. *)

val run_phase : ?tracer:Mi_obs.Trace.t -> phase -> Irmod.t -> unit
(** Run one phase in place, under a ["phase"] span when traced. *)

val resume :
  ?level:level ->
  ?instrument:(Irmod.t -> unit) ->
  ?ep:extension_point ->
  ?tracer:Mi_obs.Trace.t ->
  Irmod.t ->
  unit
(** Continue a module that has run [prefix level ep]: invoke
    [instrument] at [ep], then run the rest of the pipeline. *)

val run :
  ?level:level ->
  ?instrument:(Irmod.t -> unit) ->
  ?ep:extension_point ->
  ?tracer:Mi_obs.Trace.t ->
  Irmod.t ->
  unit
(** Optimize [m] in place at [level] (default [O3]), invoking
    [instrument] at extension point [ep] (default [VectorizerStart]):
    the phases of {!prefix}, then {!resume}.
    Instrumentation-inserted code is subject to every pass that runs
    after its extension point.  At [O0] the instrumentation runs on the
    unoptimized module (all extension points coincide).

    With [tracer], every pipeline phase and every pass within it is
    wrapped in a {!Mi_obs.Trace} span whose arguments record the
    instruction-count delta the pass caused, and an instant event marks
    where the instrumentation extension point fired (not at [O0], which
    has no extension points). *)
