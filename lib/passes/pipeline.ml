(** Compiler pipelines with instrumentation extension points.

    Mirrors Figure 8 of the paper: the MemInstrument pass can be plugged
    into the -O3 pipeline at [ModuleOptimizerEarly] (before the main
    scalar optimizations), [ScalarOptimizerLate] (after them), or
    [VectorizerStart] (just before late/vectorization cleanup).  Because
    inserted checks may abort, instrumenting early blocks mem2reg, LICM
    and friends — the ~30% effect of Figures 12/13. *)

open Mi_mir

type extension_point =
  | ModuleOptimizerEarly
  | ScalarOptimizerLate
  | VectorizerStart

let ep_name = function
  | ModuleOptimizerEarly -> "ModuleOptimizerEarly"
  | ScalarOptimizerLate -> "ScalarOptimizerLate"
  | VectorizerStart -> "VectorizerStart"

let all_extension_points =
  [ ModuleOptimizerEarly; ScalarOptimizerLate; VectorizerStart ]

(* The pipeline stages.  Like clang, the frontend already runs a
   per-function simplification (SROA/mem2reg and cleanup) before the
   module optimization pipeline begins — so code reaching the
   ModuleOptimizerEarly extension point is in promoted SSA form, and the
   early-vs-late gap of Figures 12/13 comes from the inlining, GVN and
   LICM that checks subsequently block, not from unpromoted allocas. *)

(** A named group of passes: one span in a trace and, before an
    extension point, one stage that every variant reaching it shares. *)
type phase = {
  name : string;
  id : string;
  passes : Pass.t list;
  rounds : int;
}

let canonicalize =
  {
    name = "canonicalize";
    id = "canonicalize";
    passes =
      [ Simplifycfg.pass; Mem2reg.pass; Instcombine.pass; Simplifycfg.pass ];
    rounds = 1;
  }

let o1_scalar =
  {
    name = "scalar-opts";
    id = "O1/scalar-opts";
    passes = [ Instcombine.pass; Dce.pass; Simplifycfg.pass ];
    rounds = 1;
  }

let o3_scalar =
  {
    name = "scalar-opts";
    id = "O3/scalar-opts";
    passes =
      [
        Instcombine.pass;
        Simplifycfg.pass;
        Inline.pass;
        Mem2reg.pass;
        Instcombine.pass;
        Gvn.pass;
        Licm.pass;
        Dce.pass;
        Simplifycfg.pass;
        Instcombine.pass;
        Gvn.pass;
        Dce.pass;
      ];
    rounds = 2;
  }

let late_scalar =
  {
    name = "late-scalar";
    id = "late-scalar";
    passes =
      [ Instcombine.pass; Gvn.pass; Licm.pass; Dce.pass; Simplifycfg.pass ];
    rounds = 1;
  }

(* stands in for the vectorizer + final cleanup; the paper's SoftBound
   implementation does not support vectorized code, so the placeholder is
   cleanup only *)
let late_cleanup =
  {
    name = "late-cleanup";
    id = "late-cleanup";
    passes = [ Instcombine.pass; Dce.pass; Simplifycfg.pass ];
    rounds = 1;
  }

(** Optimization levels.  [O3] is the baseline of the runtime evaluation;
    [O0] leaves the naive lowering untouched. *)
type level = O0 | O1 | O3

(* The phase table: per level, each extension point with the phase that
   runs between the previous point and it, then the phases after the
   last point.  At O1 the scalar-late and vectorizer-start points
   coincide.  O0 optimizes nothing and has no points: the
   instrumentation runs on the unoptimized module. *)
let table = function
  | O0 -> ([], [])
  | O1 ->
      ( [
          (ModuleOptimizerEarly, Some canonicalize);
          (ScalarOptimizerLate, Some o1_scalar);
          (VectorizerStart, None);
        ],
        [ late_cleanup ] )
  | O3 ->
      ( [
          (ModuleOptimizerEarly, Some canonicalize);
          (ScalarOptimizerLate, Some o3_scalar);
          (VectorizerStart, Some late_scalar);
        ],
        [ late_cleanup ] )

(* the phases before and after [ep], and whether [ep] is a point of the
   level's pipeline *)
let split level ep =
  let points, tail = table level in
  let rec go before = function
    | [] -> (List.rev before, tail, false)
    | (p, ph) :: rest ->
        let before = Option.fold ~none:before ~some:(fun x -> x :: before) ph in
        if p = ep then (List.rev before, List.filter_map snd rest @ tail, true)
        else go before rest
  in
  go [] points

let prefix level ep =
  let before, _, _ = split level ep in
  before

let run_phase ?tracer ph m =
  let body () =
    ignore (Pass.run_fixpoint ?tracer ~max_rounds:ph.rounds ph.passes m)
  in
  match tracer with
  | None -> body ()
  | Some tr ->
      Mi_obs.Trace.with_span tr ~cat:"phase"
        ~args:[ ("instrs", Mi_obs.Trace.Aint (Irmod.instr_count m)) ]
        ph.name body

let resume ?(level = O3) ?instrument ?(ep = VectorizerStart) ?tracer m =
  let _, after, marked = split level ep in
  Option.iter
    (fun f ->
      (match tracer with
      | Some tr when marked ->
          Mi_obs.Trace.instant tr ~cat:"pipeline"
            ~args:[ ("ep", Mi_obs.Trace.Astr (ep_name ep)) ]
            "extension-point"
      | _ -> ());
      f m)
    instrument;
  List.iter (fun ph -> run_phase ?tracer ph m) after

(** Run the pipeline at [level] on [m], invoking [instrument] (if any) at
    extension point [ep]: the phases of {!prefix}, then {!resume}.
    Instrumentation-inserted code is subject to all passes that run
    after its extension point, exactly as in Fig. 8. *)
let run ?(level = O3) ?instrument ?(ep = VectorizerStart) ?tracer m =
  List.iter (fun ph -> run_phase ?tracer ph m) (prefix level ep);
  resume ~level ?instrument ~ep ?tracer m
