(** The safety oracle: what must be true of a generated program.

    For a {e safe} program ({!Gen.generate}), every setup in the
    experiment matrix — optimization levels, every registered checker,
    every extension point, both VM dispatch modes — must
    produce output byte-identical to the uninstrumented [-O0]
    reference, with no safety report, no trap, and no fuel exhaustion.
    Additionally the instrumentations must agree on the dynamic check
    count (the shared target discovery places the same checks), and the
    VM's fused fast-path must be observationally identical to generic
    dispatch (same output, same cycles, same counters).

    For an {e unsafe mutant}, the oracle flips along the mutant's
    hazard class ({!Gen.mutant_kind}): every checker whose
    [Checker.guarantees] include the class must report it — except a
    checker with [Exact] bounds on a site whose bounds are wide by
    design (size-less extern declaration, §4.3) — and every other
    checker is excused: a spatial overflow ({!Gen.mutate}) is outside
    the lock-and-key checker's scope, a use-after-free or double free
    ({!Gen.mutate_temporal}) outside the spatial checkers'.  Every
    excusal is {e whitelisted} with its written justification rather
    than counted as missed.

    The functions here only build job lists and judge result lists; the
    caller owns the {!Mi_bench_kit.Harness} session, so an entire
    campaign can go through one {!Mi_bench_kit.Harness.run_jobs} matrix
    and inherit its caching, sharding and [-j]-determinism. *)

module Checker = Mi_core.Checker
module Config = Mi_core.Config
module Pipeline = Mi_passes.Pipeline
module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench

(** One oracle violation.  [f_kind] is a closed vocabulary:
    ["compile-error"], ["spurious-report"], ["trap"], ["fuel"],
    ["exit-code"], ["output-divergence"], ["check-count-mismatch"],
    ["dispatch-divergence"], ["ref-failed"], ["missed-violation"]. *)
type finding = {
  f_seed : int;
  f_setup : string;  (** matrix tag, e.g. ["O3+sb@scalarlate"] *)
  f_kind : string;
  f_detail : string;
}

let finding_to_string f =
  Printf.sprintf "seed %d [%s] %s: %s" f.f_seed f.f_setup f.f_kind f.f_detail

(* ------------------------------------------------------------------ *)
(* The matrix                                                          *)
(* ------------------------------------------------------------------ *)

let reference = { Harness.baseline with level = Pipeline.O0 }

(* every registered checker, in registration order: the registry, not
   [Config.known_approaches], so an [--approach] restriction leaves the
   matrix unchanged *)
let checkers = Checker.all ()

let o3 cfg = Harness.with_config cfg Harness.baseline

(* a checker's tag at one level: the level, "+", its counter namespace *)
let tag level (c : Checker.t) = level ^ "+" ^ c.Checker.counter_ns

(** One [O3+ns] variant per registered checker ([ns] its counter
    namespace), in registry order: the runs the check-count and
    dispatch contracts compare. *)
let checker_variants : (string * Harness.setup) list =
  List.map (fun c -> (tag "O3" c, o3 c.Checker.basis)) checkers

(* [O3+ns+checkopt]: every elimination pass, wherever they are sound *)
let checkopt_variants =
  List.map
    (fun c -> (tag "O3" c ^ "+checkopt", o3 (Config.optimized_full c.basis)))
    (List.filter Checker.check_elim_sound checkers)

(** The full safe-program matrix (reference excluded).  Tags are stable:
    they appear in repro files and CI JSON.  Three are explicit probes
    of one checker: dominance elimination alone, and the two extension
    points other than VectorizerStart. *)
let variants : (string * Harness.setup) list =
  [
    ("O1", { Harness.baseline with level = Pipeline.O1 });
    ("O3", Harness.baseline);
  ]
  @ List.concat_map
      (fun c ->
        let s = o3 c.Checker.basis in
        [ (tag "O1" c, { s with level = Pipeline.O1 }); (tag "O3" c, s) ])
      checkers
  @ [ ("O3+sb+domopt", o3 (Config.optimized Config.softbound)) ]
  @ checkopt_variants
  @ [
      ( "O3+lf@early",
        { (o3 Config.lowfat) with ep = Pipeline.ModuleOptimizerEarly } );
      ( "O3+sb@scalarlate",
        { (o3 Config.softbound) with ep = Pipeline.ScalarOptimizerLate } );
    ]
  @ List.map
      (fun (t, s) ->
        (t ^ "/generic", { s with Harness.dispatch = Harness.Generic }))
      checker_variants

let variant_setup tag =
  if tag = "O0" then reference
  else
    match List.assoc_opt tag variants with
    | Some s -> s
    | None -> invalid_arg ("Oracle.variant_setup: unknown tag " ^ tag)

(** Mutant matrix: the unsafe access must be reached, so only the
    instrumented setups run (uninstrumented, an out-of-bounds write is
    undefined — it may trap or silently corrupt).  The [checkopt]
    configurations are held to the same bar as their bases: static
    in-bounds elimination and hoisting may only delete checks they
    proved redundant, so an eliminated-yet-needed check on an injected
    violation shows up here as a miss — every mutant campaign
    cross-examines the optimizer. *)
let mutant_variants : (string * Harness.setup) list =
  checker_variants @ checkopt_variants

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

let bench_of_sources ~name sources =
  Bench.mk ~suite:Bench.CPU2006 ~descr:"generated fuzz program" name sources

let safe_bench (p : Gen.prog) =
  bench_of_sources ~name:(Printf.sprintf "fuzz-%d" p.Gen.p_seed) p.Gen.p_sources

let mutant_bench (m : Gen.mutant) =
  bench_of_sources
    ~name:(Printf.sprintf "fuzz-%d-mut" m.Gen.m_prog.Gen.p_seed)
    m.Gen.m_sources

(** Jobs for one benchmark, reference first then {!variants} in order.
    Judge the result list with {!judge_safe_results} — the corpus
    replay/soak path, where candidates are arbitrary well-typed sources
    rather than generator-fresh {!Gen.prog}s. *)
let safe_jobs_of (b : Bench.t) : (Harness.setup * Bench.t) list =
  (reference, b) :: List.map (fun (_, s) -> (s, b)) variants

(** Jobs for one safe program, reference first then {!variants} in
    order.  Judge the result list with {!judge_safe}. *)
let safe_jobs (p : Gen.prog) : (Harness.setup * Bench.t) list =
  safe_jobs_of (safe_bench p)

(** Jobs for one mutant, {!mutant_variants} in order; judge with
    {!judge_mutant}. *)
let mutant_jobs (m : Gen.mutant) : (Harness.setup * Bench.t) list =
  let b = mutant_bench m in
  List.map (fun (_, s) -> (s, b)) mutant_variants

(* ------------------------------------------------------------------ *)
(* Judging                                                             *)
(* ------------------------------------------------------------------ *)

let outcome_finding ~seed ~tag (r : Harness.run) =
  match r.Harness.outcome with
  | Mi_vm.Interp.Exited 0 -> None
  | Mi_vm.Interp.Exited n ->
      Some { f_seed = seed; f_setup = tag; f_kind = "exit-code";
             f_detail = Printf.sprintf "exited with %d" n }
  | Mi_vm.Interp.Safety_violation { checker; reason } ->
      Some { f_seed = seed; f_setup = tag; f_kind = "spurious-report";
             f_detail = Printf.sprintf "%s: %s" checker reason }
  | Mi_vm.Interp.Trapped msg ->
      Some { f_seed = seed; f_setup = tag; f_kind = "trap"; f_detail = msg }
  | Mi_vm.Interp.Exhausted budget ->
      Some { f_seed = seed; f_setup = tag; f_kind = "fuel";
             f_detail = Printf.sprintf "budget %d exhausted" budget }

(** The fairness contract: the shared target discovery places the same
    number of dynamic checks under every registered checker.  [results]
    holds one result per {!checker_variants} entry, in order; when all
    compiled and their [ns.checks] counters differ, the result is the
    detail of a ["check-count-mismatch"] finding. *)
let check_count_mismatch
    (results : (Harness.run, Harness.error) result list) : string option =
  match List.filter_map Result.to_option results with
  | runs when List.compare_lengths runs checkers = 0 ->
      let counts =
        List.map2
          (fun (c : Checker.t) r ->
            (c.counter_ns, Harness.counter r (c.counter_ns ^ ".checks")))
          checkers runs
      in
      let show (ns, n) = Printf.sprintf "%s %d" ns n in
      if List.for_all (fun (_, n) -> n = snd (List.hd counts)) counts then None
      else Some (String.concat " vs " (List.map show counts))
  | _ -> None

(** The fast-path contract: generic dispatch is observationally
    identical to fused dispatch — output, cycles, every runtime counter.
    The detail of a ["dispatch-divergence"] finding when it is not. *)
let dispatch_divergence (fast : Harness.run) (gen : Harness.run) =
  if fast.output <> gen.output then Some "output differs from fused dispatch"
  else if fast.cycles <> gen.cycles then
    Some
      (Printf.sprintf "cycles %d (fused) vs %d (generic)" fast.cycles
         gen.cycles)
  else if Harness.counters_alist fast <> Harness.counters_alist gen then
    Some "runtime counters differ"
  else None

(** Judge one safe candidate's results (aligned with {!safe_jobs_of}).
    Returns all findings, [[]] iff the oracle holds.  [seed] labels the
    findings: the root generator seed of the candidate's lineage. *)
let judge_safe_results ~seed
    (results : (Harness.run, Harness.error) result list) : finding list =
  let tagged = List.combine ("O0" :: List.map fst variants) results in
  let find tag = List.assoc tag tagged in
  let findings = ref [] in
  let note f = findings := f :: !findings in
  (match find "O0" with
  | Error e ->
      note { f_seed = seed; f_setup = "O0"; f_kind = "ref-failed";
             f_detail = e.Harness.reason }
  | Ok ref_run -> (
      match outcome_finding ~seed ~tag:"O0" ref_run with
      | Some f -> note { f with f_kind = "ref-failed" }
      | None ->
          let ref_out = ref_run.Harness.output in
          List.iter
            (fun (tag, res) ->
              if tag <> "O0" then
                match res with
                | Error e ->
                    note { f_seed = seed; f_setup = tag;
                           f_kind = "compile-error";
                           f_detail = e.Harness.reason }
                | Ok r -> (
                    match outcome_finding ~seed ~tag r with
                    | Some f -> note f
                    | None ->
                        if r.Harness.output <> ref_out then
                          note
                            { f_seed = seed; f_setup = tag;
                              f_kind = "output-divergence";
                              f_detail =
                                Printf.sprintf "expected %S got %S" ref_out
                                  r.Harness.output }))
            tagged;
          Option.iter
            (fun detail ->
              note
                { f_seed = seed;
                  f_setup = String.concat "|" (List.map fst checker_variants);
                  f_kind = "check-count-mismatch"; f_detail = detail })
            (check_count_mismatch
               (List.map (fun (t, _) -> find t) checker_variants));
          List.iter
            (fun (tag, _) ->
              match (find tag, find (tag ^ "/generic")) with
              | Ok fast, Ok gen ->
                  Option.iter
                    (fun detail ->
                      note
                        { f_seed = seed; f_setup = tag ^ "/generic";
                          f_kind = "dispatch-divergence"; f_detail = detail })
                    (dispatch_divergence fast gen)
              | _ -> ())
            checker_variants));
  List.rev !findings

(** Judge one safe program's results (aligned with {!safe_jobs}). *)
let judge_safe (p : Gen.prog) results =
  judge_safe_results ~seed:p.Gen.p_seed results

(** How one instrumentation judged one mutant. *)
type detection =
  | Killed  (** aborted with a safety report *)
  | Whitelisted of string  (** excused, with the written justification *)
  | Missed of string  (** ran to completion (or failed off-contract) *)

let detection_to_string = function
  | Killed -> "killed"
  | Whitelisted why -> "whitelisted: " ^ why
  | Missed detail -> "MISSED: " ^ detail

type mutant_result = {
  mr_name : string;
  mr_seed : int;
  mr_detections : (string * detection) list;
      (** per checker variant, in {!mutant_variants} order *)
  mr_findings : finding list;  (** [[]] iff the flipped oracle holds *)
}

let mr_detection mr tag =
  match List.assoc_opt tag mr.mr_detections with
  | Some d -> d
  | None -> invalid_arg ("Oracle.mr_detection: unknown tag " ^ tag)

(* What the flipped oracle demands of one checker on one mutant.  An
   [Excused_wide] checker is excused only from a clean exit (the §4.3
   wide-bounds whitelist: the access itself is still well-defined); an
   [Out_of_scope] checker is excused from a trap too, because the
   uninstrumented failure mode of a hazard outside its class is its
   documented blind spot, not a miss. *)
type expectation =
  | Must_report
  | Excused_wide of string
  | Out_of_scope of string

(* why a checker is excused from a hazard class it does not guarantee *)
let out_of_scope = function
  | Checker.Spatial ->
      "spatial overflow: the lock-and-key checker tracks lifetimes, not \
       bounds"
  | Checker.Uaf ->
      "use after free: the spatial checkers' bounds metadata is unaffected \
       by free"
  | Checker.Double_free ->
      "double free: outside the spatial checkers' scope (the VM allocator's \
       own bookkeeping traps instead)"

(* the checker behind a mutant-matrix tag (not the elimination passes on
   top of it) must report every hazard class it guarantees, except an
   overflow past a size-less extern declaration, where exact bounds are
   wide by design (§4.3) *)
let expectation (m : Gen.mutant) tag =
  let cfg = Option.get (List.assoc tag mutant_variants).Harness.config in
  let c = Checker.find_exn cfg.Config.approach in
  let hazard = m.Gen.m_kind in
  if not (List.mem hazard c.Checker.guarantees) then
    Out_of_scope (out_of_scope hazard)
  else
    match (hazard, c.Checker.precision, m.Gen.m_sb_whitelist) with
    | Checker.Spatial, Checker.Exact, Some why -> Excused_wide why
    | _ -> Must_report

(** Judge one mutant's results (aligned with {!mutant_jobs}): each
    checker variant against its {!expectation} for the mutant's hazard
    class. *)
let judge_mutant (m : Gen.mutant)
    (results : (Harness.run, Harness.error) result list) : mutant_result =
  let seed = m.Gen.m_prog.Gen.p_seed in
  let name = Gen.mutant_name m in
  let judge tag res =
    match res with
    | Error e ->
        Missed (Printf.sprintf "[%s] compile error: %s" tag e.Harness.reason)
    | Ok r -> (
        match (r.Harness.outcome, expectation m tag) with
        | Mi_vm.Interp.Safety_violation _, _ -> Killed
        | Mi_vm.Interp.Exited _, (Excused_wide why | Out_of_scope why) ->
            Whitelisted why
        | Mi_vm.Interp.Exited _, Must_report ->
            Missed (Printf.sprintf "[%s] ran to completion" tag)
        | Mi_vm.Interp.Trapped msg, Out_of_scope why ->
            Whitelisted (Printf.sprintf "%s (trapped: %s)" why msg)
        | Mi_vm.Interp.Trapped msg, _ ->
            (* a VM trap is the uninstrumented failure mode: the check
               did not fire first, so the instrumentation missed *)
            Missed
              (Printf.sprintf "[%s] trapped instead of reporting: %s" tag msg)
        | Mi_vm.Interp.Exhausted b, _ ->
            Missed (Printf.sprintf "[%s] fuel budget %d exhausted" tag b))
  in
  let detections =
    List.map2
      (fun (tag, _) res -> (tag, judge tag res))
      mutant_variants results
  in
  let findings =
    List.filter_map
      (fun (tag, d) ->
        match d with
        | Killed | Whitelisted _ -> None
        | Missed detail ->
            Some
              { f_seed = seed; f_setup = tag; f_kind = "missed-violation";
                f_detail = Printf.sprintf "%s: %s" name detail })
      detections
  in
  { mr_name = name; mr_seed = seed; mr_detections = detections;
    mr_findings = findings }
