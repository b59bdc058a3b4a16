(* Timed measurements of the system itself, one "prefix: key=value ..."
   line each, collected by bench/ci.sh and judged by bench/gate.exe:

     --vm-steps       VM engine throughput           ("vm_steps: ...")
     --vm-steps-cov   the same with coverage on      ("vm_steps_cov: ...")
     --fuzz-scaling   fuzz cells at a fixed budget   ("fuzz_scaling: ...")
     --compile-units  frontend + O3 throughput, and
                      the instrumented suffix's      ("compile_units: ...")
     --soak-heap      a soak's top of heap           ("soak_heap: ...")

   The paper's tables and figures come from [experiments --all]. *)

module E = Mi_bench_kit.Experiments
module Harness = Mi_bench_kit.Harness
module Fuzz = Mi_fuzz.Fuzz

let now = Mi_support.Mclock.now

(* words allocated directly in the major heap so far (not promoted) *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* Steps/second of the interpreter on a fixed workload: sb_opt and
   lf_opt over the full suite (the spatial half of the hotchecks
   matrix; the reference commit times the same two).  One warm-up pass
   through a single-worker session populates the instrumentation cache,
   so the timed repetitions measure VM execution, not compilation.  The
   VM is deterministic — total steps per pass are a fixed number — which
   makes steps/sec a pure wall-clock measure of the execution engine.

   [~coverage:true] runs the identical workload with a VM coverage
   registry attached, so the gate can bound the block/edge-recording
   overhead (BENCH_coverage.json).  [major_words_per_job] reports the
   words the timed passes allocate directly in the major heap, per job,
   and [minor_words_per_step] the words they allocate in the minor heap,
   per step; neither is gated.  A timed pass that misses the cache fails the run:
   the session trims its private cache between calls, and a miss would
   make the row time compilation. *)
let run_vm_steps ?(coverage = false) () =
  let h = Harness.create ~jobs:1 ~obs:(Mi_obs.Obs.create ~coverage ()) () in
  let jobs =
    List.concat_map
      (fun b -> [ (E.sb_opt, b); (E.lf_opt, b) ])
      Mi_bench_kit.Suite.all
  in
  let pass () =
    List.fold_left
      (fun acc (setup, b) ->
        match Harness.run h setup b with
        | Ok r -> acc + r.Harness.steps
        | Error e ->
            failwith
              (Printf.sprintf "vm-steps job failed: %s: %s" e.Harness.bench
                 e.Harness.reason))
      0 jobs
  in
  let steps_per_pass = pass () (* warm-up; also fixes the step count *) in
  let misses = (Harness.cache_stats h).Harness.misses in
  let reps = 3 in
  let major0 = direct_major_words () in
  let minor0 = Gc.minor_words () in
  let t0 = now () in
  for _ = 1 to reps do
    let s = pass () in
    if s <> steps_per_pass then failwith "vm-steps: nondeterministic steps";
    if (Harness.cache_stats h).Harness.misses <> misses then
      failwith "vm-steps: a timed pass missed the instrumentation cache"
  done;
  let dt = now () -. t0 in
  let major = direct_major_words () -. major0 in
  let minor = Gc.minor_words () -. minor0 in
  let total = reps * steps_per_pass in
  Printf.printf
    "%s: benches=%d steps_per_pass=%d reps=%d elapsed_s=%.3f \
     steps_per_sec=%.0f major_words_per_job=%.0f minor_words_per_step=%.3f\n\
     %!"
    (if coverage then "vm_steps_cov" else "vm_steps")
    (List.length Mi_bench_kit.Suite.all)
    steps_per_pass reps dt
    (float_of_int total /. dt)
    (major /. float_of_int (reps * List.length jobs))
    (minor /. float_of_int total)

(* Scaling study of the two fuzzing modes at an identical execution
   budget: the coverage-guided evolutionary soak (fresh throwaway
   corpus, exact [--max-execs] budget, no mutants) against blind seed
   enumeration (the same number of programs, also mutant-free), each at
   -j 1/2/4/8.  Both arms are deterministic for a fixed budget and
   independent of the worker count, so the cell counts are exact
   numbers the gate checks against BENCH_fuzz.json — only the elapsed
   seconds vary with the machine.  One line per worker count. *)
let fuzz_budget_execs = 40

let run_fuzz_scaling () =
  List.iter
    (fun j ->
      let dir = Filename.temp_dir "mi-fuzz-scale" "" in
      let t0 = now () in
      let g =
        Fuzz.soak_run
          (Fuzz.soak_config ~jobs:j ~max_execs:fuzz_budget_execs
             ~mutants_per_round:0 ~corpus_dir:dir ())
      in
      let g_dt = now () -. t0 in
      let stats =
        match g.Fuzz.r_corpus with Some c -> c | None -> assert false
      in
      Mi_fuzz.Corpus.reset ~dir;
      (try Sys.rmdir dir with _ -> ());
      let t0 = now () in
      let b =
        Fuzz.run (Fuzz.campaign ~jobs:j ~seeds:(1, fuzz_budget_execs) ())
      in
      let b_dt = now () -. t0 in
      Printf.printf
        "fuzz_scaling: j=%d execs=%d guided_cells=%d blind_cells=%d \
         corpus_entries=%d rounds=%d findings=%d guided_s=%.3f blind_s=%.3f \
         guided_cells_per_s=%.0f\n\
         %!"
        j stats.Fuzz.cs_execs g.Fuzz.r_cells b.Fuzz.r_cells
        stats.Fuzz.cs_entries stats.Fuzz.cs_rounds
        (List.length g.Fuzz.r_findings + List.length b.Fuzz.r_findings)
        g_dt b_dt
        (float_of_int g.Fuzz.r_cells /. g_dt))
    [ 1; 2; 4; 8 ]

(* The top of the major heap after a coverage-guided soak: a fresh
   throwaway corpus, [soak_heap_execs] executions at -j 1 and no
   mutants, as in --fuzz-scaling's guided arm.  The soak is
   deterministic, so the number repeats on one OCaml version; the gate
   bounds it (BENCH_fuzz.json), which catches a session that keeps what
   no one reads. *)
let soak_heap_execs = 200

let run_soak_heap () =
  let dir = Filename.temp_dir "mi-soak-heap" "" in
  let g =
    Fuzz.soak_run
      (Fuzz.soak_config ~jobs:1 ~max_execs:soak_heap_execs
         ~mutants_per_round:0 ~corpus_dir:dir ())
  in
  Mi_fuzz.Corpus.reset ~dir;
  (try Sys.rmdir dir with _ -> ());
  let execs =
    match g.Fuzz.r_corpus with Some c -> c.Fuzz.cs_execs | None -> 0
  in
  Printf.printf "soak_heap: execs=%d top_heap_words=%d\n%!" execs
    (Gc.quick_stat ()).Gc.top_heap_words

(* Units/second of the compile path a cache miss pays: [Lower.compile]
   and an untraced O3 [Pipeline.run] of each unit of
   [Compile_units.units] (the suite and fuzz seeds 1..50), uninstrumented;
   then of the instrumented suffix: [Instrument.run] and
   [Pipeline.resume] for sb, lf and tp, each from a copy of the unit's
   O3 prefix (computed once, untimed), counted per unit and checker.
   The warm-up passes' MIR is digested; the gate requires the digests to
   be test/goldens/compile_mir.json's [o3_digest] and
   [instrumented_digest], so the timed compiler is the pinned one.
   Timing is reported, not gated. *)
let run_compile_units () =
  let module U = Mi_fuzz.Compile_units in
  let units = U.units () in
  let reps = 10 in
  let timed pass =
    let out = pass () in
    let t0 = now () in
    for _ = 1 to reps do
      ignore (pass () : Mi_mir.Irmod.t list)
    done;
    (U.combine (List.map U.unit_digest out), now () -. t0)
  in
  let digest, dt =
    timed (fun () ->
        List.map (fun (_, s) -> U.compile Mi_passes.Pipeline.O3 s) units)
  in
  let prefixes = List.map (fun (_, s) -> (s, U.suffix_prefix s)) units in
  let idigest, idt =
    timed (fun () ->
        List.concat_map
          (fun (s, prefix) ->
            List.map (fun tag -> U.compile_suffix tag s prefix) U.suffix_tags)
          prefixes)
  in
  let per_s n dt = float_of_int (reps * n) /. dt in
  Printf.printf
    "compile_units: units=%d reps=%d elapsed_s=%.3f units_per_s=%.0f \
     digest=%s instrumented_elapsed_s=%.3f instrumented_units_per_s=%.0f \
     instrumented_digest=%s\n\
     %!"
    (List.length units) reps dt
    (per_s (List.length units) dt)
    digest idt
    (per_s (List.length units * List.length U.suffix_tags) idt)
    idigest

let () =
  match Array.to_list Sys.argv with
  | [ _; "--vm-steps" ] -> run_vm_steps ()
  | [ _; "--vm-steps-cov" ] -> run_vm_steps ~coverage:true ()
  | [ _; "--fuzz-scaling" ] -> run_fuzz_scaling ()
  | [ _; "--compile-units" ] -> run_compile_units ()
  | [ _; "--soak-heap" ] -> run_soak_heap ()
  | _ ->
      prerr_endline
        "usage: main.exe --vm-steps | --vm-steps-cov | --fuzz-scaling | \
         --compile-units | --soak-heap";
      exit 2
