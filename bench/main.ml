(* Timed measurements of the system itself, one "prefix: key=value ..."
   line each, collected by bench/ci.sh and judged by bench/gate.exe:

     --vm-steps       VM engine throughput           ("vm_steps: ...")
     --vm-steps-cov   the same with coverage on      ("vm_steps_cov: ...")
     --fuzz-scaling   fuzz cells at a fixed budget   ("fuzz_scaling: ...")

   The paper's tables and figures come from [experiments --all]. *)

module E = Mi_bench_kit.Experiments
module Harness = Mi_bench_kit.Harness
module Fuzz = Mi_fuzz.Fuzz

let now = Mi_support.Mclock.now

(* Steps/second of the interpreter on the fixed `hotchecks` workload:
   sb_opt and lf_opt over the full suite.  One warm-up pass through a
   single-worker session populates the instrumentation cache, so the
   timed repetitions measure VM execution, not compilation.  The VM is
   deterministic — total steps per pass are a fixed number — which makes
   steps/sec a pure wall-clock measure of the execution engine.

   [~coverage:true] runs the identical workload with a VM coverage
   registry attached, so the gate can bound the block/edge-recording
   overhead (BENCH_coverage.json). *)
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
  let reps = 3 in
  let t0 = now () in
  for _ = 1 to reps do
    let s = pass () in
    if s <> steps_per_pass then failwith "vm-steps: nondeterministic steps"
  done;
  let dt = now () -. t0 in
  let total = reps * steps_per_pass in
  Printf.printf
    "%s: benches=%d steps_per_pass=%d reps=%d elapsed_s=%.3f \
     steps_per_sec=%.0f\n\
     %!"
    (if coverage then "vm_steps_cov" else "vm_steps")
    (List.length Mi_bench_kit.Suite.all)
    steps_per_pass reps dt
    (float_of_int total /. dt)

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

let () =
  match Array.to_list Sys.argv with
  | [ _; "--vm-steps" ] -> run_vm_steps ()
  | [ _; "--vm-steps-cov" ] -> run_vm_steps ~coverage:true ()
  | [ _; "--fuzz-scaling" ] -> run_fuzz_scaling ()
  | _ ->
      prerr_endline "usage: main.exe --vm-steps | --vm-steps-cov | --fuzz-scaling";
      exit 2
