(* Staged compilation: every variant of a program forks from the
   lowering and pipeline-prefix stages it shares with the others.  Its
   contracts:

   1. staged == unshared — a job compiled in a matrix prints the same
      MIR as the job compiled alone, over the suite under every setup
      the experiments use and over fuzz programs and their mutants (no
      pass or lowering state survives between runs);
   2. -j determinism — a fuzz batch gives byte-identical results,
      failure manifest and profile (span counts included) at -j 1 and
      -j 4, and computes each shared stage once;
   3. a stage that fails, fails every job that shares it the same
      typed way, without hanging, and leaves the memo empty. *)

open Mi_bench_kit
module Fuzz = Mi_fuzz.Fuzz
module Gen = Mi_fuzz.Gen
module Oracle = Mi_fuzz.Oracle
module Profile = Mi_obs.Profile

let printed = function
  | Ok ms -> String.concat "\n" (List.map Mi_mir.Printer.module_to_string ms)
  | Error (e : Harness.error) -> "error: " ^ e.reason

(* the distinct jobs, as [Harness.run_jobs] deduplicates them *)
let distinct jobs =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun ((s : Harness.setup), (b : Bench.t)) ->
      let k = (Harness.setup_key s, b.name) in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    jobs

(* compile [jobs] as one matrix and each job alone; the printed modules
   must agree job for job.  Returns the number of jobs compared. *)
let check_staged what jobs =
  let jobs = distinct jobs in
  let matrix = Harness.create ~jobs:1 () in
  let alone = Harness.create ~jobs:1 () in
  List.iter2
    (fun ((s : Harness.setup), (b : Bench.t)) staged ->
      let unshared = List.hd (Harness.compile_jobs alone [ (s, b) ]) in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s %s" what (Harness.setup_key s) b.name)
        (printed unshared) (printed staged))
    jobs
    (Harness.compile_jobs matrix jobs);
  Alcotest.(check int) (what ^ ": memo empty") 0 (Harness.memo_size matrix);
  List.length jobs

(* ------------------------------------------------------------------ *)
(* 1. staged == unshared                                               *)
(* ------------------------------------------------------------------ *)

(* every job the registered experiments declare over the suite, plus the
   suite and the usability cases (multi-unit, partly uninstrumented,
   per-unit lowering overrides) under the fuzz oracle's matrix — its O0
   reference among them — in both lowering modes *)
let test_suite_setups () =
  let cases =
    List.map
      (fun (c : Usability.case) ->
        Oracle.bench_of_sources ~name:c.case_name c.sources)
      Usability.all
  in
  let oracle = List.concat_map Oracle.safe_jobs_of (Suite.all @ cases) in
  let jobs =
    List.concat_map
      (fun e -> Experiments.jobs e Suite.all)
      (Experiments.all ())
    @ oracle
    @ List.map
        (fun ((s : Harness.setup), b) ->
          ({ s with lowering = Usability.i64_mode }, b))
        oracle
  in
  let setups = List.map fst jobs in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) ("matrix has " ^ what) true (List.exists p setups))
    [
      ("O0", fun (s : Harness.setup) -> s.level = Mi_passes.Pipeline.O0);
      ("O1", fun s -> s.level = Mi_passes.Pipeline.O1);
      ("early EP", fun s -> s.ep = Mi_passes.Pipeline.ModuleOptimizerEarly);
      ("scalar-late EP",
        fun s -> s.ep = Mi_passes.Pipeline.ScalarOptimizerLate);
      ("i64 lowering", fun s -> s.lowering.Mi_minic.Lower.ptr_mem_as_i64);
    ];
  ignore (check_staged "suite" jobs : int)

let fuzz_jobs s =
  Oracle.safe_jobs (Gen.generate ~seed:s ())
  @ Oracle.mutant_jobs (Fuzz.mutant_of_seed s)

let n_fuzz_seeds = 100

let test_fuzz_seeds () =
  for s = 1 to n_fuzz_seeds do
    let n = check_staged (Printf.sprintf "seed %d" s) (fuzz_jobs s) in
    Alcotest.(check int) "17 safe + 5 mutant jobs" 22 n
  done

(* ------------------------------------------------------------------ *)
(* 2. -j determinism with sharing                                      *)
(* ------------------------------------------------------------------ *)

let batch_seeds = List.init 6 (fun i -> i + 1)

let batch_at jobs =
  let h =
    Harness.create ~jobs ~obs:(Mi_obs.Obs.create ~coverage:true ~trace:true ()) ()
  in
  let results = Fuzz.run_matrix h fuzz_jobs batch_seeds in
  ( results,
    Harness.failure_manifest h,
    Profile.of_obs (Harness.obs h),
    Harness.memo_size h )

let span_count (p : Profile.t) pred =
  List.fold_left
    (fun n (path, c) -> if pred path then n + c else n)
    0 p.pr_spans

let test_batch_determinism () =
  let r1, m1, p1, _ = batch_at 1 in
  let r4, m4, p4, memo = batch_at 4 in
  Alcotest.(check bool) "results identical" true (r1 = r4);
  Alcotest.(check string) "failure manifest" m1 m4;
  Alcotest.(check string) "profile bytes (spans included)"
    (Mi_obs.Json.to_string (Profile.to_json p1))
    (Mi_obs.Json.to_string (Profile.to_json p4));
  Alcotest.(check int) "memo empty" 0 memo;
  (* every distinct unit of the batch is lowered and canonicalized once *)
  let units = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun (_, (b : Bench.t)) ->
          List.iter
            (fun (src : Bench.source) ->
              Hashtbl.replace units (src.src_name, src.code) ())
            b.sources)
        (fuzz_jobs s))
    batch_seeds;
  let n = Hashtbl.length units in
  Alcotest.(check int) "one lowering per unit" n
    (span_count p1 (String.starts_with ~prefix:"compile;lower:"));
  Alcotest.(check int) "one canonicalize per unit" n
    (span_count p1 (String.equal "compile;canonicalize"))

(* ------------------------------------------------------------------ *)
(* 3. a failing shared stage                                           *)
(* ------------------------------------------------------------------ *)

let test_shared_failure () =
  let bad =
    Oracle.bench_of_sources ~name:"unparsable"
      [ Bench.src "main" "int main() { return 0 }" ]
  in
  let jobs = Oracle.safe_jobs_of bad in
  Alcotest.(check int) "17 jobs" 17 (List.length jobs);
  let at j =
    let h = Harness.create ~jobs:j ~retries:1 () in
    let rs = Harness.run_jobs h jobs in
    let reasons =
      List.map
        (function
          | Ok _ -> Alcotest.fail "an unparsable program ran"
          | Error (e : Harness.error) -> e.reason)
        rs
    in
    (reasons, Harness.failure_manifest h, Harness.memo_size h)
  in
  let reasons1, manifest1, memo1 = at 1 in
  let reasons4, manifest4, memo4 = at 4 in
  Alcotest.(check int) "17 typed errors" 17 (List.length reasons4);
  Alcotest.(check (list string)) "one reason for all"
    (List.map (fun _ -> List.hd reasons4) reasons4)
    reasons4;
  Alcotest.(check (list string)) "reasons as at -j 1" reasons1 reasons4;
  Alcotest.(check string) "manifest as at -j 1" manifest1 manifest4;
  Alcotest.(check int) "memo empty (-j 1)" 0 memo1;
  Alcotest.(check int) "memo empty (-j 4)" 0 memo4

let () =
  Alcotest.run "staged"
    [
      ( "staged == unshared",
        [
          Alcotest.test_case "suite under every experiment setup" `Slow
            test_suite_setups;
          Alcotest.test_case "fuzz seeds and mutants" `Slow test_fuzz_seeds;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "fuzz batch identical at -j 1/4" `Slow
            test_batch_determinism;
          Alcotest.test_case "failing stage fails every consumer" `Quick
            test_shared_failure;
        ] );
    ]
