(* Recovery and robustness guarantees of the harness session layer:
   failure classification under retries, -j determinism of keep-going
   failure manifests, quarantine-and-recompute-once for corrupted cache
   entries, the deterministic harness.backoff_ms accounting, and the
   monotonic clock the deadlines ride on. *)

module Fault = Mi_faultkit.Fault
module Harness = Mi_bench_kit.Harness
module Icache = Mi_bench_kit.Icache
module Bench = Mi_bench_kit.Bench
module Corpus = Mi_bench_kit.Safety_corpus
module Metrics = Mi_obs.Metrics
module Mclock = Mi_support.Mclock

let tiny_bench name value =
  Bench.mk ~suite:Bench.CPU2000 ~descr:"recovery test program" name
    [
      Bench.src "m"
        (Printf.sprintf
           "int main(void) { long a[4]; a[1] = %d; print_int(a[1]); return \
            0; }"
           value);
    ]

let good = tiny_bench "good" 7
let crashy = tiny_bench "crashy" 8
let hangy = tiny_bench "hangy" 9

(* a translation unit that does not compile: the worker's exception is
   an ordinary crash, not an injected or timed-out one *)
let broken =
  Bench.mk ~suite:Bench.CPU2000 ~descr:"does not compile" "broken"
    [ Bench.src "m" "int main(void) { this is not minic }" ]

let chaos =
  {
    Fault.none with
    Fault.jobs = [ Fault.Crash_job "crashy"; Fault.Hang_job ("hangy", 30.0) ];
  }

(* {1 Classification under retries} *)

let test_classification_under_retries () =
  let h =
    Harness.create ~jobs:2 ~faults:chaos ~job_timeout:0.05 ~retries:2 ()
  in
  let setup = Corpus.setup "softbound" in
  let results =
    Harness.run_jobs h
      [ (setup, good); (setup, crashy); (setup, hangy); (setup, broken) ]
  in
  (match results with
  | [ Ok _; Error _; Error _; Error _ ] -> ()
  | _ -> Alcotest.fail "expected [Ok; Error; Error; Error]");
  let fs = Harness.failures h in
  Alcotest.(check int) "three failures" 3 (List.length fs);
  List.iter
    (fun (f : Harness.job_failure) ->
      Alcotest.(check int)
        ("retries consumed by " ^ f.Harness.jf_bench)
        2 f.Harness.jf_retries;
      match (f.Harness.jf_bench, f.Harness.jf_kind) with
      | "crashy", Harness.Injected -> ()
      | "hangy", Harness.Timeout -> ()
      | "broken", Harness.Crash -> ()
      | b, _ -> Alcotest.failf "unexpected failure kind for %s" b)
    fs

(* {1 keep-going manifests are -j independent} *)

let digest results =
  String.concat "\n"
    (List.map
       (function
         | Ok (r : Harness.run) ->
             Printf.sprintf "ok output=%S cycles=%d" r.Harness.output
               r.Harness.cycles
         | Error (e : Harness.error) ->
             Printf.sprintf "error %s: %s" e.Harness.bench e.Harness.reason)
       results)

let run_matrix jobs =
  let h =
    Harness.create ~jobs ~faults:chaos ~job_timeout:0.05 ~retries:1 ()
  in
  let sb = Corpus.setup "softbound" in
  let lf = Corpus.setup "lowfat" in
  let results =
    Harness.run_jobs h
      [
        (sb, good);
        (sb, crashy);
        (lf, crashy);
        (sb, hangy);
        (lf, hangy);
        (lf, broken);
        (lf, good);
      ]
  in
  (h, results)

let test_manifest_j_determinism () =
  let h1, r1 = run_matrix 1 in
  let h8, r8 = run_matrix 8 in
  Alcotest.(check int) "matrix completed" 7 (List.length r8);
  Alcotest.(check string) "results identical -j1 vs -j8" (digest r1) (digest r8);
  Alcotest.(check string)
    "manifest identical -j1 vs -j8"
    (Harness.failure_manifest h1)
    (Harness.failure_manifest h8);
  Alcotest.(check int)
    "five failures with concurrent chaos" 5
    (List.length (Harness.failures h8))

(* {1 Corrupted cache entries: quarantined, recomputed exactly once} *)

let test_corrupt_entry_recomputed_once () =
  Tmpdir.with_dir "mi-recovery-" @@ fun dir ->
  let setup = Corpus.setup "softbound" in
  (* populate the on-disk cache *)
  let h0 = Harness.create ~jobs:1 ~cache:(Icache.create ~dir ()) () in
  (match Harness.run h0 setup good with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "populate failed: %s" e.Harness.reason);
  Alcotest.(check bool)
    "entry persisted" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".micache")
       (Sys.readdir dir));
  (* corrupt every persisted entry, as the code that opens the disk
     cache does for the plan's cache clause, then run the same job
     twice *)
  let cache = Icache.create ~dir () in
  ignore (Icache.corrupt cache Fault.Bitflip : int);
  let h = Harness.create ~jobs:1 ~cache () in
  let r1 = Harness.run h setup good in
  let r2 = Harness.run h setup good in
  (match (r1, r2) with
  | Ok a, Ok b ->
      Alcotest.(check string)
        "recomputed result matches" a.Harness.output b.Harness.output
  | _ -> Alcotest.fail "runs over a corrupted cache must still succeed");
  let cs = Harness.cache_stats h in
  Alcotest.(check int) "corrupt entry detected once" 1 cs.Harness.corrupt;
  Alcotest.(check int) "recomputed exactly once (one miss)" 1 cs.Harness.misses;
  Alcotest.(check int) "second run hits the recomputed entry" 1 cs.Harness.hits;
  Alcotest.(check bool)
    "quarantine file left for the postmortem" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".corrupt")
       (Sys.readdir dir))

(* {1 Deterministic backoff accounting} *)

let backoff_metric ~retries =
  let h = Harness.create ~jobs:1 ~faults:chaos ~job_timeout:0.05 ~retries () in
  let setup = Corpus.setup "softbound" in
  ignore (Harness.run h setup crashy : (Harness.run, Harness.error) result);
  Metrics.counter (Harness.obs h).Mi_obs.Obs.metrics "harness.backoff_ms"

let test_backoff_capped_and_accounted () =
  (* schedule: 10, 20, 40, ... doubling, each sleep clamped at 250ms;
     the metric reflects the schedule, not a measured duration *)
  Alcotest.(check int) "retries=1" 10 (backoff_metric ~retries:1);
  Alcotest.(check int) "retries=3" 70 (backoff_metric ~retries:3);
  Alcotest.(check int)
    "retries=6 reaches the cap" (10 + 20 + 40 + 80 + 160 + 250)
    (backoff_metric ~retries:6);
  Alcotest.(check int) "retries=0 sleeps nothing" 0
    (backoff_metric ~retries:0)

(* {1 Monotonic clock} *)

let test_mclock_monotonic () =
  let prev = ref (Mclock.now ()) in
  for _ = 1 to 10_000 do
    let t = Mclock.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %f < %f" t !prev;
    prev := t
  done

let test_mclock_deadline () =
  let d = Mclock.deadline 3600. in
  Alcotest.(check bool) "far deadline not expired" false (Mclock.expired d);
  let past = Mclock.deadline 0. in
  Mclock.sleep 0.01;
  Alcotest.(check bool) "past deadline expired" true (Mclock.expired past)

let () =
  Alcotest.run "recovery"
    [
      ( "classification",
        [
          Alcotest.test_case "crash/timeout/injected under retries" `Slow
            test_classification_under_retries;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "keep-going manifest -j1 vs -j8" `Slow
            test_manifest_j_determinism;
        ] );
      ( "cache",
        [
          Alcotest.test_case "corrupt entry recomputed once" `Slow
            test_corrupt_entry_recomputed_once;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "capped, deterministic, accounted" `Slow
            test_backoff_capped_and_accounted;
        ] );
      ( "mclock",
        [
          Alcotest.test_case "monotonic" `Quick test_mclock_monotonic;
          Alcotest.test_case "deadlines" `Quick test_mclock_deadline;
        ] );
    ]
