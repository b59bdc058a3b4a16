(* Fault-injection engine: plan parsing, each injector layer
   (instrumenter check mutation, VM faults, wall-clock budgets), and the
   harness's containment guarantees (typed failures, retries, -j
   determinism of partial results and the failure manifest). *)

module Fault = Mi_faultkit.Fault
module Config = Mi_core.Config
module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Corpus = Mi_bench_kit.Safety_corpus
module Metrics = Mi_obs.Metrics

(* {1 Plan parsing} *)

let parse_exn s =
  match Fault.parse s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_parse_round_trip () =
  List.iter
    (fun s ->
      let p = parse_exn s in
      let p' = parse_exn (Fault.to_string p) in
      Alcotest.(check string)
        ("round trip of " ^ s)
        (Fault.to_string p) (Fault.to_string p'))
    [
      "";
      "del-check=1@main";
      "weaken-check=0";
      "del-check=2@foo,weaken-check=1,fuel=5000";
      "wild-write=100:4096:255,trap-at=9";
      "corrupt-cache=bitflip,crash=softbound,hang=lowfat:2.5";
      " fuel=10 , corrupt-cache=stale";
    ]

let test_parse_fields () =
  let p =
    parse_exn
      "del-check=1@main,wild-write=50:4096:7,fuel=123,trap-at=4,\
       corrupt-cache=truncate,crash=sb,hang=lf:1.5"
  in
  (match p.Fault.checks with
  | [ { Fault.cm_action = Fault.Delete; cm_ordinal = 1; cm_func = Some "main" } ]
    ->
      ()
  | _ -> Alcotest.fail "checks");
  Alcotest.(check int) "vm faults" 3 (List.length p.Fault.vm);
  Alcotest.(check bool) "cache" true (p.Fault.cache = Some Fault.Truncate);
  (match p.Fault.jobs with
  | [ Fault.Crash_job "sb"; Fault.Hang_job ("lf", 1.5) ] -> ()
  | _ -> Alcotest.fail "jobs")

let test_parse_errors () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse of %S to fail" s)
    [
      "del-check=x";
      "wild-write=1:2";
      "hang=noseconds";
      "corrupt-cache=nope";
      "bogus=1";
      "fuel=";
      "seed=7";
    ]

(* mic compiles and runs once, outside any harness session: it refuses
   the clauses it cannot honour with one line naming the clause (exit
   2), and keeps the ones it can *)
let test_mic_refuses_unhonoured () =
  let src = Filename.temp_file "mi-mic" ".c" in
  Out_channel.with_open_bin src (fun oc ->
      output_string oc "int main() { return 0; }\n");
  let err = Filename.temp_file "mi-mic" ".err" in
  let mic spec =
    let code =
      Sys.command
        (Printf.sprintf "../bin/mic.exe --inject %s %s > /dev/null 2> %s"
           (Filename.quote spec) (Filename.quote src) (Filename.quote err))
    in
    (code, In_channel.with_open_bin err In_channel.input_all)
  in
  List.iter
    (fun (spec, clause) ->
      let code, msg = mic spec in
      Alcotest.(check int) (spec ^ ": exit") 2 code;
      Alcotest.(check int) (spec ^ ": one line") 1
        (List.length (String.split_on_char '\n' (String.trim msg)));
      let names =
        let n = String.length clause in
        let rec at i =
          i + n <= String.length msg
          && (String.sub msg i n = clause || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) (spec ^ ": names " ^ clause) true names)
    [
      ("crash=main", "crash=main");
      ("hang=main:5", "hang=main:5");
      ("corrupt-cache=stale", "corrupt-cache=stale");
      ("fuel=100000,crash=x", "crash=x");
    ];
  Alcotest.(check int) "honoured clauses run" 0
    (fst (mic "fuel=100000,del-check=0"));
  Sys.remove src;
  Sys.remove err

let test_compile_sig () =
  Alcotest.(check string) "empty plan" "" (Fault.compile_sig Fault.none);
  Alcotest.(check string)
    "vm-only plan is compile-invisible" ""
    (Fault.compile_sig (parse_exn "fuel=10,crash=x,corrupt-cache=stale"));
  let s1 = Fault.compile_sig (parse_exn "del-check=1@main") in
  let s2 = Fault.compile_sig (parse_exn "weaken-check=1@main") in
  Alcotest.(check bool) "delete keys the cache" true (s1 <> "");
  Alcotest.(check bool) "delete <> weaken" true (s1 <> s2)

(* {1 Check mutation (instrumenter injector)} *)

(* stack/long/write/past_class: ordinal 1 of main is the reporting body
   access under both spatial approaches.  The temporal checker is blind
   to spatial overflows, so it gets a lifetime hazard instead: a
   use-after-free write whose reporting liveness check is ordinal 0 of
   main. *)
let violating_src =
  Corpus.program Corpus.Stack Corpus.Long Corpus.Write Corpus.Past_class

let temporal_violating_src =
  {|
int main(void) {
  long *a = (long *)malloc(8 * sizeof(long));
  free(a);
  a[0] = 7;
  return 0;
}
|}

(* the program a checker reports on, and the [main] check ordinal whose
   mutation silences that report *)
let violating_case approach =
  if approach = "temporal" then (temporal_violating_src, 0)
  else (violating_src, 1)

let run_corpus ?faults approach src =
  let r =
    Harness.run_sources ?faults (Corpus.setup approach) [ Bench.src "t" src ]
  in
  r

let violated (r : Harness.run) =
  match r.Harness.outcome with
  | Mi_vm.Interp.Safety_violation _ -> true
  | _ -> false

let test_del_check_flips () =
  List.iter
    (fun approach ->
      let src, ordinal = violating_case approach in
      let base = run_corpus approach src in
      Alcotest.(check bool) "baseline violates" true (violated base);
      let faults =
        {
          Fault.none with
          Fault.checks =
            [
              {
                Fault.cm_action = Fault.Delete;
                cm_ordinal = ordinal;
                cm_func = Some "main";
              };
            ];
        }
      in
      let mutant = run_corpus ~faults approach src in
      Alcotest.(check bool) "deleted check cannot report" false
        (violated mutant))
    (Config.known_approaches ())

let test_weaken_check_blinds () =
  List.iter
    (fun approach ->
      let src, ordinal = violating_case approach in
      let faults =
        {
          Fault.none with
          Fault.checks =
            [
              {
                Fault.cm_action = Fault.Weaken;
                cm_ordinal = ordinal;
                cm_func = Some "main";
              };
            ];
        }
      in
      let mutant = run_corpus ~faults approach src in
      Alcotest.(check bool) "weakened check cannot report" false
        (violated mutant))
    (Config.known_approaches ())

let test_unrelated_ordinal_untouched () =
  (* deleting a check in a function that does not exist changes nothing *)
  let faults =
    {
      Fault.none with
      Fault.checks =
        [
          { Fault.cm_action = Fault.Delete; cm_ordinal = 0; cm_func = Some "nope" };
        ];
    }
  in
  let r = run_corpus ~faults "softbound" violating_src in
  Alcotest.(check bool) "still violates" true (violated r)

(* {1 VM faults} *)

let benign_src =
  Corpus.program Corpus.Stack Corpus.Long Corpus.Write Corpus.In_bounds

let test_fuel_cap () =
  let faults = { Fault.none with Fault.vm = [ Fault.Fuel_cap 3 ] } in
  let r = run_corpus ~faults "softbound" benign_src in
  match r.Harness.outcome with
  | Mi_vm.Interp.Exhausted 3 -> ()
  | _ -> Alcotest.fail "expected Exhausted 3"

let test_trap_at () =
  let faults = { Fault.none with Fault.vm = [ Fault.Trap_at 2 ] } in
  let r = run_corpus ~faults "softbound" benign_src in
  match r.Harness.outcome with
  | Mi_vm.Interp.Trapped msg ->
      Alcotest.(check bool)
        "trap message names the injection" true
        (String.length msg >= 13 && String.sub msg 0 13 = "injected trap")
  | _ -> Alcotest.fail "expected an injected trap"

let test_wild_write_counted () =
  (* address 0 is unmapped: the wild write itself faults and is
     swallowed, but the injector still fires and counts *)
  let faults =
    {
      Fault.none with
      Fault.vm = [ Fault.Wild_write { at_step = 1; addr = 0; value = 0xFF } ];
    }
  in
  let r = run_corpus ~faults "softbound" benign_src in
  Alcotest.(check bool)
    "fault.injected counted" true
    (Harness.counter r "fault.injected" >= 1)

(* {1 Harness containment: crash, hang, retries, -j determinism} *)

let tiny_bench name value =
  Bench.mk ~suite:Bench.CPU2000 ~descr:"faultkit test program" name
    [
      Bench.src "m"
        (Printf.sprintf
           "int main(void) { long a[4]; a[1] = %d; print_int(a[1]); return 0; \
            }"
           value);
    ]

let good = tiny_bench "good" 11
let crashy = tiny_bench "crashy" 22
let hangy = tiny_bench "hangy" 33

let chaos_plan =
  {
    Fault.none with
    Fault.jobs = [ Fault.Crash_job "crashy"; Fault.Hang_job ("hangy", 30.0) ];
  }

let run_chaos_session jobs =
  let h =
    Harness.create ~jobs ~faults:chaos_plan ~job_timeout:0.05 ~retries:1 ()
  in
  let setup = Corpus.setup "softbound" in
  let results =
    Harness.run_jobs h [ (setup, good); (setup, crashy); (setup, hangy) ]
  in
  (h, results)

let digest_results (results : (Harness.run, Harness.error) result list) =
  String.concat "\n"
    (List.map
       (function
         | Ok (r : Harness.run) ->
             Printf.sprintf "ok output=%S cycles=%d" r.Harness.output
               r.Harness.cycles
         | Error (e : Harness.error) ->
             Printf.sprintf "error %s: %s" e.Harness.bench e.Harness.reason)
       results)

let test_containment_and_determinism () =
  let h1, r1 = run_chaos_session 1 in
  let h4, r4 = run_chaos_session 4 in
  (* the pool completed the whole matrix *)
  Alcotest.(check int) "three results" 3 (List.length r1);
  (match r1 with
  | [ Ok good_run; Error crash_err; Error hang_err ] ->
      Alcotest.(check bool)
        "good job ran" true
        (good_run.Harness.output <> "");
      Alcotest.(check bool)
        "crash reason names the injection" true
        (String.length crash_err.Harness.reason >= 14
        && String.sub crash_err.Harness.reason 0 14 = "injected crash");
      Alcotest.(check bool)
        "hang reason is the budget, not a measured time" true
        (crash_err.Harness.bench = "crashy"
        && hang_err.Harness.reason = "wall-clock budget exceeded (0.05s)")
  | _ -> Alcotest.fail "expected [Ok; Error; Error]");
  (* typed failures with retry accounting *)
  let fs = Harness.failures h1 in
  Alcotest.(check int) "two failures recorded" 2 (List.length fs);
  List.iter
    (fun (f : Harness.job_failure) ->
      Alcotest.(check int) "retries consumed" 1 f.Harness.jf_retries;
      match (f.Harness.jf_bench, f.Harness.jf_kind) with
      | "crashy", Harness.Injected | "hangy", Harness.Timeout -> ()
      | b, _ -> Alcotest.failf "unexpected failure kind for %s" b)
    fs;
  (* graceful degradation is deterministic across -j *)
  Alcotest.(check string)
    "results identical -j1 vs -j4" (digest_results r1) (digest_results r4);
  Alcotest.(check string)
    "manifest identical -j1 vs -j4"
    (Harness.failure_manifest h1)
    (Harness.failure_manifest h4);
  Alcotest.(check bool)
    "manifest nonempty" true
    (Harness.failure_manifest h1 <> "");
  (* counters land in the session context *)
  let m = (Harness.obs h1).Mi_obs.Obs.metrics in
  Alcotest.(check int) "harness.job_failed" 2
    (Metrics.counter m "harness.job_failed");
  Alcotest.(check int) "harness.job_retried" 2
    (Metrics.counter m "harness.job_retried")

let test_no_faults_no_failures () =
  let h = Harness.create ~jobs:2 () in
  let setup = Corpus.setup "lowfat" in
  let results = Harness.run_jobs h [ (setup, good); (setup, hangy) ] in
  Alcotest.(check int) "all ok" 2
    (List.length (List.filter Result.is_ok results));
  Alcotest.(check int) "no failures" 0 (List.length (Harness.failures h));
  Alcotest.(check string) "empty manifest" "" (Harness.failure_manifest h)

let () =
  Alcotest.run "faultkit"
    [
      ( "plan",
        [
          Alcotest.test_case "parse round trip" `Quick test_parse_round_trip;
          Alcotest.test_case "parse fields" `Quick test_parse_fields;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "compile signature" `Quick test_compile_sig;
          Alcotest.test_case "mic refuses clauses it cannot honour" `Quick
            test_mic_refuses_unhonoured;
        ] );
      ( "check-mutation",
        [
          Alcotest.test_case "del-check flips the verdict" `Slow
            test_del_check_flips;
          Alcotest.test_case "weaken-check blinds the check" `Slow
            test_weaken_check_blinds;
          Alcotest.test_case "unmatched mutation is inert" `Slow
            test_unrelated_ordinal_untouched;
        ] );
      ( "vm-faults",
        [
          Alcotest.test_case "fuel cap exhausts" `Slow test_fuel_cap;
          Alcotest.test_case "trap-at traps" `Slow test_trap_at;
          Alcotest.test_case "wild write is counted" `Slow
            test_wild_write_counted;
        ] );
      ( "containment",
        [
          Alcotest.test_case "crash+hang contained, -j deterministic" `Slow
            test_containment_and_determinism;
          Alcotest.test_case "clean session has no failures" `Slow
            test_no_faults_no_failures;
        ] );
    ]
