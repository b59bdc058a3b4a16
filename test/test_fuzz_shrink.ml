(* Shrinker tests: structural reduction under a failure predicate is
   deterministic, respects the predicate at every step, and — driven by
   the campaign engine with an injected [del-check] plan — turns a
   seeded known failure into a bounded-size repro on disk. *)

module Bench = Mi_bench_kit.Bench
module Gen = Mi_fuzz.Gen
module Shrink = Mi_fuzz.Shrink
module Fuzz = Mi_fuzz.Fuzz
module Fault = Mi_faultkit.Fault
module Harness = Mi_bench_kit.Harness
module Oracle = Mi_fuzz.Oracle

let code sources =
  String.concat "\n" (List.map (fun (s : Bench.source) -> s.Bench.code) sources)

(* {1 Unit: minimize against a syntactic predicate} *)

let big_src =
  "int g[10];\n\
   long helper(long x) {\n\
  \  long acc = x * 3;\n\
  \  acc += 7;\n\
  \  return acc;\n\
   }\n\
   int main(void) {\n\
  \  long acc = 0;\n\
  \  long a5[4];\n\
  \  long i;\n\
  \  for (i = 0; i < 4; i++) a5[i] = i * 2;\n\
  \  acc += helper(a5[1]);\n\
  \  g[3] = 9;\n\
  \  a5[33] = 1;\n\
  \  print_int(acc);\n\
  \  return 0;\n\
   }\n"

let test_minimize_keeps_predicate () =
  let pred srcs =
    (* the defective access must survive every reduction step *)
    let c = code srcs in
    let needle = "a5[33]" in
    let rec find i =
      i + String.length needle <= String.length c
      && (String.sub c i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  let sources = [ Bench.src "main" big_src ] in
  let min1 = Shrink.minimize ~pred sources in
  Alcotest.(check bool) "predicate holds on result" true (pred min1);
  let lines src =
    List.fold_left
      (fun acc (s : Bench.source) -> acc + Shrink.line_count s.Bench.code)
      0 src
  in
  Alcotest.(check bool)
    (Printf.sprintf "shrank (%d -> %d lines)" (lines sources) (lines min1))
    true
    (lines min1 < lines sources);
  Alcotest.(check bool)
    (Printf.sprintf "bounded repro (%d lines)" (lines min1))
    true (lines min1 <= 10);
  (* deterministic: a second run reduces to the same bytes *)
  let min2 = Shrink.minimize ~pred sources in
  Alcotest.(check string) "deterministic" (code min1) (code min2);
  (* every emitted candidate parses: the result must round-trip *)
  List.iter
    (fun (s : Bench.source) ->
      ignore (Mi_minic.Cparse.parse_program s.Bench.code))
    min1

let test_minimize_bails_when_predicate_fails () =
  let sources = [ Bench.src "main" big_src ] in
  let out = Shrink.minimize ~pred:(fun _ -> false) sources in
  Alcotest.(check string) "returns input unchanged" (code sources) (code out)

(* {1 End-to-end: del-check inject -> missed violation -> shrunk repro} *)

let rm_rf = Tmpdir.rm_rf

let read_file path = In_channel.with_open_text path In_channel.input_all

let faults =
  match Fault.parse "del-check" with
  | Ok p -> p
  | Error e -> failwith e

let run_seeded_campaign dir =
  rm_rf dir;
  let r =
    Fuzz.run
      (Fuzz.campaign ~jobs:2 ~faults ~repro_dir:dir ~seeds:(7, 7)
         ~mutants:(7, 7) ())
  in
  (* deleting every check makes every spatial build — plain and
     check-eliminated — miss the mutant; the temporal checker stays
     whitelisted as out of scope *)
  let _, _, missed = Fuzz.count_mutants r.Fuzz.r_mutants in
  Alcotest.(check int) "all spatial detections missed" 4 missed;
  Alcotest.(check bool) "campaign not ok" false (Fuzz.ok r);
  r

let test_injected_failure_shrinks () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "mi-fuzz-shrink1" in
  let r = run_seeded_campaign dir in
  (match r.Fuzz.r_repros with
  | [] -> Alcotest.fail "no repro emitted"
  | repros ->
      List.iter
        (fun (rp : Fuzz.repro) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s shrunk" rp.Fuzz.rp_slug)
            true rp.Fuzz.rp_shrunk;
          Alcotest.(check bool)
            (Printf.sprintf "%s bounded (%d lines)" rp.Fuzz.rp_slug
               rp.Fuzz.rp_lines)
            true
            (rp.Fuzz.rp_lines <= 25);
          let d = Filename.concat dir rp.Fuzz.rp_slug in
          Alcotest.(check bool) "INFO.txt present" true
            (Sys.file_exists (Filename.concat d "INFO.txt"));
          Alcotest.(check bool) "main.c present" true
            (Sys.file_exists (Filename.concat d "main.c")))
        repros);
  rm_rf dir

(* {1 Property: minimize preserves the oracle verdict on evolved
   offspring}

   The soak driver breeds spliced/grown offspring and shrinks whatever
   fails; the shrinker must preserve the oracle's verdict through the
   extra structural noise.  Build the witness the same way the soak
   does: mutate the parent first (while the text anchor is intact),
   then splice a donor in and grow the result — the injected
   out-of-bounds access rides along.  Under [del-check] every spatial
   build misses it; {!Fuzz.mutant_pred} is exactly that verdict, and
   minimization must keep it while landing a bounded repro. *)
let test_offspring_minimize_preserves_verdict () =
  let module Gen = Mi_fuzz.Gen in
  let module Oracle = Mi_fuzz.Oracle in
  let module Harness = Mi_bench_kit.Harness in
  let p = Gen.generate ~seed:7 () in
  let m = Gen.mutate p ~mseed:7 in
  Alcotest.(check bool) "seed 7 draws a precise-bounds mutant" true
    (m.Gen.m_sb_whitelist = None);
  let spliced =
    match
      Gen.splice ~acceptor:m.Gen.m_sources
        ~donor:(Gen.generate ~seed:8 ()).Gen.p_sources ~mseed:707
    with
    | Some s -> s
    | None -> Alcotest.fail "mutant did not accept a donor splice"
  in
  let offspring =
    match Gen.grow ~sources:spliced ~mseed:707 with
    | Some g -> g
    | None -> spliced
  in
  let h = Harness.create ~jobs:1 ~faults () in
  let bench = Oracle.bench_of_sources ~name:"offspring-m" offspring in
  let results =
    Harness.run_jobs h
      (List.map (fun (_, s) -> (s, bench)) Oracle.mutant_variants)
  in
  let mr = Oracle.judge_mutant m results in
  let f =
    match mr.Oracle.mr_findings with
    | f :: _ -> f
    | [] -> Alcotest.fail "del-check did not produce a missed detection"
  in
  let pred = Fuzz.mutant_pred h ~faults mr f in
  Alcotest.(check bool) "verdict holds on the unshrunk offspring" true
    (pred offspring);
  let min1 = Shrink.minimize ~pred offspring in
  Alcotest.(check bool) "verdict preserved by minimization" true (pred min1);
  let main_lines srcs =
    match
      List.find_opt (fun (s : Bench.source) -> s.Bench.src_name = "main") srcs
    with
    | Some s -> Shrink.line_count s.Bench.code
    | None -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "bounded repro (%d lines)" (main_lines min1))
    true
    (main_lines min1 <= 25);
  Alcotest.(check bool)
    (Printf.sprintf "shrank (%d -> %d lines)" (main_lines offspring)
       (main_lines min1))
    true
    (main_lines min1 < main_lines offspring);
  let min2 = Shrink.minimize ~pred offspring in
  Alcotest.(check string) "deterministic" (code min1) (code min2);
  List.iter
    (fun (s : Bench.source) ->
      ignore (Mi_minic.Cparse.parse_program s.Bench.code))
    min1

let test_shrunk_repro_deterministic () =
  let dir1 = Filename.concat (Filename.get_temp_dir_name ()) "mi-fuzz-shrink2" in
  let dir2 = Filename.concat (Filename.get_temp_dir_name ()) "mi-fuzz-shrink3" in
  let r1 = run_seeded_campaign dir1 in
  let r2 = run_seeded_campaign dir2 in
  let slugs r =
    List.map (fun (rp : Fuzz.repro) -> rp.Fuzz.rp_slug) r.Fuzz.r_repros
  in
  Alcotest.(check (list string)) "same repro slugs" (slugs r1) (slugs r2);
  List.iter
    (fun slug ->
      let a = read_file (Filename.concat (Filename.concat dir1 slug) "main.c") in
      let b = read_file (Filename.concat (Filename.concat dir2 slug) "main.c") in
      Alcotest.(check string) (slug ^ " minimized bytes") a b)
    (slugs r1);
  rm_rf dir1;
  rm_rf dir2

(* {1 Soak repro emission}

   A soak queues one repro per failing candidate (and per missed
   mutant) in discovery order and spends its [max_shrinks] budget on
   the head of that queue.  The fuel=3000 plan starves the reference
   run of three candidates within 20 execs (one fresh seed in the first
   round, two offspring in the second): more than a budget of 2
   admits. *)

let soak_with_fuel_plan ~max_shrinks ~corpus_dir ~repro_dir =
  rm_rf corpus_dir;
  rm_rf repro_dir;
  let faults =
    match Fault.parse "fuel=3000" with Ok p -> p | Error e -> failwith e
  in
  Fuzz.soak_run
    (Fuzz.soak_config ~jobs:2 ~faults ~repro_dir ~max_shrinks ~max_execs:20
       ~corpus_dir ())

let is_soak_slug slug =
  (* soak-<12 hex>-ref-failed *)
  let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  String.length slug = String.length "soak-" + 12 + String.length "-ref-failed"
  && String.sub slug 0 5 = "soak-"
  && String.for_all hex (String.sub slug 5 12)
  && String.sub slug 17 (String.length slug - 17) = "-ref-failed"

let test_soak_repro_emission () =
  let tmp = Filename.get_temp_dir_name () in
  let corpus_dir = Filename.concat tmp "mi-fuzz-soak-repro-corpus" in
  let repro_dir = Filename.concat tmp "mi-fuzz-soak-repro" in
  let r = soak_with_fuel_plan ~max_shrinks:2 ~corpus_dir ~repro_dir in
  Alcotest.(check bool) "more failing candidates than the budget" true
    (List.length r.Fuzz.r_findings > 2);
  let repros = r.Fuzz.r_repros in
  Alcotest.(check int) "exactly max_shrinks repros" 2 (List.length repros);
  (* discovery order: every starved candidate yields a single ref-failed
     finding, so the repros reproduce the first two findings *)
  Alcotest.(check (list string)) "repros in discovery order"
    (List.filteri (fun i _ -> i < 2)
       (List.map Mi_fuzz.Oracle.finding_to_string r.Fuzz.r_findings))
    (List.map (fun (rp : Fuzz.repro) -> rp.Fuzz.rp_finding) repros);
  List.iter
    (fun (rp : Fuzz.repro) ->
      let slug = rp.Fuzz.rp_slug in
      Alcotest.(check bool) (slug ^ " is soak-<12 hex>-ref-failed") true
        (is_soak_slug slug);
      let info =
        read_file (Filename.concat (Filename.concat repro_dir slug) "INFO.txt")
      in
      let cmd =
        Printf.sprintf
          "reproduce: feed the .c files to mic (soak candidate %s --inject \
           'fuel=3000')"
          (String.sub slug 5 12)
      in
      Alcotest.(check bool) (slug ^ " INFO.txt names the mic command") true
        (List.mem cmd (String.split_on_char '\n' info)))
    repros;
  rm_rf corpus_dir;
  let r0 = soak_with_fuel_plan ~max_shrinks:0 ~corpus_dir ~repro_dir in
  Alcotest.(check bool) "max_shrinks 0: failures still found" true
    (r0.Fuzz.r_findings <> []);
  Alcotest.(check int) "max_shrinks 0: no repro" 0
    (List.length r0.Fuzz.r_repros);
  Alcotest.(check bool) "max_shrinks 0: no repro directory" false
    (Sys.file_exists repro_dir);
  rm_rf corpus_dir

(* {1 Unit: the check-count contract over every registered checker} *)

(* a clean run whose counters carry [checks] dynamic checks under every
   counter namespace, except [tp_checks] under the temporal one *)
let synthetic_run ~checks ~tp_checks =
  {
    Harness.outcome = Mi_vm.Interp.Exited 0;
    cycles = 100;
    steps = 50;
    output = "7\n";
    counters =
      [| ("lf.checks", checks); ("sb.checks", checks); ("tp.checks", tp_checks) |];
    static_stats = [];
    program_instrs = 0;
    profile = [];
    coverage = [];
  }

(* The judge and the shrink predicate share [Oracle.check_count_mismatch];
   a mismatch on the temporal checker alone must count, or the shrinker
   would drop it and emit the finding unshrunk *)
let test_check_count_temporal_only () =
  let even = synthetic_run ~checks:3 ~tp_checks:3 in
  let odd = synthetic_run ~checks:3 ~tp_checks:4 in
  let o3 run = List.map (fun _ -> Ok run) Oracle.checker_variants in
  Alcotest.(check (option string)) "equal counts agree" None
    (Oracle.check_count_mismatch (o3 even));
  Alcotest.(check (option string)) "temporal alone differs"
    (Some "sb 3 vs lf 3 vs tp 4")
    (Oracle.check_count_mismatch (o3 odd));
  (* the judge reports exactly that finding on a full safe matrix whose
     only difference is the temporal runs' check count *)
  let results =
    List.map
      (fun tag ->
        Ok (if tag = "O3+tp" || tag = "O3+tp/generic" then odd else even))
      ("O0" :: List.map fst Oracle.variants)
  in
  Alcotest.(check (list string)) "one check-count finding"
    [ "seed 9 [O3+sb|O3+lf|O3+tp] check-count-mismatch: sb 3 vs lf 3 vs tp 4" ]
    (List.map Oracle.finding_to_string
       (Oracle.judge_safe_results ~seed:9 results))

let () =
  Alcotest.run "fuzz-shrink"
    [
      ( "counts",
        [
          Alcotest.test_case "temporal-only mismatch" `Quick
            test_check_count_temporal_only;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "reduces while predicate holds" `Quick
            test_minimize_keeps_predicate;
          Alcotest.test_case "bails when predicate never holds" `Quick
            test_minimize_bails_when_predicate_fails;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "del-check inject shrinks to bounded repro"
            `Slow test_injected_failure_shrinks;
          Alcotest.test_case "minimize preserves verdict on evolved offspring"
            `Slow test_offspring_minimize_preserves_verdict;
          Alcotest.test_case "minimized repro deterministic" `Slow
            test_shrunk_repro_deterministic;
          Alcotest.test_case "soak emits budgeted repros in discovery order"
            `Slow test_soak_repro_emission;
        ] );
    ]
