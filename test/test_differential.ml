(* Differential testing on Mi_fuzz-generated programs: every seed's
   safe program must run identically across the whole oracle matrix
   (optimization levels x SoftBound/Low-Fat/Temporal x extension points
   x VM dispatch modes) with zero safety reports, and every derived
   unsafe mutant must be reported by the checkers whose hazard class it
   belongs to (wide-bounds and out-of-scope whitelists aside).  The
   heavy lifting — matrix construction, output comparison, check-count
   fairness, dispatch twinning — lives in {!Mi_fuzz.Oracle}; this suite
   drives it over fixed seed blocks and additionally pins each oracle
   property with a direct witness. *)

module Harness = Mi_bench_kit.Harness
module Gen = Mi_fuzz.Gen
module Oracle = Mi_fuzz.Oracle
module Fuzz = Mi_fuzz.Fuzz

let outcome_str = function
  | Mi_vm.Interp.Exited n -> Printf.sprintf "exited %d" n
  | Mi_vm.Interp.Safety_violation { checker; reason } ->
      Printf.sprintf "%s violation: %s" checker reason
  | Mi_vm.Interp.Trapped msg -> "trap: " ^ msg
  | Mi_vm.Interp.Exhausted budget -> Printf.sprintf "fuel %d exhausted" budget

(* {1 Safe seeds: the full oracle matrix holds} *)

let test_safe_block () =
  let r = Fuzz.run (Fuzz.campaign ~jobs:2 ~seeds:(201, 220) ()) in
  Alcotest.(check int) "programs" 20 r.Fuzz.r_safe_total;
  (match r.Fuzz.r_findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "oracle violation: %s (of %d)"
        (Oracle.finding_to_string f)
        (List.length r.Fuzz.r_findings));
  Alcotest.(check bool) "campaign ok" true (Fuzz.ok r)

(* {1 Coverage feedback: the scheduler's boost decision is pinned}

   The second half of every campaign is generated with the top-scoring
   features (by fresh VM blocks/edges) forced on.  The decision is a
   pure function of the seed block, so two runs — and runs at different
   [-j] — must agree, and the corpus coverage totals must be
   non-trivial. *)

let test_coverage_boost_deterministic () =
  let r1 = Fuzz.run (Fuzz.campaign ~jobs:2 ~seeds:(201, 210) ()) in
  let r2 = Fuzz.run (Fuzz.campaign ~jobs:1 ~seeds:(201, 210) ()) in
  Alcotest.(check (list int)) "boost agrees across runs and -j" r1.Fuzz.r_boost
    r2.Fuzz.r_boost;
  Alcotest.(check bool) "a boost decision was made" true
    (r1.Fuzz.r_boost <> []);
  let bh, bt = r1.Fuzz.r_vm_blocks and eh, et = r1.Fuzz.r_vm_edges in
  Alcotest.(check bool) "blocks executed" true (bh > 0 && bh <= bt);
  Alcotest.(check bool) "edges executed" true (eh > 0 && eh <= et);
  Alcotest.(check (pair int int))
    "block coverage agrees" r1.Fuzz.r_vm_blocks r2.Fuzz.r_vm_blocks;
  Alcotest.(check (pair int int))
    "edge coverage agrees" r1.Fuzz.r_vm_edges r2.Fuzz.r_vm_edges

(* {1 Unsafe mutants: the flipped oracle holds} *)

let test_mutant_block () =
  let r =
    Fuzz.run (Fuzz.campaign ~jobs:2 ~seeds:(201, 220) ~mutants:(201, 212) ())
  in
  let killed, _whitelisted, missed = Fuzz.count_mutants r.Fuzz.r_mutants in
  Alcotest.(check int) "mutants" 12 (List.length r.Fuzz.r_mutants);
  Alcotest.(check int) "missed detections" 0 missed;
  Alcotest.(check bool) "some detections killed" true (killed > 0);
  List.iter
    (fun (mr : Oracle.mutant_result) ->
      match mr.Oracle.mr_findings with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "mutant %s: %s" mr.Oracle.mr_name
            (Oracle.finding_to_string f))
    r.Fuzz.r_mutants

(* a precise-bounds spatial mutant is reported by BOTH spatial
   instrumentations, and the safe original places the same dynamic
   check count under every checker (the framework-fairness guarantee
   behind the flipped oracle) *)
let test_mutant_both_checkers_report () =
  let seed = 203 in
  let prog = Gen.generate ~seed () in
  let sb = Oracle.variant_setup "O3+sb" in
  let lf = Oracle.variant_setup "O3+lf" in
  let tp = Oracle.variant_setup "O3+tp" in
  let rsb = Harness.run_sources sb prog.Gen.p_sources in
  let rlf = Harness.run_sources lf prog.Gen.p_sources in
  let rtp = Harness.run_sources tp prog.Gen.p_sources in
  (match (rsb.Harness.outcome, rlf.Harness.outcome, rtp.Harness.outcome) with
  | Mi_vm.Interp.Exited 0, Mi_vm.Interp.Exited 0, Mi_vm.Interp.Exited 0 -> ()
  | _ -> Alcotest.fail "safe program did not exit 0 under every checker");
  let csb = Harness.counter rsb "sb.checks"
  and clf = Harness.counter rlf "lf.checks"
  and ctp = Harness.counter rtp "tp.checks" in
  Alcotest.(check bool) "checks placed" true (csb > 0);
  Alcotest.(check int) "same dynamic check count (lf)" csb clf;
  Alcotest.(check int) "same dynamic check count (tp)" csb ctp;
  (* now one injected out-of-bounds access: both spatial checkers must
     report; the temporal checker is excused (out of scope) *)
  let m = Gen.mutate prog ~mseed:seed in
  if m.Gen.m_sb_whitelist <> None then
    Alcotest.failf "seed %d unexpectedly drew a whitelisted extern site" seed;
  let check tag setup =
    match (Harness.run_sources setup m.Gen.m_sources).Harness.outcome with
    | Mi_vm.Interp.Safety_violation _ -> ()
    | o ->
        Alcotest.failf "%s did not report %s: %s" tag (Gen.mutant_name m)
          (outcome_str o)
  in
  check "softbound" sb;
  check "lowfat" lf;
  let rsb' = Harness.run_sources sb m.Gen.m_sources in
  let rlf' = Harness.run_sources lf m.Gen.m_sources in
  let rtp' = Harness.run_sources tp m.Gen.m_sources in
  let run_variant tag =
    Ok (Harness.run_sources (Oracle.variant_setup tag) m.Gen.m_sources)
  in
  let mr =
    Oracle.judge_mutant m
      [
        Ok rsb';
        Ok rlf';
        Ok rtp';
        run_variant "O3+sb+checkopt";
        run_variant "O3+lf+checkopt";
      ]
  in
  Alcotest.(check bool) "flipped oracle holds" true (mr.Oracle.mr_findings = []);
  (* the check-eliminated builds must keep the residual check that guards
     the injected access — precise elimination may not erase detections *)
  List.iter
    (fun tag ->
      match Oracle.mr_detection mr tag with
      | Oracle.Killed -> ()
      | d ->
          Alcotest.failf "%s must still report after check elimination: %s" tag
            (Oracle.detection_to_string d))
    [ "O3+sb+checkopt"; "O3+lf+checkopt" ];
  match Oracle.mr_detection mr "O3+tp" with
  | Oracle.Killed | Oracle.Whitelisted _ -> ()
  | d ->
      Alcotest.failf "temporal checker off-contract on spatial mutant: %s"
        (Oracle.detection_to_string d)

(* temporal mutants — use-after-free and double free — are reported by
   the lock-and-key checker and excused (not missed) under the spatial
   checkers, whose bounds metadata free does not touch *)
let test_temporal_mutants () =
  let sb = Oracle.variant_setup "O3+sb" in
  let lf = Oracle.variant_setup "O3+lf" in
  let tp = Oracle.variant_setup "O3+tp" in
  let sbc = Oracle.variant_setup "O3+sb+checkopt" in
  let lfc = Oracle.variant_setup "O3+lf+checkopt" in
  let seen_uaf = ref false and seen_dfree = ref false in
  for seed = 201 to 240 do
    if not (!seen_uaf && !seen_dfree) then
      let p = Gen.generate ~seed () in
      match Gen.mutate_temporal p ~mseed:seed with
      | None ->
          Alcotest.(check bool)
            "mutate_temporal is None iff nothing was freed" true
            (p.Gen.p_frees = [])
      | Some m ->
          let fresh =
            match m.Gen.m_kind with
            | Gen.Uaf when not !seen_uaf ->
                seen_uaf := true;
                true
            | Gen.Double_free when not !seen_dfree ->
                seen_dfree := true;
                true
            | _ -> false
          in
          if fresh then begin
            let r s = Ok (Harness.run_sources s m.Gen.m_sources) in
            let mr =
              Oracle.judge_mutant m [ r sb; r lf; r tp; r sbc; r lfc ]
            in
            (match Oracle.mr_detection mr "O3+tp" with
            | Oracle.Killed -> ()
            | d ->
                Alcotest.failf "temporal checker should kill %s, got %s"
                  mr.Oracle.mr_name
                  (Oracle.detection_to_string d));
            List.iter
              (fun tag ->
                match Oracle.mr_detection mr tag with
                | Oracle.Whitelisted _ -> ()
                | d ->
                    Alcotest.failf "%s should be excused on %s, got %s" tag
                      mr.Oracle.mr_name
                      (Oracle.detection_to_string d))
              [ "O3+sb"; "O3+lf"; "O3+sb+checkopt"; "O3+lf+checkopt" ];
            Alcotest.(check bool)
              "flipped oracle holds" true
              (mr.Oracle.mr_findings = [])
          end
  done;
  Alcotest.(check bool) "drew a use-after-free mutant" true !seen_uaf;
  Alcotest.(check bool) "drew a double-free mutant" true !seen_dfree

(* a size-less extern site overflows past the definition: Low-Fat still
   reports (allocation-size classes), SoftBound is excused by its wide
   upper bound — the documented §4.3 whitelist *)
let test_whitelisted_extern_mutant () =
  (* find a seed drawing a wide-site mutant *)
  let found = ref None in
  for mseed = 301 to 420 do
    if !found = None then begin
      let prog = Gen.generate ~seed:mseed () in
      let m = Gen.mutate prog ~mseed in
      if m.Gen.m_sb_whitelist <> None then found := Some m
    end
  done;
  match !found with
  | None -> Alcotest.fail "no whitelisted mutant drawn in 120 seeds"
  | Some m ->
      let rsb =
        Harness.run_sources (Oracle.variant_setup "O3+sb") m.Gen.m_sources
      in
      let rlf =
        Harness.run_sources (Oracle.variant_setup "O3+lf") m.Gen.m_sources
      in
      let rtp =
        Harness.run_sources (Oracle.variant_setup "O3+tp") m.Gen.m_sources
      in
      let rsbc =
        Harness.run_sources
          (Oracle.variant_setup "O3+sb+checkopt")
          m.Gen.m_sources
      in
      let rlfc =
        Harness.run_sources
          (Oracle.variant_setup "O3+lf+checkopt")
          m.Gen.m_sources
      in
      (match rlf.Harness.outcome with
      | Mi_vm.Interp.Safety_violation _ -> ()
      | o ->
          Alcotest.failf "lowfat must still report %s: %s"
            (Gen.mutant_name m) (outcome_str o));
      let mr =
        Oracle.judge_mutant m [ Ok rsb; Ok rlf; Ok rtp; Ok rsbc; Ok rlfc ]
      in
      (match Oracle.mr_detection mr "O3+sb" with
      | Oracle.Whitelisted why ->
          Alcotest.(check bool)
            "justification is written out" true
            (String.length why > 0)
      | d ->
          Alcotest.failf "softbound detection should be whitelisted, got %s"
            (Oracle.detection_to_string d));
      Alcotest.(check bool)
        "flipped oracle holds" true
        (mr.Oracle.mr_findings = [])

(* {1 VM dispatch: fused fast paths are observationally generic} *)

let test_dispatch_differential () =
  let prog = Gen.generate ~seed:207 () in
  List.iter
    (fun tag ->
      let base = Oracle.variant_setup tag in
      let fast = Harness.run_sources base prog.Gen.p_sources in
      let gen =
        Harness.run_sources
          { base with Harness.dispatch = Harness.Generic }
          prog.Gen.p_sources
      in
      Alcotest.(check string)
        (tag ^ " output") fast.Harness.output gen.Harness.output;
      Alcotest.(check int)
        (tag ^ " cycles") fast.Harness.cycles gen.Harness.cycles;
      Alcotest.(check (list (pair string int)))
        (tag ^ " counters")
        (Harness.counters_alist fast)
        (Harness.counters_alist gen))
    [ "O3+sb"; "O3+lf"; "O3+tp" ]

(* {1 Optimizer regressions flushed out by fuzzing}

   Two CFG-update bugs shared a shape: a transformation that splits or
   merges blocks renamed phi predecessors in the successors of the
   rewritten block, but missed the case where the rewritten block is its
   own successor (a do-while body looping back to itself).  Inline left
   the loop-header phis naming the pre-split backedge (fuzz seed 16,
   caught by the IR verifier); simplifycfg's merge then recreated the
   same stale-label shape and the miscompile surfaced as an infinite
   loop at -O3 (fuzz seed 18).  Pinned here end-to-end via output
   identity of the distilled program across levels; the IR-level twins
   live in test_passes.ml. *)

let test_inlined_call_in_do_while_loop () =
  let src =
    "long helper3(long x) {\n\
    \  long acc = x % 100;\n\
    \  acc += x;\n\
    \  return acc;\n\
     }\n\
     int main(void) {\n\
    \  long acc = 3;\n\
    \  long i15 = 0;\n\
    \  do {\n\
    \    acc += helper3(acc);\n\
    \    i15 = i15 + 1;\n\
    \  } while (i15 < 3);\n\
    \  print_int(acc);\n\
    \  return 0;\n\
     }\n"
  in
  let sources = [ Mi_bench_kit.Bench.src "m" src ] in
  let ref_run = Harness.run_sources Oracle.reference sources in
  Alcotest.(check bool)
    "reference exits 0" true
    (ref_run.Harness.outcome = Mi_vm.Interp.Exited 0);
  List.iter
    (fun tag ->
      let r = Harness.run_sources (Oracle.variant_setup tag) sources in
      (match r.Harness.outcome with
      | Mi_vm.Interp.Exited 0 -> ()
      | o -> Alcotest.failf "%s: %s" tag (outcome_str o));
      Alcotest.(check string)
        (tag ^ " output") ref_run.Harness.output r.Harness.output)
    [ "O1"; "O3"; "O3+sb"; "O3+lf"; "O3+tp" ]

(* Duplicate inliner labels (see test_passes.ml): the second inline run
   of the -O3 fixpoint reused the uids of the first.  Seeds 300065,
   350185 and 750274 crashed every O3 compile with "merge_blocks: phi
   arity mismatch"; seed 600045 compiled, and its O3 output differed
   from O0 under every instrumented variant.  Each program and its
   mutant must clear the whole oracle matrix. *)
let test_duplicate_inline_labels seed () =
  let r =
    Fuzz.run (Fuzz.campaign ~seeds:(seed, seed) ~mutants:(seed, seed) ())
  in
  (match r.Fuzz.r_findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "seed %d: %s" seed (Oracle.finding_to_string f));
  let _killed, _whitelisted, missed = Fuzz.count_mutants r.Fuzz.r_mutants in
  Alcotest.(check int) "missed detections" 0 missed;
  Alcotest.(check bool) "campaign ok" true (Fuzz.ok r)

let () =
  Alcotest.run "differential"
    [
      ( "safe oracle",
        [
          Alcotest.test_case "seed block 201..220, full matrix" `Slow
            test_safe_block;
          Alcotest.test_case "coverage boost deterministic across -j" `Slow
            test_coverage_boost_deterministic;
        ] );
      ( "unsafe mutants",
        [
          Alcotest.test_case "seed block 201..220, mutants 201..212" `Slow
            test_mutant_block;
          Alcotest.test_case "both checkers report, equal check counts"
            `Quick test_mutant_both_checkers_report;
          Alcotest.test_case "temporal mutants: tp kills, sb/lf excused"
            `Slow test_temporal_mutants;
          Alcotest.test_case "size-less extern whitelist" `Slow
            test_whitelisted_extern_mutant;
        ] );
      ( "vm dispatch",
        [
          Alcotest.test_case "fast vs generic twin runs" `Quick
            test_dispatch_differential;
        ] );
      ( "fuzz-found regressions",
        [
          Alcotest.test_case "inline into do-while self-loop" `Quick
            test_inlined_call_in_do_while_loop;
        ]
        @ List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "inline label reuse, seed %d" seed)
                `Slow (test_duplicate_inline_labels seed))
            [ 300065; 350185; 600045; 750274 ] );
    ]
