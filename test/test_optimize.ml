(* Tests for the check-elimination passes: the dominator-sweep
   dominance elimination (vs a naive all-pairs reference), the static
   in-bounds constraint pass, loop-invariant check hoisting with range
   widening, the per-checker capability veto, and the coupling of
   hoisted checks with the fault/mutation machinery. *)

open Mi_mir
module I = Mi_core.Instrument
module Itarget = Mi_core.Itarget
module Optimize = Mi_core.Optimize
module Config = Mi_core.Config
module Edit = Mi_core.Edit
module Fault = Mi_faultkit.Fault
module Cfg = Mi_analysis.Cfg
module Dom = Mi_analysis.Dom

let parse src =
  let m = Parser.parse_module src in
  Mi_analysis.Domcheck.assert_valid m;
  m

let checks_of m name =
  let f = Irmod.find_func_exn m name in
  (f, (Itarget.discover m f).Itarget.checks)

let anchor (c : Itarget.check) =
  (c.Itarget.c_anchor.Edit.ablock, c.Itarget.c_anchor.Edit.apos)

let sb_all = Config.optimized_full Config.softbound

let static_only =
  { Config.softbound with Config.opt_static = true }

let hoist_only = { Config.softbound with Config.opt_hoist = true }

let count_calls (m : Irmod.t) name =
  List.fold_left
    (fun acc (f : Func.t) ->
      List.fold_left
        (fun acc (b : Block.t) ->
          acc
          + List.length
              (List.filter
                 (fun (i : Instr.t) ->
                   match i.op with
                   | Instr.Call (c, _) -> String.equal c name
                   | _ -> false)
                 b.Block.body))
        acc f.blocks)
    0 m.funcs

(* ------------------------------------------------------------------ *)
(* Dominance sweep vs a naive all-pairs reference                      *)
(* ------------------------------------------------------------------ *)

(* The specification the sweep must match: a check is removed iff some
   other check on the same pointer, with at least its width, strictly
   dominates it.  (A removed dominator still shields its subtree: its
   own dominator does, transitively.) *)
let naive_dominance (f : Func.t) (checks : Itarget.check list) =
  let cfg = Cfg.build f in
  let dom = Dom.build cfg in
  let dominates (d : Itarget.check) (c : Itarget.check) =
    let bd = Cfg.index cfg d.Itarget.c_anchor.Edit.ablock
    and bc = Cfg.index cfg c.Itarget.c_anchor.Edit.ablock in
    if bd = bc then d.Itarget.c_anchor.Edit.apos < c.Itarget.c_anchor.Edit.apos
    else Dom.dominates dom bd bc
  in
  List.filter
    (fun c ->
      not
        (List.exists
           (fun d ->
             anchor d <> anchor c
             && Value.key d.Itarget.c_ptr = Value.key c.Itarget.c_ptr
             && d.Itarget.c_width >= c.Itarget.c_width
             && dominates d c)
           checks))
    checks

let diamond_src =
  {|
module "d"
func @f(%p.0 : ptr, %q.1 : ptr, %c.2 : i1) -> i64 {
entry:
  %a.3 = load i32 %p.0
  cbr %c.2, then, else
then:
  %b.4 = load i64 %p.0
  %b2.5 = load i64 %p.0
  br join
else:
  %e.6 = load i32 %p.0
  %e2.7 = load i64 %q.1
  br join
join:
  %j.8 = load i64 %p.0
  %j2.9 = load i32 %p.0
  %k.10 = load i64 %q.1
  ret %j.8
}
|}

let chain_src =
  {|
module "c"
func @f(%p.0 : ptr) -> i64 {
entry:
  %a.1 = load i32 %p.0
  %b.2 = load i64 %p.0
  %c.3 = load i32 %p.0
  %d.4 = load i64 %p.0
  %e.5 = load i32 %p.0
  ret %d.4
}
|}

let test_sweep_matches_naive () =
  List.iter
    (fun src ->
      let m = parse src in
      let f, checks = checks_of m "f" in
      let fast = List.map anchor (Optimize.dominance_eliminate f checks) in
      let slow = List.map anchor (naive_dominance f checks) in
      Alcotest.(check (list (pair string int))) "sweep = naive" slow fast)
    [ diamond_src; chain_src ]

let test_diamond_dominance () =
  let m = parse diamond_src in
  let f, checks = checks_of m "f" in
  let kept = Optimize.dominance_eliminate f checks in
  (* %a.3 (i32) survives; %b.4 survives (wider than %a.3), shields
     %b2.5; %e.6 removed (entry i32 dominates); %e2.7 survives (first
     %q.1 check on its path); %j.8 survives (neither branch dominates
     join); %j2.9 removed (entry i32); %k.10 survives (%e2.7 does not
     dominate join) *)
  Alcotest.(check int) "diamond kept" 5 (List.length kept)

(* ------------------------------------------------------------------ *)
(* Static in-bounds elimination                                        *)
(* ------------------------------------------------------------------ *)

let static_src =
  {|
module "s"
global @gd : 16 align 8 {
  zero 16
}
func @f(%n.0 : i64) -> i64 {
entry:
  %a.1 = alloca 80 align 8
  br header
header:
  %i.2 = phi i64 [entry 0:i64] [body %n.3]
  %c.4 = icmp slt i64 %i.2, 10:i64
  cbr %c.4, body, exit
body:
  %g.5 = gep %a.1 [8 x %i.2]
  store i64 %i.2, %g.5
  %n.3 = add i64 %i.2, 1:i64
  br header
exit:
  %t.6 = load i64 %a.1
  %gg.7 = gep @gd [8 x 1:i64]
  %u.8 = load i64 %gg.7
  %bad.9 = gep @gd [8 x 2:i64]
  %v.10 = load i64 %bad.9
  %dyn.11 = gep %a.1 [8 x %n.0]
  %w.12 = load i64 %dyn.11
  %r.13 = add i64 %t.6, %u.8
  ret %r.13
}
|}

let test_static_elimination () =
  let m = parse static_src in
  let f, checks = checks_of m "f" in
  Alcotest.(check int) "checks found" 5 (List.length checks);
  let r = Optimize.run static_only m f checks in
  (* provable: the loop store (iv in [0,9], 8*9+8 <= 80), the direct
     load of %a.1, and the global load at offset 8 (8+8 <= 16).
     not provable: @gd offset 16 (16+8 > 16) and the %n.0-indexed gep
     (unknown interval). *)
  Alcotest.(check int) "removed statically" 3 r.Optimize.stats.Optimize.removed_static;
  Alcotest.(check int) "kept" 2 (List.length r.Optimize.kept);
  Alcotest.(check int) "nothing hoisted" 0 (List.length r.Optimize.hoisted)

let test_static_loaded_pointer_kept () =
  (* a pointer loaded from memory has unknown provenance: never chased *)
  let m =
    parse
      {|
module "lp"
func @f() -> i64 {
entry:
  %a.0 = alloca 16 align 8
  %q.1 = load ptr %a.0
  %v.2 = load i64 %q.1
  ret %v.2
}
|}
  in
  let f, checks = checks_of m "f" in
  let r = Optimize.run static_only m f checks in
  (* the load of %a.0 itself is provable; the load through the loaded
     pointer %q.1 must survive *)
  Alcotest.(check int) "one removed" 1 r.Optimize.stats.Optimize.removed_static;
  (match r.Optimize.kept with
  | [ c ] ->
      Alcotest.(check string) "loaded-pointer check kept" "q"
        (match c.Itarget.c_ptr with
        | Value.Var x -> String.sub x.Value.vname 0 1
        | _ -> "?")
  | l -> Alcotest.failf "expected 1 kept check, got %d" (List.length l));
  ignore m

(* ------------------------------------------------------------------ *)
(* Loop-invariant check hoisting                                       *)
(* ------------------------------------------------------------------ *)

let loop_src =
  {|
module "h"
func @f(%p.0 : ptr) -> i64 {
entry:
  br header
header:
  %i.1 = phi i64 [entry 0:i64] [body %n.4]
  %c.2 = icmp slt i64 %i.1, 10:i64
  cbr %c.2, body, exit
body:
  %g.3 = gep %p.0 [8 x %i.1]
  %v.5 = load i64 %g.3
  store i64 %v.5, %g.3
  %n.4 = add i64 %i.1, 1:i64
  br header
exit:
  ret 0:i64
}
|}

let test_hoist_counted_loop () =
  let m = parse loop_src in
  let f, checks = checks_of m "f" in
  Alcotest.(check int) "checks found" 2 (List.length checks);
  let r = Optimize.run hoist_only m f checks in
  Alcotest.(check int) "both replaced" 2
    r.Optimize.stats.Optimize.removed_hoisted;
  Alcotest.(check int) "no in-place checks" 0 (List.length r.Optimize.kept);
  match r.Optimize.hoisted with
  | [ h ] ->
      Alcotest.(check string) "into the preheader" "entry"
        h.Optimize.h_preheader;
      Alcotest.(check int) "min offset" 0 h.Optimize.h_min_off;
      (* iv in [0,9], stride 8, width 8: footprint [0, 80) *)
      Alcotest.(check int) "widened span" 80 h.Optimize.h_span;
      Alcotest.(check bool) "store access wins" true
        (h.Optimize.h_access = Itarget.Astore);
      Alcotest.(check int) "stands for both checks" 2 h.Optimize.h_replaced
  | l -> Alcotest.failf "expected 1 hoisted group, got %d" (List.length l)

let nested_src =
  {|
module "n"
func @f(%p.0 : ptr) -> i64 {
entry:
  br oh
oh:
  %i.1 = phi i64 [entry 0:i64] [olatch %ni.2]
  %ci.3 = icmp slt i64 %i.1, 4:i64
  cbr %ci.3, ipre, oexit
ipre:
  br ih
ih:
  %j.4 = phi i64 [ipre 0:i64] [ibody %nj.5]
  %cj.6 = icmp slt i64 %j.4, 8:i64
  cbr %cj.6, ibody, olatch
ibody:
  %g.7 = gep %p.0 [8 x %j.4]
  %v.8 = load i64 %g.7
  %nj.5 = add i64 %j.4, 1:i64
  br ih
olatch:
  %ni.2 = add i64 %i.1, 1:i64
  br oh
oexit:
  ret 0:i64
}
|}

let test_hoist_nested_loop () =
  let m = parse nested_src in
  let f, checks = checks_of m "f" in
  let r = Optimize.run hoist_only m f checks in
  match r.Optimize.hoisted with
  | [ h ] ->
      (* hoisted to the inner preheader with the inner iv's span:
         j in [0,7], stride 8, width 8 -> 64 bytes *)
      Alcotest.(check string) "inner preheader" "ipre" h.Optimize.h_preheader;
      Alcotest.(check int) "inner span" 64 h.Optimize.h_span
  | l -> Alcotest.failf "expected 1 hoisted group, got %d" (List.length l)

let test_no_hoist_conditional_check () =
  (* a check in a diamond arm of the loop body does not dominate the
     latch: some iterations skip it, so the footprint argument fails *)
  let m =
    parse
      {|
module "nc"
func @f(%p.0 : ptr, %c.9 : i1) -> i64 {
entry:
  br header
header:
  %i.1 = phi i64 [entry 0:i64] [latch %n.4]
  %c.2 = icmp slt i64 %i.1, 10:i64
  cbr %c.2, body, exit
body:
  cbr %c.9, arm, latch
arm:
  %g.3 = gep %p.0 [8 x %i.1]
  %v.5 = load i64 %g.3
  br latch
latch:
  %n.4 = add i64 %i.1, 1:i64
  br header
exit:
  ret 0:i64
}
|}
  in
  let f, checks = checks_of m "f" in
  let r = Optimize.run hoist_only m f checks in
  Alcotest.(check int) "nothing hoisted" 0 (List.length r.Optimize.hoisted);
  Alcotest.(check int) "check kept in place" 1 (List.length r.Optimize.kept)

let test_no_hoist_non_affine () =
  (* index loaded from memory: not affine in the induction variable *)
  let m =
    parse
      {|
module "na"
func @f(%p.0 : ptr, %q.9 : ptr) -> i64 {
entry:
  br header
header:
  %i.1 = phi i64 [entry 0:i64] [body %n.4]
  %c.2 = icmp slt i64 %i.1, 10:i64
  cbr %c.2, body, exit
body:
  %x.6 = load i64 %q.9
  %g.3 = gep %p.0 [8 x %x.6]
  %v.5 = load i64 %g.3
  %n.4 = add i64 %i.1, 1:i64
  br header
exit:
  ret 0:i64
}
|}
  in
  let f, checks = checks_of m "f" in
  let r = Optimize.run hoist_only m f checks in
  (* the check on the loop-invariant %q.9 itself hoists (its footprint
     is one fixed slot), but the %x.6-indexed access must stay *)
  Alcotest.(check int) "only the invariant check hoists" 1
    (List.length r.Optimize.hoisted);
  (match r.Optimize.kept with
  | [ c ] ->
      Alcotest.(check string) "non-affine check kept" "g"
        (match c.Itarget.c_ptr with
        | Value.Var x -> String.sub x.Value.vname 0 1
        | _ -> "?")
  | l -> Alcotest.failf "expected 1 kept check, got %d" (List.length l))

let test_no_hoist_may_exit_body () =
  (* a call to a non-builtin in the body may terminate the program
     before later iterations: hoisting could abort a run that would
     have finished *)
  let m =
    parse
      {|
module "me"
func @g(%x.0 : i64) -> i64 {
entry:
  ret %x.0
}
func @f(%p.0 : ptr) -> i64 {
entry:
  br header
header:
  %i.1 = phi i64 [entry 0:i64] [body %n.4]
  %c.2 = icmp slt i64 %i.1, 10:i64
  cbr %c.2, body, exit
body:
  %g.3 = gep %p.0 [8 x %i.1]
  %v.5 = load i64 %g.3
  call @g(%v.5) : i64
  %n.4 = add i64 %i.1, 1:i64
  br header
exit:
  ret 0:i64
}
|}
  in
  let f, checks = checks_of m "f" in
  let r = Optimize.run hoist_only m f checks in
  Alcotest.(check int) "nothing hoisted" 0 (List.length r.Optimize.hoisted)

(* ------------------------------------------------------------------ *)
(* Instrumenter integration: veto, emission, counters                  *)
(* ------------------------------------------------------------------ *)

let test_temporal_vetoes_all_passes () =
  let m = parse loop_src in
  let stats =
    I.run (Config.optimized_full (Config.of_approach "temporal")) m
  in
  Alcotest.(check int) "nothing removed" 0 stats.I.total_checks_removed;
  Alcotest.(check int) "no hoisted checks" 0 stats.I.total_hoisted_checks_placed;
  Alcotest.(check int) "every check placed in-line" stats.I.total_checks_found
    stats.I.total_checks_placed

let test_hoisted_emission () =
  let m = parse loop_src in
  let stats = I.run sb_all m in
  (* dominance removes the same-pointer store check first; the
     surviving load check becomes one widened preheader check *)
  Alcotest.(check int) "hoisted placed" 1 stats.I.total_hoisted_checks_placed;
  Alcotest.(check int) "removed total" 2 stats.I.total_checks_removed;
  Alcotest.(check int) "removed via dominance" 1
    stats.I.total_checks_removed_dominance;
  Alcotest.(check int) "removed via hoisting" 1
    stats.I.total_checks_removed_hoisted;
  Alcotest.(check int) "one dynamic check call" 1
    (count_calls m Intrinsics.sb_check);
  Mi_analysis.Domcheck.assert_valid m

let test_per_pass_counters_split () =
  let m = parse static_src in
  let stats = I.run sb_all m in
  Alcotest.(check int) "found" 5 stats.I.total_checks_found;
  (* no same-pointer dominance pairs here; 3 static; the %n.0 gep and
     the @gd overflow are loop-free so nothing hoists *)
  Alcotest.(check int) "dominance" 0 stats.I.total_checks_removed_dominance;
  Alcotest.(check int) "static" 3 stats.I.total_checks_removed_static;
  Alcotest.(check int) "hoisted" 0 stats.I.total_checks_removed_hoisted;
  Alcotest.(check int) "total = sum of passes"
    (stats.I.total_checks_removed_dominance
    + stats.I.total_checks_removed_static
    + stats.I.total_checks_removed_hoisted)
    stats.I.total_checks_removed

(* Mutation coupling: hoisted checks occupy ordinals in the same
   per-function sequence the fault plans address, so a check-deletion
   mutant can target them like any in-line check. *)
let test_hoisted_check_mutable () =
  let instrument faults =
    let m = parse loop_src in
    let stats = I.run ~faults sb_all m in
    (count_calls m Intrinsics.sb_check, stats)
  in
  let full, stats_full = instrument Fault.none in
  Alcotest.(check int) "one hoisted check emitted" 1 full;
  Alcotest.(check int) "no mutations" 0 stats_full.I.total_checks_mutated;
  let deleted, stats_del =
    instrument
      {
        Fault.none with
        Fault.checks =
          [ { Fault.cm_action = Fault.Delete; cm_ordinal = 0; cm_func = Some "f" } ];
      }
  in
  Alcotest.(check int) "mutant deletes the hoisted check" 0 deleted;
  Alcotest.(check int) "mutation counted" 1 stats_del.I.total_checks_mutated

(* ------------------------------------------------------------------ *)
(* End-to-end soundness: optimized verdicts match unoptimized          *)
(* ------------------------------------------------------------------ *)

let run_minic cfg src =
  let setup =
    Mi_bench_kit.Harness.with_config cfg Mi_bench_kit.Harness.baseline
  in
  Mi_bench_kit.Harness.run_sources setup [ Mi_bench_kit.Bench.src "t" src ]

let violates (r : Mi_bench_kit.Harness.run) =
  match r.Mi_bench_kit.Harness.outcome with
  | Mi_vm.Interp.Safety_violation _ -> true
  | _ -> false

let oob_loop_src =
  {|
long a[8];
int main(void) {
  long i;
  long s = 0;
  for (i = 0; i < 24; i = i + 1) { s = s + a[i]; }
  print_int((int)s);
  return 0;
}
|}

let clean_loop_src =
  {|
long a[8];
int main(void) {
  long i;
  long s = 0;
  for (i = 0; i < 8; i = i + 1) { a[i] = i; }
  for (i = 0; i < 8; i = i + 1) { s = s + a[i]; }
  print_int((int)s);
  return 0;
}
|}

let test_e2e_verdicts_match () =
  List.iter
    (fun basis ->
      let opt = Config.optimized_full basis in
      Alcotest.(check bool)
        (basis.Config.approach ^ " catches the overflowing loop") true
        (violates (run_minic basis oob_loop_src) = violates (run_minic opt oob_loop_src)
        && violates (run_minic basis oob_loop_src));
      Alcotest.(check bool)
        (basis.Config.approach ^ " keeps the clean loop clean") false
        (violates (run_minic opt clean_loop_src)))
    [ Config.softbound; Config.lowfat ]

let test_e2e_elimination_fires () =
  (* the optimized clean-loop run must eliminate checks AND execute
     fewer dynamic checks than the basis *)
  let basis = run_minic Config.softbound clean_loop_src in
  let opt = run_minic sb_all clean_loop_src in
  let removed =
    List.fold_left
      (fun a (s : I.mod_stats) -> a + s.I.total_checks_removed)
      0 opt.Mi_bench_kit.Harness.static_stats
  in
  Alcotest.(check bool) "some checks eliminated" true (removed > 0);
  let dyn (r : Mi_bench_kit.Harness.run) =
    Mi_bench_kit.Harness.counter r "sb.checks"
  in
  Alcotest.(check bool) "fewer dynamic checks" true (dyn opt < dyn basis)

let () =
  Alcotest.run "optimize"
    [
      ( "dominance",
        [
          Alcotest.test_case "sweep matches naive reference" `Quick
            test_sweep_matches_naive;
          Alcotest.test_case "diamond CFG" `Quick test_diamond_dominance;
        ] );
      ( "static",
        [
          Alcotest.test_case "in-bounds proofs" `Quick test_static_elimination;
          Alcotest.test_case "loaded pointer kept" `Quick
            test_static_loaded_pointer_kept;
        ] );
      ( "hoist",
        [
          Alcotest.test_case "counted loop" `Quick test_hoist_counted_loop;
          Alcotest.test_case "nested loop" `Quick test_hoist_nested_loop;
          Alcotest.test_case "conditional check stays" `Quick
            test_no_hoist_conditional_check;
          Alcotest.test_case "non-affine index stays" `Quick
            test_no_hoist_non_affine;
          Alcotest.test_case "may-exit body stays" `Quick
            test_no_hoist_may_exit_body;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "temporal veto" `Quick
            test_temporal_vetoes_all_passes;
          Alcotest.test_case "hoisted emission" `Quick test_hoisted_emission;
          Alcotest.test_case "per-pass counters" `Quick
            test_per_pass_counters_split;
          Alcotest.test_case "hoisted check mutable" `Quick
            test_hoisted_check_mutable;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "verdicts match" `Quick test_e2e_verdicts_match;
          Alcotest.test_case "elimination fires" `Quick
            test_e2e_elimination_fires;
        ] );
    ]
