(* Tests for the temporal lock-and-key checker: runtime semantics
   (keys, trie, shadow stack, double-free detection) and end-to-end
   detection on MiniC programs — use-after-free, double free, dangling
   stack references — plus the fast/generic builtin twin identity. *)

open Mi_vm
module TP = Mi_temporal.Temporal_rt
module Config = Mi_core.Config
module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Pipeline = Mi_passes.Pipeline

(* --- runtime-level ----------------------------------------------------- *)

let setup () =
  let st = State.create () in
  Builtins.install st;
  let tp = TP.install st in
  (st, tp)

let violation f =
  match f () with
  | exception State.Safety_abort { checker = "temporal"; _ } -> true
  | _ -> false

let test_key_lifecycle () =
  let st, tp = setup () in
  let a = st.State.malloc_hook st 32 in
  let k = TP.key_of_alloc tp a in
  Alcotest.(check bool) "fresh allocation is keyed" true (k <> 0);
  Alcotest.(check bool) "live key passes" false
    (violation (fun () -> TP.check tp ~site:(-1) a k));
  st.State.free_hook st a;
  Alcotest.(check int) "freed allocation owns no key" 0 (TP.key_of_alloc tp a);
  Alcotest.(check bool) "dead key reports" true
    (violation (fun () -> TP.check tp ~site:(-1) a k))

let test_key_freshness () =
  let st, tp = setup () in
  let a = st.State.malloc_hook st 16 in
  let k1 = TP.key_of_alloc tp a in
  st.State.free_hook st a;
  let b = st.State.malloc_hook st 16 in
  let k2 = TP.key_of_alloc tp b in
  (* keys are never reused, even when the allocator recycles the address *)
  Alcotest.(check bool) "fresh key for fresh allocation" true (k1 <> k2);
  Alcotest.(check bool) "old key stays dead" true
    (violation (fun () -> TP.check tp ~site:(-1) b k1));
  Alcotest.(check bool) "new key is live" false
    (violation (fun () -> TP.check tp ~site:(-1) b k2))

let test_key_zero_wide () =
  let st, tp = setup () in
  Alcotest.(check bool) "key 0 never reports" false
    (violation (fun () -> TP.check tp ~site:(-1) (Layout.heap_base + 123) 0));
  Alcotest.(check int) "one check" 1 (State.counter st "tp.checks");
  Alcotest.(check int) "counted wide" 1 (State.counter st "tp.checks_wide")

let test_double_free_detected () =
  let st, _ = setup () in
  let a = st.State.malloc_hook st 24 in
  st.State.free_hook st a;
  Alcotest.(check bool) "second free reports" true
    (violation (fun () -> st.State.free_hook st a));
  Alcotest.(check bool) "free of never-allocated reports" true
    (violation (fun () -> st.State.free_hook st (Layout.heap_base + 40000)))

let test_trie_roundtrip () =
  let _, tp = setup () in
  let addr = Layout.heap_base + 512 in
  TP.trie_store tp addr 7;
  Alcotest.(check int) "roundtrip" 7 (TP.trie_load tp addr);
  TP.trie_store tp addr 0;
  Alcotest.(check int) "key 0 clears the slot" 0 (TP.trie_load tp addr);
  Alcotest.(check int) "unset slot reads 0" 0
    (TP.trie_load tp (Layout.heap_base + 99992))

let test_meta_copy () =
  let _, tp = setup () in
  let src = Layout.heap_base and dst = Layout.heap_base + 4096 in
  TP.trie_store tp src 11;
  TP.trie_store tp (src + 8) 12;
  TP.trie_store tp (dst + 8) 99;
  TP.meta_copy tp ~dst ~src 16;
  Alcotest.(check int) "first slot" 11 (TP.trie_load tp dst);
  Alcotest.(check int) "second slot overwritten" 12 (TP.trie_load tp (dst + 8))

let test_shadow_stack_zeroed () =
  let _, tp = setup () in
  TP.ss_enter tp 2;
  TP.ss_set tp 1 42;
  TP.ss_enter tp 2;
  (* the inner frame never wrote slot 1: it must read the untracked
     key, not the caller's stale 42 (the §4.3 hazard by construction) *)
  Alcotest.(check int) "fresh frame reads key 0" 0 (TP.ss_get tp 1);
  TP.ss_set tp 1 7;
  TP.ss_leave tp;
  Alcotest.(check int) "outer frame intact" 42 (TP.ss_get tp 1);
  TP.ss_leave tp

(* deep frames and a slot far past the capacity both grow the stack *)
let test_shadow_stack_growth () =
  let _, tp = setup () in
  for i = 1 to 3000 do
    TP.ss_enter tp 3;
    TP.ss_set tp 3 i
  done;
  Alcotest.(check int) "deep slot" 3000 (TP.ss_get tp 3);
  TP.ss_set tp 20_000 5;
  Alcotest.(check int) "far slot" 5 (TP.ss_get tp 20_000);
  for _ = 1 to 3000 do
    TP.ss_leave tp
  done

(* A keyed stack object freed explicitly is released once: leaving its
   frame finds the key dead and neither reports nor frees it again. *)
let test_stack_object_freed () =
  let st, tp = setup () in
  st.State.frame_enter_hook st;
  let alloca = Option.get (State.find_builtin st Mi_mir.Intrinsics.tp_alloca) in
  let a = State.as_int (Option.get (alloca st [| State.I 32 |])) in
  Alcotest.(check bool) "stack object is keyed" true (TP.key_of_alloc tp a <> 0);
  st.State.free_hook st a;
  st.State.frame_exit_hook st;
  Alcotest.(check int) "released once" 1 (State.counter st "tp.frees")

(* --- end-to-end on MiniC programs -------------------------------------- *)

let tp_setup =
  {
    (Harness.with_config (Config.of_approach "temporal") Harness.baseline) with
    level = Pipeline.O1;
  }

let run ?(setup = tp_setup) src =
  Harness.run_sources setup [ Bench.src "t" src ]

let detects src =
  match (run src).Harness.outcome with
  | Mi_vm.Interp.Safety_violation { checker; _ } ->
      Alcotest.(check string) "reported by the temporal checker" "temporal"
        checker
  | Mi_vm.Interp.Exited _ -> Alcotest.failf "ran to completion:\n%s" src
  | Mi_vm.Interp.Trapped msg -> Alcotest.failf "VM trap (%s):\n%s" msg src
  | Mi_vm.Interp.Exhausted _ -> Alcotest.fail "exhausted fuel"

let clean src =
  match (run src).Harness.outcome with
  | Mi_vm.Interp.Exited 0 -> ()
  | Mi_vm.Interp.Exited n -> Alcotest.failf "exit code %d:\n%s" n src
  | Mi_vm.Interp.Safety_violation { reason; _ } ->
      Alcotest.failf "spurious report (%s):\n%s" reason src
  | Mi_vm.Interp.Trapped msg -> Alcotest.failf "VM trap (%s):\n%s" msg src
  | Mi_vm.Interp.Exhausted _ -> Alcotest.fail "exhausted fuel"

let test_uaf_read () =
  detects
    {|
int main(void) {
  long *a = (long *)malloc(8 * sizeof(long));
  a[0] = 5;
  free(a);
  print_int(a[0]);
  return 0;
}
|}

let test_uaf_write () =
  detects
    {|
int main(void) {
  long *a = (long *)malloc(8 * sizeof(long));
  free(a);
  a[0] = 7;
  return 0;
}
|}

let test_uaf_through_alias () =
  detects
    {|
int main(void) {
  long *a = (long *)malloc(4 * sizeof(long));
  long *p = a + 2;
  free(a);
  print_int(*p);
  return 0;
}
|}

let test_double_free () =
  detects
    {|
int main(void) {
  long *a = (long *)malloc(16);
  free(a);
  free(a);
  return 0;
}
|}

let test_dangling_stack_ref () =
  detects
    {|
long *escape(void) {
  long local[4];
  local[0] = 9;
  return local;
}
int main(void) {
  long *p = escape();
  print_int(p[0]);
  return 0;
}
|}

let test_safe_heap_use () =
  clean
    {|
int main(void) {
  long *a = (long *)malloc(8 * sizeof(long));
  long i;
  for (i = 0; i < 8; i++) a[i] = i * 2;
  print_int(a[7]);
  free(a);
  return 0;
}
|}

let test_free_then_fresh () =
  clean
    {|
int main(void) {
  long *a = (long *)malloc(16 * sizeof(long));
  a[15] = 3;
  free(a);
  long *b = (long *)malloc(16 * sizeof(long));
  b[15] = 4;
  print_int(b[15]);
  free(b);
  return 0;
}
|}

let test_safe_pointer_in_memory () =
  clean
    {|
struct box { long *p; };
int main(void) {
  struct box b;
  long *a = (long *)malloc(4 * sizeof(long));
  a[1] = 21;
  b.p = a;
  print_int(b.p[1]);
  free(a);
  return 0;
}
|}

(* the boxed-builtin path and the fused path run one typed
   implementation, so steps, cycles, counters and site attribution are
   identical — the same identity the fuzz oracle checks at scale *)
let test_fast_generic_twins () =
  let src =
    {|
long sum(long *a, long n) {
  long s = 0;
  long i;
  for (i = 0; i < n; i++) s += a[i];
  return s;
}
int main(void) {
  long *a = (long *)malloc(16 * sizeof(long));
  long i;
  for (i = 0; i < 16; i++) a[i] = i;
  print_int(sum(a, 16));
  free(a);
  return 0;
}
|}
  in
  List.iter
    (fun level ->
      let setup = { tp_setup with level } in
      let fast = run ~setup src in
      let generic =
        run ~setup:{ setup with dispatch = Harness.Generic } src
      in
      Alcotest.(check string) "same output" fast.Harness.output
        generic.Harness.output;
      Alcotest.(check int) "same cycles" fast.Harness.cycles
        generic.Harness.cycles;
      Alcotest.(check (list (pair string int)))
        "same counters"
        (Harness.counters_alist fast)
        (Harness.counters_alist generic))
    [ Pipeline.O1; Pipeline.O3 ]

let () =
  Alcotest.run "temporal"
    [
      ( "runtime",
        [
          Alcotest.test_case "key lifecycle" `Quick test_key_lifecycle;
          Alcotest.test_case "keys never reused" `Quick test_key_freshness;
          Alcotest.test_case "key 0 is wide" `Quick test_key_zero_wide;
          Alcotest.test_case "double free detected" `Quick
            test_double_free_detected;
          Alcotest.test_case "trie roundtrip" `Quick test_trie_roundtrip;
          Alcotest.test_case "meta copy" `Quick test_meta_copy;
          Alcotest.test_case "shadow stack zeroed" `Quick
            test_shadow_stack_zeroed;
          Alcotest.test_case "shadow stack growth" `Quick
            test_shadow_stack_growth;
          Alcotest.test_case "freed stack object" `Quick
            test_stack_object_freed;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "uaf read" `Slow test_uaf_read;
          Alcotest.test_case "uaf write" `Slow test_uaf_write;
          Alcotest.test_case "uaf through alias" `Slow test_uaf_through_alias;
          Alcotest.test_case "double free" `Slow test_double_free;
          Alcotest.test_case "dangling stack ref" `Slow
            test_dangling_stack_ref;
          Alcotest.test_case "safe heap use" `Slow test_safe_heap_use;
          Alcotest.test_case "free then fresh" `Slow test_free_then_fresh;
          Alcotest.test_case "pointer through memory" `Slow
            test_safe_pointer_in_memory;
          Alcotest.test_case "fast/generic twins" `Slow
            test_fast_generic_twins;
        ] );
    ]
