(* Tests for the SoftBound runtime: trie, shadow stack, metadata copy,
   check semantics, and wrappers. *)

open Mi_vm
module SB = Mi_softbound.Softbound_rt

let setup () =
  let st = State.create () in
  Builtins.install st;
  let sb = SB.install st in
  (st, sb)

let test_trie_roundtrip () =
  let _, sb = setup () in
  let addr = Layout.heap_base + 1024 in
  SB.trie_store sb addr ~base:111 ~bound:222;
  Alcotest.(check (pair int int)) "roundtrip" (111, 222) (SB.trie_load sb addr)

let test_trie_default_null () =
  let _, sb = setup () in
  Alcotest.(check (pair int int)) "unset slot has null bounds" (0, 0)
    (SB.trie_load sb (Layout.heap_base + 99992))

let prop_trie_many_slots =
  QCheck.Test.make ~name:"trie distinguishes 8-byte slots" ~count:200
    QCheck.(pair (int_range 0 100000) (int_range 0 100000))
    (fun (s1, s2) ->
      let _, sb = setup () in
      let a1 = Layout.heap_base + (s1 * 8) in
      let a2 = Layout.heap_base + (s2 * 8) in
      SB.trie_store sb a1 ~base:(s1 + 1) ~bound:(s1 + 2);
      SB.trie_store sb a2 ~base:(s2 + 101) ~bound:(s2 + 102);
      SB.trie_load sb a2 = (s2 + 101, s2 + 102)
      && (s1 = s2 || SB.trie_load sb a1 = (s1 + 1, s1 + 2)))

let test_meta_copy () =
  let _, sb = setup () in
  let src = Layout.heap_base and dst = Layout.heap_base + 4096 in
  SB.trie_store sb src ~base:10 ~bound:20;
  SB.trie_store sb (src + 8) ~base:30 ~bound:40;
  SB.meta_copy sb ~dst ~src 16;
  Alcotest.(check (pair int int)) "first slot" (10, 20) (SB.trie_load sb dst);
  Alcotest.(check (pair int int)) "second slot" (30, 40)
    (SB.trie_load sb (dst + 8))

(* Pairs on both sides of a 4 KiB and of a 64 KiB span boundary, and a
   copy whose source and destination ranges each straddle one: every
   pair reads back unchanged, and the trie counters count operations,
   never secondaries. *)
let test_trie_span_boundaries () =
  let st, sb = setup () in
  let b4 = Layout.heap_base + (3 * 4096) and b64 = Layout.heap_base + 65536 in
  let pairs =
    [ (b4 - 8, (1, 2)); (b4, (3, 4)); (b64 - 8, (5, 6)); (b64, (7, 8)) ]
  in
  List.iter (fun (a, (base, bound)) -> SB.trie_store sb a ~base ~bound) pairs;
  List.iter
    (fun (a, want) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "slot %#x" a)
        want (SB.trie_load sb a))
    pairs;
  (* [b4 - 8, b4 + 8) to [dst - 8, dst + 8), across a 64 KiB boundary *)
  let dst = Layout.heap_base + (5 * 65536) in
  SB.meta_copy sb ~dst:(dst - 8) ~src:(b4 - 8) 16;
  Alcotest.(check (pair int int)) "copied below" (1, 2)
    (SB.trie_load sb (dst - 8));
  Alcotest.(check (pair int int)) "copied above" (3, 4) (SB.trie_load sb dst);
  Alcotest.(check (pair int int)) "source intact" (3, 4) (SB.trie_load sb b4);
  Alcotest.(check int) "trie stores" 4 (State.counter st "sb.trie_store");
  Alcotest.(check int) "trie loads" 7 (State.counter st "sb.trie_load");
  Alcotest.(check int) "meta copies" 1 (State.counter st "sb.meta_copy")

let test_shadow_stack_nesting () =
  let _, sb = setup () in
  SB.ss_enter sb 2;
  SB.ss_set_base sb 1 100;
  SB.ss_set_bound sb 1 200;
  (* nested call with its own frame *)
  SB.ss_enter sb 1;
  SB.ss_set_base sb 1 300;
  SB.ss_set_bound sb 1 400;
  Alcotest.(check int) "inner frame slot" 300 (SB.ss_get_base sb 1);
  SB.ss_set_base sb 0 999;
  SB.ss_leave sb;
  (* outer frame is intact *)
  Alcotest.(check int) "outer frame restored" 100 (SB.ss_get_base sb 1);
  Alcotest.(check int) "outer bound" 200 (SB.ss_get_bound sb 1);
  SB.ss_leave sb

let test_shadow_stack_growth () =
  let _, sb = setup () in
  (* more frames than the initial capacity of the backing array *)
  for i = 1 to 3000 do
    SB.ss_enter sb 3;
    SB.ss_set_base sb 3 i
  done;
  Alcotest.(check int) "deep slot" 3000 (SB.ss_get_base sb 3);
  for _ = 1 to 3000 do
    SB.ss_leave sb
  done

(* An access far past the current capacity grows the stack to fit it
   in one step, not by a single doubling. *)
let test_shadow_stack_far_slot () =
  let _, sb = setup () in
  SB.ss_enter sb 1;
  let far = 20_000 in
  SB.ss_set_base sb far 11;
  SB.ss_set_bound sb far 22;
  Alcotest.(check int) "far base" 11 (SB.ss_get_base sb far);
  Alcotest.(check int) "far bound" 22 (SB.ss_get_bound sb far);
  SB.ss_leave sb

(* SoftBound's frames are not zeroed: a fresh frame reads what the
   previous, deeper frame left in the same slot — the §4.3 stale-slot
   hazard, which the temporal checker's zeroed frames rule out *)
let test_shadow_stack_stale_slot () =
  let _, sb = setup () in
  SB.ss_enter sb 2;
  SB.ss_enter sb 1;
  SB.ss_set_base sb 1 300;
  SB.ss_set_bound sb 1 400;
  SB.ss_leave sb;
  SB.ss_enter sb 1;
  Alcotest.(check int) "stale base" 300 (SB.ss_get_base sb 1);
  Alcotest.(check int) "stale bound" 400 (SB.ss_get_bound sb 1);
  SB.ss_leave sb;
  SB.ss_leave sb

let violation f =
  match f () with
  | exception State.Safety_abort { checker = "softbound"; _ } -> true
  | () -> false

let test_check_semantics () =
  let _, sb = setup () in
  let base = Layout.heap_base and bound = Layout.heap_base + 24 in
  Alcotest.(check bool) "in bounds" false
    (violation (fun () -> SB.check sb ~site:(-1) base 8 ~base ~bound));
  Alcotest.(check bool) "exact end ok" false
    (violation (fun () -> SB.check sb ~site:(-1) (base + 16) 8 ~base ~bound));
  Alcotest.(check bool) "one past end detected" true
    (violation (fun () -> SB.check sb ~site:(-1) (base + 17) 8 ~base ~bound));
  Alcotest.(check bool) "underflow detected" true
    (violation (fun () -> SB.check sb ~site:(-1) (base - 1) 1 ~base ~bound));
  Alcotest.(check bool) "null bounds always report" true
    (violation (fun () -> SB.check sb ~site:(-1) base 1 ~base:0 ~bound:0))

let test_check_wide_counting () =
  let st, sb = setup () in
  SB.check sb ~site:(-1) Layout.heap_base 8 ~base:0 ~bound:Layout.wide_bound;
  SB.check sb ~site:(-1) Layout.heap_base 8 ~base:Layout.heap_base
    ~bound:(Layout.heap_base + 8);
  Alcotest.(check int) "two checks" 2 (State.counter st "sb.checks");
  Alcotest.(check int) "one wide" 1 (State.counter st "sb.checks_wide")

let test_wrapper_strcpy_propagates_ret_bounds () =
  let st, sb = setup () in
  (* caller protocol for strcpy(dst, src): 2 pointer args *)
  let dst = State.std_malloc st 32 and src = State.std_malloc st 32 in
  Memory.store_cstring st.State.mem src "hi";
  SB.ss_enter sb 2;
  SB.ss_set_base sb 1 dst;
  SB.ss_set_bound sb 1 (dst + 32);
  SB.ss_set_base sb 2 src;
  SB.ss_set_bound sb 2 (src + 32);
  let w = Option.get (State.find_builtin st "__sbw_strcpy") in
  let r = w st [| State.I dst; State.I src |] in
  Alcotest.(check int) "returns dst" dst (State.as_int (Option.get r));
  Alcotest.(check int) "ret slot base" dst (SB.ss_get_base sb 0);
  Alcotest.(check int) "ret slot bound" (dst + 32) (SB.ss_get_bound sb 0);
  SB.ss_leave sb;
  Alcotest.(check string) "copied" "hi" (Memory.load_cstring st.State.mem dst)

let test_wrapper_realloc_copies_metadata () =
  let st, sb = setup () in
  let p = State.std_malloc st 16 in
  (* the block holds one pointer with metadata *)
  SB.trie_store sb p ~base:777 ~bound:888;
  SB.ss_enter sb 1;
  let w = Option.get (State.find_builtin st "__sbw_realloc") in
  let r = w st [| State.I p; State.I 64 |] in
  let q = State.as_int (Option.get r) in
  Alcotest.(check bool) "moved" true (q <> p);
  Alcotest.(check (pair int int)) "metadata moved" (777, 888)
    (SB.trie_load sb q);
  Alcotest.(check int) "ret bounds set" q (SB.ss_get_base sb 0);
  Alcotest.(check int) "ret bound" (q + 64) (SB.ss_get_bound sb 0);
  SB.ss_leave sb

let () =
  Alcotest.run "softbound"
    [
      ( "trie",
        [
          Alcotest.test_case "roundtrip" `Quick test_trie_roundtrip;
          Alcotest.test_case "default null bounds" `Quick test_trie_default_null;
          QCheck_alcotest.to_alcotest prop_trie_many_slots;
          Alcotest.test_case "meta copy" `Quick test_meta_copy;
          Alcotest.test_case "span boundaries" `Quick test_trie_span_boundaries;
        ] );
      ( "shadow-stack",
        [
          Alcotest.test_case "nesting" `Quick test_shadow_stack_nesting;
          Alcotest.test_case "growth" `Quick test_shadow_stack_growth;
          Alcotest.test_case "far slot" `Quick test_shadow_stack_far_slot;
          Alcotest.test_case "stale slot" `Quick test_shadow_stack_stale_slot;
        ] );
      ( "checks",
        [
          Alcotest.test_case "semantics" `Quick test_check_semantics;
          Alcotest.test_case "wide counting" `Quick test_check_wide_counting;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "strcpy bounds" `Quick
            test_wrapper_strcpy_propagates_ret_bounds;
          Alcotest.test_case "realloc metadata" `Quick
            test_wrapper_realloc_copies_metadata;
        ] );
    ]
