(* Tests for the Low-Fat Pointers runtime: region geometry, base/size
   recovery, fallbacks, frame handling, and check semantics. *)

open Mi_vm
module LF = Mi_lowfat.Lowfat_rt
module Layout = Mi_vm.Layout

let setup () =
  let st = State.create () in
  Builtins.install st;
  let lf = LF.install st in
  (st, lf)

let test_region_geometry () =
  Alcotest.(check int) "min region" 1 Layout.min_region;
  Alcotest.(check int) "max region" 27 Layout.max_region;
  Alcotest.(check int) "smallest class" 16 (Layout.size_of_region Layout.min_region);
  Alcotest.(check int) "largest class" (1 lsl 30)
    (Layout.size_of_region Layout.max_region);
  Alcotest.(check bool) "heap not low-fat" false (Layout.is_low_fat Layout.heap_base);
  Alcotest.(check bool) "stack not low-fat" false (Layout.is_low_fat Layout.stack_top);
  Alcotest.(check bool) "globals not low-fat" false
    (Layout.is_low_fat Layout.globals_base)

let test_alloc_size_classes () =
  let st, _ = setup () in
  (* size s gets class >= s+1 (footnote 3 padding) *)
  List.iter
    (fun (req, cls) ->
      let a = st.State.malloc_hook st req in
      Alcotest.(check bool) (Printf.sprintf "%d is low-fat" req) true
        (Layout.is_low_fat a);
      Alcotest.(check (option int))
        (Printf.sprintf "class of %d" req)
        (Some cls) (LF.alloc_size a))
    [ (1, 16); (15, 16); (16, 32); (31, 32); (100, 128); (1000, 1024) ]

let prop_base_recovery =
  QCheck.Test.make ~name:"base recoverable from any interior pointer"
    ~count:300
    QCheck.(pair (int_range 1 100000) (int_range 0 10000))
    (fun (size, off) ->
      let st, _ = setup () in
      let a = st.State.malloc_hook st size in
      let off = off mod size in
      LF.base (a + off) = a)

let test_one_past_end_in_class () =
  let st, _ = setup () in
  (* one-past-the-end stays within the padded class (footnote 3) *)
  let a = st.State.malloc_hook st 16 in
  Alcotest.(check int) "base of one-past-end" a (LF.base (a + 16))

let test_huge_alloc_falls_back () =
  let st, _ = setup () in
  let a = st.State.malloc_hook st (1 lsl 30 + 5) in
  Alcotest.(check bool) "not low-fat" false (Layout.is_low_fat a);
  Alcotest.(check int) "fallback counter" 1 (State.counter st "lf.fallback_large")

let test_free_and_reuse () =
  let st, t = setup () in
  let a = st.State.malloc_hook st 100 in
  LF.lf_free t st a;
  let b = st.State.malloc_hook st 100 in
  Alcotest.(check int) "reuses the freed slot" a b

let test_free_interior_traps () =
  let st, t = setup () in
  let a = st.State.malloc_hook st 100 in
  Alcotest.check_raises "interior free" (State.Trap "free of interior low-fat pointer")
    (fun () -> LF.lf_free t st (a + 8))

let test_nonfat_free_goes_to_std () =
  let st, t = setup () in
  let a = State.std_malloc st 64 in
  LF.lf_free t st a;
  Alcotest.(check int) "std free happened" 1 (State.counter st "std.free")

let violation f =
  match f () with
  | exception State.Safety_abort { checker = "lowfat"; _ } -> true
  | () -> false

let test_check_semantics () =
  let st, lf = setup () in
  let a = st.State.malloc_hook st 24 in
  (* class of 24 is 32 *)
  Alcotest.(check bool) "in bounds ok" false (violation (fun () -> LF.check lf ~site:(-1) a 8 a));
  Alcotest.(check bool) "last byte ok" false
    (violation (fun () -> LF.check lf ~site:(-1) (a + 31) 1 a));
  Alcotest.(check bool) "padding access not detected" false
    (violation (fun () -> LF.check lf ~site:(-1) (a + 24) 8 a));
  Alcotest.(check bool) "past class detected" true
    (violation (fun () -> LF.check lf ~site:(-1) (a + 32) 1 a));
  Alcotest.(check bool) "underflow detected" true
    (violation (fun () -> LF.check lf ~site:(-1) (a - 1) 1 a));
  Alcotest.(check bool) "width crossing end detected" true
    (violation (fun () -> LF.check lf ~site:(-1) (a + 28) 8 a))

let test_check_wide_for_nonfat () =
  let st, lf = setup () in
  let a = State.std_malloc st 8 in
  Alcotest.(check bool) "non-low-fat is wide (no report)" false
    (violation (fun () -> LF.check lf ~site:(-1) (a + 1000000) 8 a));
  Alcotest.(check int) "counted as wide" 1 (State.counter st "lf.checks_wide")

let test_invariant_check () =
  let st, lf = setup () in
  let a = st.State.malloc_hook st 24 in
  Alcotest.(check bool) "in-bounds pointer may escape" false
    (violation (fun () -> LF.invariant_check lf ~site:(-1) (a + 8) a));
  Alcotest.(check bool) "oob pointer escape detected" true
    (violation (fun () -> LF.invariant_check lf ~site:(-1) (a + 40) a))

let test_frame_cleanup () =
  let st, _t = setup () in
  (* simulate an lf_alloca inside a frame *)
  st.State.frame_enter_hook st;
  let fn = Option.get (State.find_builtin st Mi_mir.Intrinsics.lf_alloca) in
  let a = State.as_int (Option.get (fn st [| State.I 40 |])) in
  Alcotest.(check bool) "mirrored to low-fat" true (Layout.is_low_fat a);
  st.State.frame_exit_hook st;
  (* the slot is free again: a fresh allocation of the same class reuses it *)
  let b = st.State.malloc_hook st 40 in
  Alcotest.(check int) "freed on frame exit" a b

let test_region_exhaustion_fallback () =
  (* drain a region by allocating with a tiny region span: simulate by
     allocating many large chunks of the biggest class *)
  let st, t = setup () in
  ignore t;
  (* the 1 GiB class region spans 2^32 bytes, i.e. room for 4 objects *)
  let seen_fallback = ref false in
  for _ = 1 to 5 do
    let a = st.State.malloc_hook st ((1 lsl 29) + 8) in
    if not (Layout.is_low_fat a) then seen_fallback := true
  done;
  Alcotest.(check bool) "region exhaustion falls back" true !seen_fallback;
  Alcotest.(check bool) "counter" true
    (State.counter st "lf.fallback_exhausted" > 0)

let () =
  Alcotest.run "lowfat"
    [
      ( "geometry",
        [
          Alcotest.test_case "regions" `Quick test_region_geometry;
          Alcotest.test_case "size classes" `Quick test_alloc_size_classes;
          QCheck_alcotest.to_alcotest prop_base_recovery;
          Alcotest.test_case "one past end" `Quick test_one_past_end_in_class;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "huge falls back" `Quick test_huge_alloc_falls_back;
          Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
          Alcotest.test_case "interior free traps" `Quick test_free_interior_traps;
          Alcotest.test_case "non-fat free forwards" `Quick test_nonfat_free_goes_to_std;
          Alcotest.test_case "region exhaustion" `Quick test_region_exhaustion_fallback;
          Alcotest.test_case "frame cleanup" `Quick test_frame_cleanup;
        ] );
      ( "checks",
        [
          Alcotest.test_case "deref semantics" `Quick test_check_semantics;
          Alcotest.test_case "wide for non-fat" `Quick test_check_wide_for_nonfat;
          Alcotest.test_case "escape invariant" `Quick test_invariant_check;
        ] );
    ]
