(* Tests for the VM: memory, allocator, interpreter semantics. *)

open Mi_vm
open Mi_mir

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let addr0 = Layout.heap_base

let test_mem_roundtrip_widths () =
  let m = Memory.create () in
  List.iter
    (fun (w, v) ->
      Memory.store m addr0 w v;
      Alcotest.(check int) (Printf.sprintf "width %d" w) v (Memory.load m addr0 w))
    [ (1, 0xAB); (2, 0xBEEF); (4, 0x7EADBEEF); (8, 0x123456789ABCDE) ]

let test_mem_little_endian () =
  let m = Memory.create () in
  Memory.store m addr0 4 0x11223344;
  Alcotest.(check int) "lowest byte first" 0x44 (Memory.load8 m addr0);
  Alcotest.(check int) "highest byte last" 0x11 (Memory.load8 m (addr0 + 3))

let test_mem_page_straddle () =
  let m = Memory.create () in
  let a = addr0 + Layout.page_size - 3 in
  Memory.store m a 8 0x1122334455667788;
  Alcotest.(check int) "straddling load" 0x1122334455667788 (Memory.load m a 8)

let prop_mem_f64_roundtrip =
  QCheck.Test.make ~name:"f64 store/load roundtrip" ~count:500 QCheck.float
    (fun f ->
      let m = Memory.create () in
      Memory.store_f64 m addr0 f;
      let f' = Memory.load_f64 m addr0 in
      Int64.bits_of_float f = Int64.bits_of_float f')

let test_mem_f64_page_straddle () =
  let m = Memory.create () in
  let a = addr0 + Layout.page_size - 5 in
  Memory.store_f64 m a (-2.5);
  Alcotest.(check (float 0.0)) "straddling f64" (-2.5) (Memory.load_f64 m a)

let test_mem_null_guard () =
  let m = Memory.create () in
  Alcotest.check_raises "null deref faults" (Memory.Fault (0, "access to null guard page"))
    (fun () -> ignore (Memory.load m 0 8))

let test_mem_copy_overlap () =
  let m = Memory.create () in
  Memory.store_bytes m addr0 "abcdef";
  Memory.copy m ~dst:(addr0 + 2) ~src:addr0 4;
  Alcotest.(check string) "memmove semantics fwd" "ababcd"
    (String.init 6 (fun i -> Char.chr (Memory.load8 m (addr0 + i))));
  Memory.store_bytes m addr0 "abcdef";
  Memory.copy m ~dst:addr0 ~src:(addr0 + 2) 4;
  Alcotest.(check string) "memmove semantics bwd" "cdefef"
    (String.init 6 (fun i -> Char.chr (Memory.load8 m (addr0 + i))))

let test_mem_cstring () =
  let m = Memory.create () in
  Memory.store_cstring m addr0 "hello";
  Alcotest.(check string) "cstring roundtrip" "hello" (Memory.load_cstring m addr0)

(* --- cross-page consistency --------------------------------------------
   The slow paths (accesses and block ops straddling a page boundary)
   must be bit-identical to the in-page fast paths; these pin the
   page-chunked copy/fill rewrite against a byte-at-a-time reference. *)

(* addresses around a page boundary: every straddle of [width] plus two
   fully-contained controls *)
let straddles width =
  let edge = addr0 + (3 * Layout.page_size) in
  List.init (width + 1) (fun i -> edge - i) @ [ edge + 8; edge - 64 ]

let test_mem_cross_page_widths () =
  List.iter
    (fun width ->
      List.iter
        (fun a ->
          let m = Memory.create () in
          let v = 0x1122334455667788 land ((1 lsl (8 * width)) - 1) in
          Memory.store m a width v;
          Alcotest.(check int)
            (Printf.sprintf "store/load width %d at %#x" width a)
            v (Memory.load m a width);
          (* byte-assembled view agrees with the wide load *)
          let assembled = ref 0 in
          for i = width - 1 downto 0 do
            assembled := (!assembled lsl 8) lor Memory.load8 m (a + i)
          done;
          Alcotest.(check int)
            (Printf.sprintf "byte view width %d at %#x" width a)
            v !assembled)
        (straddles width))
    [ 1; 2; 4; 8 ]

let test_mem_cross_page_i64_full () =
  let pat = 0xDEADBEEFCAFEBABEL in
  List.iter
    (fun a ->
      let m = Memory.create () in
      Memory.store_i64_full m a pat;
      Alcotest.(check int64)
        (Printf.sprintf "i64_full at %#x" a)
        pat (Memory.load_i64_full m a);
      (* the sign bit must survive even when split across pages *)
      let m2 = Memory.create () in
      Memory.store_f64 m2 a (-1.0);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "negative f64 at %#x" a)
        (-1.0) (Memory.load_f64 m2 a))
    (straddles 8)

(* reference memmove: the pre-chunking byte-at-a-time loops *)
let ref_copy m ~dst ~src len =
  if dst <= src then
    for i = 0 to len - 1 do
      Memory.store8 m (dst + i) (Memory.load8 m (src + i))
    done
  else
    for i = len - 1 downto 0 do
      Memory.store8 m (dst + i) (Memory.load8 m (src + i))
    done

let mem_with_pattern base n =
  let m = Memory.create () in
  for i = 0 to n - 1 do
    Memory.store8 m (base + i) ((i * 31 + 7) land 0xff)
  done;
  m

let read_back m base n =
  String.init n (fun i -> Char.chr (Memory.load8 m (base + i)))

let test_mem_copy_cross_page_overlap () =
  (* overlapping copies whose source and destination straddle page
     boundaries, both directions, vs the byte-loop reference *)
  let base = addr0 + (2 * Layout.page_size) - 300 in
  let n = 600 (* spans the boundary *) in
  List.iter
    (fun (doff, soff, len) ->
      let m = mem_with_pattern base n in
      let r = mem_with_pattern base n in
      Memory.copy m ~dst:(base + doff) ~src:(base + soff) len;
      ref_copy r ~dst:(base + doff) ~src:(base + soff) len;
      Alcotest.(check string)
        (Printf.sprintf "copy dst+%d src+%d len %d" doff soff len)
        (read_back r base n) (read_back m base n);
      Alcotest.(check int)
        "same pages touched" (Memory.page_count r) (Memory.page_count m))
    [
      (40, 0, 500);  (* forward-overlap, crosses the page edge *)
      (0, 40, 500);  (* backward-overlap, crosses the page edge *)
      (1, 0, 299);   (* single-byte shift up to the edge *)
      (0, 1, 299);
      (250, 250, 300);  (* dst = src, straddling *)
      (0, 300, 300);    (* disjoint, src straddles *)
      (300, 0, 300);    (* disjoint, dst straddles *)
    ]

let prop_mem_copy_matches_reference =
  QCheck.Test.make ~name:"chunked copy == byte-loop reference" ~count:300
    QCheck.(triple (int_bound 700) (int_bound 700) (int_bound 900))
    (fun (doff, soff, len) ->
      let base = addr0 + Layout.page_size - 350 in
      let n = 1700 in
      let m = mem_with_pattern base n in
      let r = mem_with_pattern base n in
      Memory.copy m ~dst:(base + doff) ~src:(base + soff) len;
      ref_copy r ~dst:(base + doff) ~src:(base + soff) len;
      read_back m base n = read_back r base n)

let test_mem_fill_cross_page () =
  let base = addr0 + Layout.page_size - 5 in
  let m = Memory.create () in
  Memory.store8 m (base - 1) 0x77;
  Memory.store8 m (base + 10) 0x88;
  Memory.fill m ~dst:base ~byte:0xAB 10;
  for i = 0 to 9 do
    Alcotest.(check int) "filled" 0xAB (Memory.load8 m (base + i))
  done;
  Alcotest.(check int) "byte before intact" 0x77 (Memory.load8 m (base - 1));
  Alcotest.(check int) "byte after intact" 0x88 (Memory.load8 m (base + 10))

(* Byte 7 of an 8-byte store is the same whether or not the store
   straddles a page: a straddling path that shifted with [lsr] would
   read back 0x7f there for a negative value, against 0xff in-page. *)
let test_mem_store_sign_byte () =
  List.iter
    (fun a ->
      let m = Memory.create () in
      Memory.store m a 8 (-1);
      Alcotest.(check int)
        (Printf.sprintf "byte 7 of -1 at %#x" a)
        0xff
        (Memory.load8 m (a + 7)))
    [ addr0; addr0 + Layout.page_size - 3 ]

(* A backward copy (dst > src) faults where the byte loop does: at the
   last destination byte, the first one it stores, not at the chunk's
   lowest address. *)
let test_mem_backward_copy_fault_addr () =
  let m = Memory.create ~max_pages:1 () in
  Alcotest.check_raises "page limit at the last destination byte"
    (Memory.Fault (0x20000000106d, "out of VM memory (page limit)"))
    (fun () -> Memory.copy m ~dst:(addr0 + 0x100a) ~src:(addr0 + 0xa) 100)

(* A straddling load touches its bytes in ascending order, as a byte
   loop does: at the page limit it maps the first page and faults at the
   first byte of the second; with no page left it faults at its address,
   as in-page loads and every store do. *)
let test_mem_straddling_load_fault_addr () =
  let a = addr0 + Layout.page_size - 3 in
  let limit = "out of VM memory (page limit)" in
  List.iter
    (fun (what, load) ->
      let m = Memory.create ~max_pages:1 () in
      Alcotest.check_raises (what ^ ": at the second page")
        (Memory.Fault (a + 3, limit))
        (fun () -> load m a);
      Alcotest.(check int) (what ^ ": first page mapped") 1 (Memory.page_count m);
      let m = Memory.create ~max_pages:0 () in
      Alcotest.check_raises (what ^ ": at the address") (Memory.Fault (a, limit))
        (fun () -> load m a))
    [
      ("load", fun m a -> ignore (Memory.load m a 8));
      ("load_f64", fun m a -> ignore (Memory.load_f64 m a));
    ]

(* --- page cache ------------------------------------------------------
   A reference page model: a plain [Hashtbl] page table with no cache in
   front, accessed one byte at a time.  Every byte access looks its page
   up by index, materializes it zero-filled on first touch, and faults at
   the page limit.  A load or store inside one page touches it first at
   its address; loads assemble their bytes from the lowest up and
   stores write [(v asr 8i) land 0xff] from the lowest up, so byte 7 of
   an 8-byte store carries the sign; [copy] is memmove as load8 then
   store8 per byte, descending when [dst > src]; [fill] stores byte by
   byte.  Memory's page chunking and in-page fast paths must be
   invisible: random operation sequences over pages that alias one
   cache slot observe the same values, page counts and fault
   addresses. *)
module Page_model = struct
  type t = { pages : (int, Bytes.t) Hashtbl.t; mutable count : int; max : int }

  let create max = { pages = Hashtbl.create 16; count = 0; max }
  let off a = a land (Layout.page_size - 1)

  let page t a =
    let idx = a lsr Layout.page_bits in
    match Hashtbl.find_opt t.pages idx with
    | Some p -> p
    | None ->
        if t.count >= t.max then
          raise (Memory.Fault (a, "out of VM memory (page limit)"));
        let p = Bytes.make Layout.page_size '\000' in
        Hashtbl.add t.pages idx p;
        t.count <- t.count + 1;
        p

  let load8 t a = Char.code (Bytes.get (page t a) (off a))
  let store8 t a v = Bytes.set (page t a) (off a) (Char.chr (v land 0xff))

  (* an access inside one page touches it once, at its address *)
  let touch t a w = if off a + w <= Layout.page_size then ignore (page t a)

  let load t a w =
    touch t a w;
    let v = ref 0 in
    for i = 0 to w - 1 do
      v := !v lor (load8 t (a + i) lsl (8 * i))
    done;
    !v

  let store t a w v =
    touch t a w;
    for i = 0 to w - 1 do
      store8 t (a + i) ((v asr (8 * i)) land 0xff)
    done

  let copy t ~dst ~src len =
    let move i = store8 t (dst + i) (load8 t (src + i)) in
    if dst <= src then
      for i = 0 to len - 1 do
        move i
      done
    else
      for i = len - 1 downto 0 do
        move i
      done

  let fill t ~dst ~byte len =
    for i = 0 to len - 1 do
      store8 t (dst + i) byte
    done
end

type mem_op =
  | Ld of int * int
  | St of int * int * int
  | Cp of int * int * int
  | Fl of int * int * int

(* addresses on a few pages whose indices map to one cache slot (256
   pages apart), their neighbours, and offsets near page ends so that
   accesses straddle *)
let gen_mem_op =
  let open QCheck.Gen in
  let base_page = Layout.heap_base lsr Layout.page_bits in
  let addr =
    map3
      (fun k nb o ->
        ((base_page + (k * 256) + nb) lsl Layout.page_bits)
        + if o < 24 then Layout.page_size - 1 - o else o)
      (int_bound 3) (int_bound 1) (int_bound 60)
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  frequency
    [
      (4, map2 (fun a w -> Ld (a, w)) addr width);
      (4, map3 (fun a w v -> St (a, w, v)) addr width int);
      (1, map3 (fun d s n -> Cp (d, s, n)) addr addr (int_bound 5000));
      (1, map3 (fun d b n -> Fl (d, b, n)) addr (int_bound 255) (int_bound 5000));
    ]

let show_mem_op = function
  | Ld (a, w) -> Printf.sprintf "load %#x %d" a w
  | St (a, w, v) -> Printf.sprintf "store %#x %d %d" a w v
  | Cp (d, s, n) -> Printf.sprintf "copy %#x <- %#x %d" d s n
  | Fl (d, b, n) -> Printf.sprintf "fill %#x %d %d" d b n

let prop_page_cache_matches_model =
  QCheck.Test.make ~name:"page cache == plain page table" ~count:300
    (QCheck.make
       ~print:(fun (mp, ops) ->
         Printf.sprintf "max_pages=%d: %s" mp
           (String.concat "; " (List.map show_mem_op ops)))
       QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 1 60) gen_mem_op)))
    (fun (max_pages, ops) ->
      let m = Memory.create ~max_pages () and r = Page_model.create max_pages in
      let observe f =
        match f () with
        | v -> Ok v
        | exception Memory.Fault (a, msg) -> Error (a, msg)
      in
      List.for_all
        (fun op ->
          let got, want =
            match op with
            | Ld (a, w) ->
                ( observe (fun () -> Memory.load m a w),
                  observe (fun () -> Page_model.load r a w) )
            | St (a, w, v) ->
                ( observe (fun () -> Memory.store m a w v; 0),
                  observe (fun () -> Page_model.store r a w v; 0) )
            | Cp (d, s, n) ->
                ( observe (fun () -> Memory.copy m ~dst:d ~src:s n; 0),
                  observe (fun () -> Page_model.copy r ~dst:d ~src:s n; 0) )
            | Fl (d, b, n) ->
                ( observe (fun () -> Memory.fill m ~dst:d ~byte:b n; 0),
                  observe (fun () -> Page_model.fill r ~dst:d ~byte:b n; 0) )
          in
          got = want && Memory.page_count m = r.Page_model.count)
        ops)

(* ------------------------------------------------------------------ *)
(* Standard allocator                                                  *)
(* ------------------------------------------------------------------ *)

let test_std_alloc_distinct () =
  let st = State.create () in
  let a = State.std_malloc st 100 and b = State.std_malloc st 100 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "no overlap" true (abs (a - b) >= 100)

let test_std_alloc_reuse_after_free () =
  let st = State.create () in
  let a = State.std_malloc st 64 in
  State.std_free st a;
  let b = State.std_malloc st 64 in
  Alcotest.(check int) "reuses freed block" a b

let test_std_free_unknown () =
  let st = State.create () in
  Alcotest.check_raises "free of garbage traps"
    (State.Trap (Printf.sprintf "free of non-allocated %#x" 12345678))
    (fun () -> State.std_free st 12345678)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let run_src ?(fuel = 50_000_000) src =
  let m = Parser.parse_module src in
  Mi_analysis.Domcheck.assert_valid m;
  let st = State.create ~fuel () in
  Builtins.install st;
  let img = Interp.load st [ m ] in
  Interp.run st img

let check_exit src expected_code expected_out =
  let r = run_src src in
  (match r.Interp.outcome with
  | Interp.Exited n -> Alcotest.(check int) "exit code" expected_code n
  | Interp.Trapped m -> Alcotest.fail ("trap: " ^ m)
  | Interp.Safety_violation _ -> Alcotest.fail "unexpected violation"
  | Interp.Exhausted budget ->
      Alcotest.fail (Printf.sprintf "fuel budget of %d exhausted" budget));
  Alcotest.(check string) "output" expected_out r.Interp.output

let test_interp_recursion () =
  check_exit
    {|
module "fib"
func @fib(%n.0 : i64) -> i64 {
entry:
  %c.1 = icmp slt i64 %n.0, 2:i64
  cbr %c.1, base, rec
base:
  ret %n.0
rec:
  %a.2 = sub i64 %n.0, 1:i64
  %b.3 = call @fib(%a.2) : i64
  %d.4 = sub i64 %n.0, 2:i64
  %e.5 = call @fib(%d.4) : i64
  %f.6 = add i64 %b.3, %e.5
  ret %f.6
}
func @main() -> i64 {
entry:
  %r.0 = call @fib(15:i64) : i64
  call @print_int(%r.0)
  ret 0:i64
}
|}
    0 "610"

(* the classic phi-swap requires parallel-copy semantics *)
let test_interp_phi_parallel_copy () =
  check_exit
    {|
module "swap"
func @main() -> i64 {
entry:
  br loop
loop:
  %a.1 = phi i64 [entry 1:i64] [loop %b.2]
  %b.2 = phi i64 [entry 2:i64] [loop %a.1]
  %i.3 = phi i64 [entry 0:i64] [loop %i2.4]
  %i2.4 = add i64 %i.3, 1:i64
  %c.5 = icmp slt i64 %i2.4, 5:i64
  cbr %c.5, loop, done
done:
  call @print_int(%a.1)
  call @print_int(%b.2)
  ret 0:i64
}
|}
    (* four back-edge swaps return to (1,2); a sequential (buggy) copy
       would collapse both phis to the same value *)
    0 "12"

let test_interp_fuel () =
  let r =
    run_src ~fuel:1000
      {|
module "inf"
func @main() -> i64 {
entry:
  br loop
loop:
  br loop
}
|}
  in
  match r.Interp.outcome with
  | Interp.Exhausted budget ->
      Alcotest.(check int) "exhausted at the budget" 1000 budget
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_interp_div_by_zero () =
  let r =
    run_src
      {|
module "div"
func @main() -> i64 {
entry:
  %z.0 = add i64 0:i64, 0:i64
  %x.1 = sdiv i64 10:i64, %z.0
  ret %x.1
}
|}
  in
  match r.Interp.outcome with
  | Interp.Trapped "integer division by zero" -> ()
  | o ->
      Alcotest.fail
        (match o with
        | Interp.Exited n -> "exited " ^ string_of_int n
        | _ -> "wrong trap")

let test_interp_stack_overflow () =
  let r =
    run_src
      {|
module "so"
func @rec(%n.0 : i64) -> i64 {
entry:
  %buf.1 = alloca 8192 align 8
  store i64 %n.0, %buf.1
  %m.2 = add i64 %n.0, 1:i64
  %r.3 = call @rec(%m.2) : i64
  ret %r.3
}
func @main() -> i64 {
entry:
  %r.0 = call @rec(0:i64) : i64
  ret %r.0
}
|}
  in
  match r.Interp.outcome with
  | Interp.Trapped "stack overflow" -> ()
  | _ -> Alcotest.fail "expected stack overflow"

let test_interp_globals_and_linking () =
  let unit_a =
    Parser.parse_module
      {|
module "a"
extern global @shared : 16 align 8
extern func @get() -> i64
func @main() -> i64 {
entry:
  %v.0 = call @get() : i64
  %p.1 = gep @shared [1 x 8:i64]
  %w.2 = load i64 %p.1
  %s.3 = add i64 %v.0, %w.2
  call @print_int(%s.3)
  ret 0:i64
}
|}
  in
  let unit_b =
    Parser.parse_module
      {|
module "b"
global @shared : 16 align 8 {
  bytes "\x2a\x00\x00\x00\x00\x00\x00\x00"
  bytes "\x09\x00\x00\x00\x00\x00\x00\x00"
}
func @get() -> i64 {
entry:
  %v.0 = load i64 @shared
  ret %v.0
}
|}
  in
  let st = State.create () in
  Builtins.install st;
  let img = Interp.load st [ unit_a; unit_b ] in
  let r = Interp.run st img in
  (match r.Interp.outcome with
  | Interp.Exited 0 -> ()
  | _ -> Alcotest.fail "run failed");
  Alcotest.(check string) "42 + 9" "51" r.Interp.output

let test_interp_duplicate_symbol () =
  let u = {|
module "x"
func @f() -> void {
entry:
  ret
}
|} in
  let m1 = Parser.parse_module u and m2 = Parser.parse_module u in
  Alcotest.check_raises "duplicate definition"
    (Interp.Link_error "duplicate definition of function f") (fun () ->
      ignore (Interp.link [ m1; m2 ]))

let test_interp_cycles_monotonic () =
  let src =
    {|
module "c"
func @main() -> i64 {
entry:
  %x.0 = mul i64 3:i64, 4:i64
  ret %x.0
}
|}
  in
  let r = run_src src in
  Alcotest.(check bool) "counts cycles" true (r.Interp.cycles > 0);
  Alcotest.(check bool) "counts steps" true (r.Interp.steps > 0)

let test_gep_negative_stride () =
  check_exit
    {|
module "g"
func @main() -> i64 {
entry:
  %b.0 = alloca 32 align 8
  %p.1 = gep %b.0 [8 x 3:i64]
  store i64 77:i64, %b.0
  %q.2 = gep %p.1 [-8 x 3:i64]
  %v.3 = load i64 %q.2
  call @print_int(%v.3)
  ret 0:i64
}
|}
    0 "77"

let () =
  Alcotest.run "vm"
    [
      ( "memory",
        [
          Alcotest.test_case "widths" `Quick test_mem_roundtrip_widths;
          Alcotest.test_case "little endian" `Quick test_mem_little_endian;
          Alcotest.test_case "page straddle" `Quick test_mem_page_straddle;
          Alcotest.test_case "f64 page straddle" `Quick test_mem_f64_page_straddle;
          Alcotest.test_case "null guard" `Quick test_mem_null_guard;
          Alcotest.test_case "copy overlap" `Quick test_mem_copy_overlap;
          Alcotest.test_case "cstring" `Quick test_mem_cstring;
          Alcotest.test_case "cross-page widths" `Quick
            test_mem_cross_page_widths;
          Alcotest.test_case "cross-page i64_full" `Quick
            test_mem_cross_page_i64_full;
          Alcotest.test_case "cross-page copy overlap" `Quick
            test_mem_copy_cross_page_overlap;
          QCheck_alcotest.to_alcotest prop_mem_copy_matches_reference;
          Alcotest.test_case "cross-page fill" `Quick test_mem_fill_cross_page;
          Alcotest.test_case "straddling store sign byte" `Quick
            test_mem_store_sign_byte;
          Alcotest.test_case "backward copy fault address" `Quick
            test_mem_backward_copy_fault_addr;
          Alcotest.test_case "straddling load fault address" `Quick
            test_mem_straddling_load_fault_addr;
          QCheck_alcotest.to_alcotest prop_mem_f64_roundtrip;
          QCheck_alcotest.to_alcotest prop_page_cache_matches_model;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "distinct blocks" `Quick test_std_alloc_distinct;
          Alcotest.test_case "reuse after free" `Quick test_std_alloc_reuse_after_free;
          Alcotest.test_case "free of garbage" `Quick test_std_free_unknown;
        ] );
      ( "interp",
        [
          Alcotest.test_case "recursion" `Quick test_interp_recursion;
          Alcotest.test_case "phi parallel copy" `Quick test_interp_phi_parallel_copy;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "division by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "stack overflow" `Quick test_interp_stack_overflow;
          Alcotest.test_case "linking two units" `Quick test_interp_globals_and_linking;
          Alcotest.test_case "duplicate symbols" `Quick test_interp_duplicate_symbol;
          Alcotest.test_case "cycle accounting" `Quick test_interp_cycles_monotonic;
          Alcotest.test_case "negative gep stride" `Quick test_gep_negative_stride;
        ] );
    ]
