(* Tests for the MiniC frontend: lexer, parser, struct layout, and
   end-to-end lowering correctness against expected program outputs. *)

module C = Mi_minic.Ctypes
module Lexer = Mi_minic.Lexer

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tok_strings src =
  List.filter_map
    (fun (l : Lexer.lexed) ->
      match l.tok with
      | Lexer.Tint v -> Some ("i:" ^ string_of_int v)
      | Lexer.Tfloat f -> Some ("f:" ^ string_of_float f)
      | Lexer.Tstr s -> Some ("s:" ^ s)
      | Lexer.Tident s -> Some ("id:" ^ s)
      | Lexer.Tkw s -> Some ("kw:" ^ s)
      | Lexer.Tpunct s -> Some ("p:" ^ s)
      | Lexer.Teof -> None)
    (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check (list string)) "tokens"
    [ "kw:int"; "id:x"; "p:="; "i:42"; "p:;" ]
    (tok_strings "int x = 42;")

let test_lexer_literals () =
  Alcotest.(check (list string)) "hex, char, float, string"
    [ "i:255"; "i:97"; "f:1.5"; "s:a\nb" ]
    (tok_strings {|0xff 'a' 1.5 "a\nb"|})

let test_lexer_operators () =
  Alcotest.(check (list string)) "multi-char ops use longest match"
    [ "p:<<="; "p:->"; "p:++"; "p:<="; "p:<<" ]
    (tok_strings "<<= -> ++ <= <<")

let test_lexer_comments () =
  Alcotest.(check (list string)) "comments skipped" [ "i:1"; "i:2" ]
    (tok_strings "1 /* comment \n more */ 2 // trailing")

let test_lexer_positions () =
  Alcotest.(check (list (pair int int))) "line:col of every token"
    [ (1, 1); (2, 3); (2, 4); (3, 5); (3, 11); (5, 3); (5, 4); (5, 7); (5, 8) ]
    (List.map
       (fun (l : Lexer.lexed) -> (l.tpos.line, l.tpos.col))
       (Lexer.tokenize "a\n\t b+/* x\n */ \"s\\n\" 'c'\n\n\r x>>=1"))

(* malformed or out-of-range numeric literals are lexical errors at the
   literal, which the compiler reports as compile errors *)
let test_lexer_literal_errors () =
  List.iter
    (fun (src, col, msg) ->
      (match Lexer.tokenize src with
      | exception Lexer.Lex_error (p, m) ->
          Alcotest.(check (pair int int)) (src ^ ": position") (1, col)
            (p.line, p.col);
          Alcotest.(check string) (src ^ ": message") msg m
      | _ -> Alcotest.failf "%s: lexed" src);
      match Mi_minic.Lower.compile src with
      | exception Mi_minic.Lower.Compile_error m ->
          Alcotest.(check string) (src ^ ": compile error")
            (Printf.sprintf "lex error at 1:%d: %s" col msg)
            m
      | _ -> Alcotest.failf "%s: compiled" src)
    [
      ( "long x = 99999999999999999999;", 10,
        "integer literal out of range 99999999999999999999" );
      ("double x = 1e;", 12, "malformed floating literal 1e");
      ("long x = 0x;", 10, "hex literal without digits");
    ]

(* ------------------------------------------------------------------ *)
(* Struct layout                                                       *)
(* ------------------------------------------------------------------ *)

let test_struct_layout_padding () =
  let reg = C.create_registry () in
  let s =
    C.define_struct reg "mix" [ ("c", C.Cchar); ("l", C.Clong); ("s", C.Cshort) ]
  in
  let off name = (C.find_field reg "mix" name).C.fld_off in
  Alcotest.(check int) "char at 0" 0 (off "c");
  Alcotest.(check int) "long aligned to 8" 8 (off "l");
  Alcotest.(check int) "short at 16" 16 (off "s");
  Alcotest.(check int) "size rounded to align" 24 s.C.s_size;
  Alcotest.(check int) "align is 8" 8 s.C.s_align

let test_struct_nested () =
  let reg = C.create_registry () in
  ignore (C.define_struct reg "inner" [ ("a", C.Cint); ("b", C.Cint) ]);
  let s =
    C.define_struct reg "outer"
      [ ("x", C.Cchar); ("in", C.Cstruct "inner"); ("tail", C.Carr (C.Cshort, Some 3)) ]
  in
  Alcotest.(check int) "inner after char, aligned 4" 4
    (C.find_field reg "outer" "in").C.fld_off;
  Alcotest.(check int) "array after inner" 12
    (C.find_field reg "outer" "tail").C.fld_off;
  Alcotest.(check int) "outer size" 20 s.C.s_size

let test_array_sizes () =
  let reg = C.create_registry () in
  Alcotest.(check int) "int[10]" 40 (C.size_of reg (C.Carr (C.Cint, Some 10)));
  Alcotest.(check int) "int[3][4]" 48
    (C.size_of reg (C.Carr (C.Carr (C.Cint, Some 4), Some 3)))

(* ------------------------------------------------------------------ *)
(* End-to-end program outputs                                          *)
(* ------------------------------------------------------------------ *)

let run ?(level = Mi_passes.Pipeline.O0) src =
  let m = Mi_minic.Lower.compile src in
  Mi_passes.Pipeline.run ~level m;
  Mi_analysis.Domcheck.assert_valid m;
  let st = Mi_vm.State.create () in
  Mi_vm.Builtins.install st;
  let img = Mi_vm.Interp.load st [ m ] in
  Mi_vm.Interp.run st img

let check_output ?level name src expected =
  let r = run ?level src in
  (match r.Mi_vm.Interp.outcome with
  | Mi_vm.Interp.Exited _ -> ()
  | Mi_vm.Interp.Trapped m -> Alcotest.fail (name ^ ": trap " ^ m)
  | _ -> Alcotest.fail (name ^ ": violation"));
  Alcotest.(check string) name expected r.Mi_vm.Interp.output

(* programs are checked at O0 and O3: lowering and optimizations must
   agree *)
let check_both name src expected =
  check_output ~level:Mi_passes.Pipeline.O0 (name ^ " @O0") src expected;
  check_output ~level:Mi_passes.Pipeline.O3 (name ^ " @O3") src expected

let test_arith () =
  check_both "arith"
    {|
int main(void) {
  int a = 7, b = 3;
  print_int(a + b * 2);      putchar(32);
  print_int(a / b);          putchar(32);
  print_int(a % b);          putchar(32);
  print_int(-a);             putchar(32);
  print_int(a << 2);         putchar(32);
  print_int((a ^ b) & 5);    putchar(32);
  print_int(~0);
  return 0;
}
|}
    "13 2 1 -7 28 4 -1"

let test_char_overflow_semantics () =
  check_both "char wraps"
    {|
int main(void) {
  char c = 127;
  c = c + 1;
  print_int(c);
  return 0;
}
|}
    "-128"

let test_comparisons_and_logic () =
  check_both "logic"
    {|
int side_effects = 0;
int bump(int r) { side_effects = side_effects + 1; return r; }
int main(void) {
  print_int(3 < 4);  print_int(4 <= 3);  print_int(5 == 5);
  /* short circuit: bump must run exactly once */
  if (bump(0) && bump(1)) putchar(88);
  print_int(side_effects);
  if (bump(1) || bump(1)) putchar(89);
  print_int(side_effects);
  return 0;
}
|}
    "1011Y2"

let test_loops () =
  check_both "loops"
    {|
int main(void) {
  long s = 0;
  long i;
  for (i = 0; i < 10; i++) {
    if (i == 3) continue;
    if (i == 8) break;
    s += i;
  }
  print_int(s);
  putchar(32);
  long j = 0;
  while (j < 5) j++;
  print_int(j);
  putchar(32);
  long k = 10;
  do { k--; } while (k > 7);
  print_int(k);
  return 0;
}
|}
    "25 5 7"

let test_pointers_and_arrays () =
  check_both "pointers"
    {|
int main(void) {
  long arr[8];
  long i;
  for (i = 0; i < 8; i++) arr[i] = i * i;
  long *p = arr + 3;
  print_int(*p);        putchar(32);
  print_int(p[2]);      putchar(32);
  print_int(*(p - 1));  putchar(32);
  print_int((long)(p - arr)); putchar(32);
  long **pp = &p;
  print_int(**pp);
  return 0;
}
|}
    "9 25 4 3 9"

let test_structs () =
  check_both "structs"
    {|
struct point { long x; long y; };
struct rect { struct point lo; struct point hi; };

long area(struct rect *r) {
  return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
}

int main(void) {
  struct rect r;
  r.lo.x = 1; r.lo.y = 2;
  r.hi.x = 5; r.hi.y = 7;
  print_int(area(&r));
  putchar(32);
  struct rect copy;
  copy = r;            /* struct assignment via memcpy */
  copy.hi.x = 11;
  print_int(area(&copy));
  putchar(32);
  print_int(area(&r)); /* original unchanged */
  return 0;
}
|}
    "20 50 20"

let test_strings_and_globals () =
  check_both "globals"
    {|
char greeting[] = "hey";
int counts[5] = {10, 20, 30};
long total = 100;
struct pair { int a; int b; };
struct pair gp = {3, 4};
char *msg = "ptr-init";

int main(void) {
  print_str(greeting); putchar(32);
  print_int(counts[0] + counts[1] + counts[2] + counts[3]); putchar(32);
  print_int(total); putchar(32);
  print_int(gp.a * gp.b); putchar(32);
  print_str(msg); putchar(32);
  print_int((long)sizeof(greeting));
  return 0;
}
|}
    "hey 60 100 12 ptr-init 4"

let test_ternary_incdec () =
  check_both "ternary and inc/dec"
    {|
int main(void) {
  int x = 5;
  int y = x > 3 ? 10 : 20;
  print_int(y); putchar(32);
  print_int(x++); putchar(32);
  print_int(x);   putchar(32);
  print_int(--x); putchar(32);
  int arr[3] = {1, 2, 3};
  int *p = arr;
  print_int(*p++); putchar(32);
  print_int(*p);
  return 0;
}
|}
    "10 5 6 5 1 2"

let test_doubles () =
  check_both "doubles"
    {|
int main(void) {
  double a = 1.5;
  double b = a * 4.0 + 0.25;
  print_f64(b); putchar(32);
  print_int((int)b); putchar(32);
  double c = (double)7 / 2.0;
  print_f64(c); putchar(32);
  print_int(b > c);
  return 0;
}
|}
    "6.25 6 3.5 1"

let test_recursion_and_calls () =
  check_both "recursion"
    {|
long gcd(long a, long b) {
  if (b == 0) return a;
  return gcd(b, a % b);
}
long tri(long n) { return n <= 0 ? 0 : n + tri(n - 1); }
int main(void) {
  print_int(gcd(252, 105)); putchar(32);
  print_int(tri(10));
  return 0;
}
|}
    "21 55"

let test_libc_builtins () =
  check_both "libc"
    {|
int main(void) {
  char buf[32];
  strcpy(buf, "abc");
  strcat(buf, "def");
  print_int(strlen(buf)); putchar(32);
  print_int(strcmp(buf, "abcdef") == 0); putchar(32);
  char *found = strchr(buf, 'd');
  print_str(found); putchar(32);
  long *nums = (long *)calloc(4, sizeof(long));
  print_int(nums[3]); putchar(32);
  nums[0] = 5;
  nums = (long *)realloc(nums, 8 * sizeof(long));
  print_int(nums[0]); putchar(32);
  memset(buf, 'z', 3);
  buf[3] = 0;
  print_str(buf); putchar(32);
  print_int(abs(-9));
  free(nums);
  return 0;
}
|}
    "6 1 def 0 5 zzz 9"

let test_scoping_and_shadowing () =
  check_both "shadowing"
    {|
int x = 1;
int main(void) {
  print_int(x);
  int x = 2;
  print_int(x);
  {
    int x = 3;
    print_int(x);
  }
  print_int(x);
  return 0;
}
|}
    "1232"

let test_multidim_arrays () =
  check_both "multi-dim arrays"
    {|
int grid[3][4];
int main(void) {
  long i, j;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 4; j++) grid[i][j] = (int)(i * 4 + j);
  }
  print_int(grid[2][3]); putchar(32);
  print_int(grid[1][0]);
  return 0;
}
|}
    "11 4"

let test_sizeof_expr () =
  check_both "sizeof"
    {|
struct wide { long a; long b; long c; };
int main(void) {
  struct wide w;
  w.a = 1;
  print_int((long)sizeof(struct wide)); putchar(32);
  print_int((long)sizeof(w)); putchar(32);
  print_int((long)sizeof(long *)); putchar(32);
  print_int((long)sizeof(int));
  return 0;
}
|}
    "24 24 8 4"

let test_compile_errors () =
  let expect_error src =
    match Mi_minic.Lower.compile src with
    | exception Mi_minic.Lower.Compile_error _ -> ()
    | _ -> Alcotest.fail "expected compile error"
  in
  expect_error "int main(void) { return undeclared_var; }";
  expect_error "int main(void) { unknown_fn(); return 0; }";
  expect_error "int main(void) { int x = 1 return x; }";
  expect_error "struct s { int a; }; int main(void) { struct s v; return v.b; }";
  expect_error "int main(void) { break; return 0; }"

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "literals" `Quick test_lexer_literals;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "literal errors are typed" `Quick
            test_lexer_literal_errors;
        ] );
      ( "layout",
        [
          Alcotest.test_case "padding" `Quick test_struct_layout_padding;
          Alcotest.test_case "nested" `Quick test_struct_nested;
          Alcotest.test_case "arrays" `Quick test_array_sizes;
        ] );
      ( "programs",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "char wrap" `Quick test_char_overflow_semantics;
          Alcotest.test_case "logic" `Quick test_comparisons_and_logic;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "pointers" `Quick test_pointers_and_arrays;
          Alcotest.test_case "structs" `Quick test_structs;
          Alcotest.test_case "globals" `Quick test_strings_and_globals;
          Alcotest.test_case "ternary inc/dec" `Quick test_ternary_incdec;
          Alcotest.test_case "doubles" `Quick test_doubles;
          Alcotest.test_case "recursion" `Quick test_recursion_and_calls;
          Alcotest.test_case "libc builtins" `Quick test_libc_builtins;
          Alcotest.test_case "shadowing" `Quick test_scoping_and_shadowing;
          Alcotest.test_case "multi-dim arrays" `Quick test_multidim_arrays;
          Alcotest.test_case "sizeof" `Quick test_sizeof_expr;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
        ] );
    ]
