(* Tests for the optimization passes: per-pass transformation checks plus
   semantic preservation across the pipeline (including under
   instrumentation) on a corpus of MiniC programs. *)

open Mi_mir
module P = Mi_passes

(* count instructions satisfying a predicate over the whole module *)
let count_instrs (m : Irmod.t) pred =
  List.fold_left
    (fun acc (f : Func.t) ->
      List.fold_left
        (fun acc (b : Block.t) ->
          acc + List.length (List.filter pred b.Block.body))
        acc f.blocks)
    0 (Irmod.defined_funcs m)

let has_call name (i : Instr.t) =
  match i.op with Instr.Call (c, _) -> String.equal c name | _ -> false

let is_alloca (i : Instr.t) =
  match i.op with Instr.Alloca _ -> true | _ -> false

let is_load (i : Instr.t) =
  match i.op with Instr.Load _ -> true | _ -> false

let parse src =
  let m = Parser.parse_module src in
  Mi_analysis.Domcheck.assert_valid m;
  m

(* ------------------------------------------------------------------ *)
(* mem2reg                                                             *)
(* ------------------------------------------------------------------ *)

let test_mem2reg_promotes_scalar () =
  let m =
    parse
      {|
module "t"
func @f(%c.0 : i1) -> i64 {
entry:
  %x.1 = alloca 8 align 8
  store i64 1:i64, %x.1
  cbr %c.0, a, b
a:
  store i64 2:i64, %x.1
  br join
b:
  store i64 3:i64, %x.1
  br join
join:
  %v.2 = load i64 %x.1
  ret %v.2
}
|}
  in
  let changed = P.Mem2reg.run_func (Irmod.find_func_exn m "f") in
  Alcotest.(check bool) "changed" true changed;
  Mi_analysis.Domcheck.assert_valid m;
  Alcotest.(check int) "alloca gone" 0 (count_instrs m is_alloca);
  Alcotest.(check int) "loads gone" 0 (count_instrs m is_load);
  (* a phi must have appeared at the join *)
  let f = Irmod.find_func_exn m "f" in
  let join = Func.find_block_exn f "join" in
  Alcotest.(check int) "join has a phi" 1 (List.length join.Block.phis)

let test_mem2reg_keeps_escaped () =
  let m =
    parse
      {|
module "t"
func @f() -> i64 {
entry:
  %x.1 = alloca 8 align 8
  store i64 1:i64, %x.1
  call @escape(%x.1)
  %v.2 = load i64 %x.1
  ret %v.2
}
extern func @escape(%p.0 : ptr) -> void
|}
  in
  ignore (P.Mem2reg.run_func (Irmod.find_func_exn m "f"));
  Alcotest.(check int) "alloca kept (address escapes)" 1
    (count_instrs m is_alloca)

let test_mem2reg_keeps_checked_alloca () =
  (* an alloca whose address feeds a check call must not be promoted —
     the ModuleOptimizerEarly effect of Figures 12/13 *)
  let m =
    parse
      {|
module "t"
func @f() -> i64 {
entry:
  %x.1 = alloca 8 align 8
  call @__mi_lf_check(%x.1, 8:i64, %x.1)
  store i64 1:i64, %x.1
  %v.2 = load i64 %x.1
  ret %v.2
}
|}
  in
  ignore (P.Mem2reg.run_func (Irmod.find_func_exn m "f"));
  Alcotest.(check int) "alloca kept (check pins it)" 1
    (count_instrs m is_alloca)

(* ------------------------------------------------------------------ *)
(* DCE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dce_removes_unused_pure () =
  let m =
    parse
      {|
module "t"
func @f() -> i64 {
entry:
  %dead.1 = add i64 1:i64, 2:i64
  %alive.2 = add i64 3:i64, 4:i64
  ret %alive.2
}
|}
  in
  ignore (P.Dce.run_func (Irmod.find_func_exn m "f"));
  Alcotest.(check int) "one instruction left" 1 (Func.instr_count (Irmod.find_func_exn m "f"))

let test_dce_removes_unused_metadata_load () =
  (* the §5.4 phenomenon: unused trie loads are deleted *)
  let m =
    parse
      {|
module "t"
func @f(%p.0 : ptr) -> void {
entry:
  %b.1 = call @__mi_sb_trie_load_base(%p.0) : ptr
  %e.2 = call @__mi_sb_trie_load_bound(%p.0) : ptr
  ret
}
|}
  in
  ignore (P.Dce.run_func (Irmod.find_func_exn m "f"));
  Alcotest.(check int) "trie loads deleted" 0
    (Func.instr_count (Irmod.find_func_exn m "f"))

let test_dce_keeps_checks () =
  let m =
    parse
      {|
module "t"
func @f(%p.0 : ptr) -> void {
entry:
  call @__mi_sb_check(%p.0, 8:i64, %p.0, %p.0)
  call @__mi_sb_trie_store(%p.0, %p.0, %p.0)
  ret
}
|}
  in
  ignore (P.Dce.run_func (Irmod.find_func_exn m "f"));
  Alcotest.(check int) "checks and stores kept" 2
    (Func.instr_count (Irmod.find_func_exn m "f"))

(* ------------------------------------------------------------------ *)
(* Instcombine                                                         *)
(* ------------------------------------------------------------------ *)

let test_instcombine_folds () =
  let m =
    parse
      {|
module "t"
func @f(%x.0 : i64) -> i64 {
entry:
  %a.1 = add i64 2:i64, 3:i64
  %b.2 = add i64 %x.0, 0:i64
  %c.3 = mul i64 %b.2, 8:i64
  %d.4 = add i64 %a.1, %c.3
  ret %d.4
}
|}
  in
  let f = Irmod.find_func_exn m "f" in
  ignore (P.Instcombine.run_func f);
  ignore (P.Dce.run_func f);
  Mi_analysis.Domcheck.assert_valid m;
  (* 2+3 folded away; x+0 folded; mul by 8 became shl *)
  let has_shl =
    count_instrs m (fun i ->
        match i.op with Instr.Bin (Instr.Shl, _, _, _) -> true | _ -> false)
  in
  Alcotest.(check int) "mul by pow2 strength-reduced" 1 has_shl;
  Alcotest.(check int) "only shl and final add left" 2 (Func.instr_count f)

let test_instcombine_gep_zero_fold () =
  (* the appendix-B effect: a zero-offset gep folds to its base *)
  let m =
    parse
      {|
module "t"
func @f(%p.0 : ptr) -> i64 {
entry:
  %q.1 = gep %p.0 [4 x 0:i64]
  %v.2 = load i64 %q.1
  ret %v.2
}
|}
  in
  let f = Irmod.find_func_exn m "f" in
  ignore (P.Instcombine.run_func f);
  ignore (P.Dce.run_func f);
  Alcotest.(check int) "gep folded away" 1 (Func.instr_count f)

(* ------------------------------------------------------------------ *)
(* GVN                                                                 *)
(* ------------------------------------------------------------------ *)

let test_gvn_cse () =
  let m =
    parse
      {|
module "t"
func @f(%x.0 : i64, %p.1 : ptr) -> i64 {
entry:
  %a.2 = add i64 %x.0, 7:i64
  %b.3 = add i64 %x.0, 7:i64
  %g1.4 = gep %p.1 [8 x %x.0]
  %g2.5 = gep %p.1 [8 x %x.0]
  %l1.6 = call @__mi_lf_base(%g1.4) : ptr
  %l2.7 = call @__mi_lf_base(%g2.5) : ptr
  %i1.8 = ptrtoint ptr %l1.6 to i64
  %i2.9 = ptrtoint ptr %l2.7 to i64
  %s.10 = add i64 %a.2, %b.3
  %t.11 = add i64 %i1.8, %i2.9
  %r.12 = add i64 %s.10, %t.11
  ret %r.12
}
|}
  in
  let f = Irmod.find_func_exn m "f" in
  ignore (P.Gvn.run_func f);
  ignore (P.Dce.run_func f);
  Mi_analysis.Domcheck.assert_valid m;
  (* duplicates of add/gep/lf_base merged: 1 add + 1 gep + 1 lf_base +
     1 ptrtoint + 3 final adds = 7 *)
  Alcotest.(check int) "duplicates merged" 7 (Func.instr_count f)

let test_gvn_commutative () =
  let m =
    parse
      {|
module "t"
func @f(%x.0 : i64, %y.1 : i64) -> i64 {
entry:
  %a.2 = add i64 %x.0, %y.1
  %b.3 = add i64 %y.1, %x.0
  %s.4 = add i64 %a.2, %b.3
  ret %s.4
}
|}
  in
  let f = Irmod.find_func_exn m "f" in
  ignore (P.Gvn.run_func f);
  ignore (P.Dce.run_func f);
  Alcotest.(check int) "x+y == y+x" 2 (Func.instr_count f)

let test_gvn_does_not_merge_trie_loads_across_store () =
  let m =
    parse
      {|
module "t"
func @f(%p.0 : ptr) -> i64 {
entry:
  %b1.1 = call @__mi_sb_trie_load_base(%p.0) : ptr
  call @__mi_sb_trie_store(%p.0, %p.0, %p.0)
  %b2.2 = call @__mi_sb_trie_load_base(%p.0) : ptr
  %i1.3 = ptrtoint ptr %b1.1 to i64
  %i2.4 = ptrtoint ptr %b2.2 to i64
  %s.5 = add i64 %i1.3, %i2.4
  ret %s.5
}
|}
  in
  let f = Irmod.find_func_exn m "f" in
  ignore (P.Gvn.run_func f);
  ignore (P.Dce.run_func f);
  Alcotest.(check int) "both trie loads survive" 6 (Func.instr_count f)

(* ------------------------------------------------------------------ *)
(* LICM                                                                *)
(* ------------------------------------------------------------------ *)

let licm_module checks_in_loop =
  Printf.sprintf
    {|
module "t"
global @g : 8 align 8 {
  zero 8
}
func @f(%%n.0 : i64, %%p.1 : ptr) -> i64 {
entry:
  br ph
ph:
  br loop
loop:
  %%i.2 = phi i64 [ph 0:i64] [loop %%i2.6]
  %%inv.3 = load i64 @g
  %%x.4 = mul i64 %%inv.3, 3:i64
  %%a.5 = gep %%p.1 [8 x %%i.2]
  %s
  store i64 %%x.4, %%a.5
  %%i2.6 = add i64 %%i.2, 1:i64
  %%c.7 = icmp slt i64 %%i2.6, %%n.0
  cbr %%c.7, loop, done
done:
  ret %%x.4
}
|}
    (if checks_in_loop then
       "call @__mi_lf_check(%a.5, 8:i64, %p.1)"
     else "%unused.9 = add i64 0:i64, 0:i64")

let loop_body_size (m : Irmod.t) =
  let f = Irmod.find_func_exn m "f" in
  List.length (Func.find_block_exn f "loop").Block.body

let test_licm_hoists_without_checks () =
  let m = parse (licm_module false) in
  let before = loop_body_size m in
  ignore (P.Licm.run_func (Irmod.find_func_exn m "f"));
  Mi_analysis.Domcheck.assert_valid m;
  (* the i64 store does not clobber the i64 load of @g?  It does (same
     type may alias) — but the load of @g is a constant global address
     and the loop stores i64: same type, so TBAA pins it.  The mul of a
     hoistable value stays too; but the icmp/add stay.  At minimum the
     loop must not grow. *)
  Alcotest.(check bool) "loop did not grow" true (loop_body_size m <= before)

let test_licm_checks_pin_loads () =
  (* with a may-abort check in the loop, an invariant load through a
     pointer (not speculatable, unlike loads from globals) cannot move:
     compare the hoisted count in a float-store loop *)
  let mk with_check =
    parse
      (Printf.sprintf
         {|
module "t"
func @f(%%n.0 : i64, %%p.1 : ptr, %%q.2 : ptr) -> i64 {
entry:
  br ph
ph:
  br loop
loop:
  %%i.3 = phi i64 [ph 0:i64] [loop %%i2.6]
  %%inv.4 = load i64 %%q.2
  %%a.5 = gep %%p.1 [8 x %%i.3]
  %s
  store f64 fl(0x1p+0), %%a.5
  %%i2.6 = add i64 %%i.3, 1:i64
  %%c.7 = icmp slt i64 %%i2.6, %%n.0
  cbr %%c.7, loop, done
done:
  ret %%inv.4
}
|}
         (if with_check then "call @__mi_lf_check(%a.5, 8:i64, %p.1)"
          else "%nop.9 = add i64 0:i64, 0:i64"))
  in
  let m_plain = mk false in
  ignore (P.Licm.run_func (Irmod.find_func_exn m_plain "f"));
  let m_check = mk true in
  ignore (P.Licm.run_func (Irmod.find_func_exn m_check "f"));
  let load_in_loop m =
    let f = Irmod.find_func_exn m "f" in
    List.exists is_load (Func.find_block_exn f "loop").Block.body
  in
  Alcotest.(check bool) "without checks the load hoists" false
    (load_in_loop m_plain);
  Alcotest.(check bool) "the check pins the load (§5.5)" true
    (load_in_loop m_check)

(* loads from globals and metadata loads are speculatable/plain loads:
   they hoist even past checks, as LLVM would *)
let test_licm_speculates_global_and_meta () =
  let m =
    parse
      {|
module "t"
global @g : 8 align 8 {
  zero 8
}
func @f(%n.0 : i64, %p.1 : ptr) -> i64 {
entry:
  br ph
ph:
  br loop
loop:
  %i.2 = phi i64 [ph 0:i64] [loop %i2.7]
  %inv.3 = load i64 @g
  %mb.4 = call @__mi_sb_trie_load_base(%p.1) : ptr
  %a.5 = gep %p.1 [8 x %i.2]
  call @__mi_sb_check(%a.5, 8:i64, %mb.4, %mb.4)
  store f64 fl(0x1p+0), %a.5
  %i2.7 = add i64 %i.2, 1:i64
  %c.8 = icmp slt i64 %i2.7, %n.0
  cbr %c.8, loop, done
done:
  %x.9 = ptrtoint ptr %mb.4 to i64
  %r.10 = add i64 %inv.3, %x.9
  ret %r.10
}
|}
  in
  ignore (P.Licm.run_func (Irmod.find_func_exn m "f"));
  Mi_analysis.Domcheck.assert_valid m;
  let f = Irmod.find_func_exn m "f" in
  let loop = Func.find_block_exn f "loop" in
  Alcotest.(check bool) "global load hoisted" false
    (List.exists is_load loop.Block.body);
  Alcotest.(check bool) "trie load hoisted" false
    (List.exists (has_call "__mi_sb_trie_load_base") loop.Block.body);
  Alcotest.(check bool) "check stays in the loop" true
    (List.exists (has_call "__mi_sb_check") loop.Block.body)

(* ------------------------------------------------------------------ *)
(* Inline                                                              *)
(* ------------------------------------------------------------------ *)

let test_inline_simple () =
  let m =
    parse
      {|
module "t"
func @sq(%x.0 : i64) -> i64 {
entry:
  %r.1 = mul i64 %x.0, %x.0
  ret %r.1
}
func @main() -> i64 {
entry:
  %a.0 = call @sq(5:i64) : i64
  %b.1 = call @sq(%a.0) : i64
  ret %b.1
}
|}
  in
  ignore (P.Inline.run m);
  Mi_analysis.Domcheck.assert_valid m;
  Alcotest.(check int) "no calls left in main" 0
    (count_instrs m (has_call "sq"))

let test_inline_skips_recursive () =
  let m =
    parse
      {|
module "t"
func @r(%x.0 : i64) -> i64 {
entry:
  %c.1 = icmp sle i64 %x.0, 0:i64
  cbr %c.1, base, rec
base:
  ret 0:i64
rec:
  %y.2 = sub i64 %x.0, 1:i64
  %z.3 = call @r(%y.2) : i64
  ret %z.3
}
func @main() -> i64 {
entry:
  %a.0 = call @r(5:i64) : i64
  ret %a.0
}
|}
  in
  ignore (P.Inline.run m);
  Alcotest.(check bool) "recursive callee not inlined" true
    (count_instrs m (has_call "r") >= 1)

(* ------------------------------------------------------------------ *)
(* Simplifycfg                                                         *)
(* ------------------------------------------------------------------ *)

let test_simplifycfg_folds_constant_branch () =
  let m =
    parse
      {|
module "t"
func @f() -> i64 {
entry:
  cbr 1:i1, yes, no
yes:
  ret 1:i64
no:
  ret 0:i64
}
|}
  in
  ignore (P.Simplifycfg.run_func (Irmod.find_func_exn m "f"));
  Mi_analysis.Domcheck.assert_valid m;
  let f = Irmod.find_func_exn m "f" in
  Alcotest.(check int) "dead branch removed" 1 (List.length f.blocks)

let test_simplifycfg_merges_chain () =
  let m =
    parse
      {|
module "t"
func @f() -> i64 {
entry:
  %a.1 = add i64 1:i64, 2:i64
  br mid
mid:
  %b.2 = add i64 %a.1, 3:i64
  br last
last:
  ret %b.2
}
|}
  in
  ignore (P.Simplifycfg.run_func (Irmod.find_func_exn m "f"));
  Mi_analysis.Domcheck.assert_valid m;
  Alcotest.(check int) "merged into one block" 1
    (List.length (Irmod.find_func_exn m "f").blocks)

(* ------------------------------------------------------------------ *)
(* Self-loop phi regressions (found by differential fuzzing)           *)
(* ------------------------------------------------------------------ *)

let no_verify_errors what m =
  match Mi_mir.Verify.verify_module m with
  | [] -> ()
  | es ->
      Alcotest.failf "%s: %s" what
        (String.concat "; " (List.map Mi_mir.Verify.error_to_string es))

(* fuzz seed 16: inlining a call inside a do-while body splits the block,
   so the backedge into the loop-header phis now originates from the
   continuation block — including when the header is the split block
   itself (a self-loop).  The stale label corrupted the phi. *)
let test_inline_into_self_loop_renames_phi () =
  let m =
    parse
      {|
module "t"
func @inc(%x.0 : i64) -> i64 {
entry:
  %r.1 = add i64 %x.0, 1:i64
  ret %r.1
}
func @f() -> i64 {
entry:
  br loop
loop:
  %i.2 = phi i64 [entry 0:i64] [loop %i.4]
  %t.3 = call @inc(%i.2) : i64
  %i.4 = add i64 %i.2, %t.3
  %c.5 = icmp slt i64 %i.4, 10:i64
  cbr %c.5, loop, exit
exit:
  ret %i.4
}
|}
  in
  ignore (P.Inline.run m);
  no_verify_errors "after inline" m;
  Mi_analysis.Domcheck.assert_valid m;
  Alcotest.(check int) "call inlined" 0 (count_instrs m (has_call "inc"))

(* fuzz seeds 300065, 350185, 600045, 750274: the inliner's label uid
   restarted at 1 on every run of the pass, so the second [inline] of the
   -O3 fixpoint spliced in a second [inl1_entry]/[inl1_cont].  Branches to
   the duplicated label resolved to the first block: simplifycfg then
   found a phi with an incoming edge from the wrong block ("merge_blocks:
   phi arity mismatch"), or the program silently ran the wrong code.  The
   caller below already holds the labels an earlier run spliced in. *)
let test_inline_labels_fresh_across_runs () =
  let m =
    parse
      {|
module "t"
func @inc(%x.0 : i64) -> i64 {
entry:
  %r.1 = add i64 %x.0, 1:i64
  ret %r.1
}
func @f() -> i64 {
entry:
  br inl1_entry
inl1_entry:
  %a.1 = add i64 1:i64, 2:i64
  br inl1_cont
inl1_cont:
  %t.2 = call @inc(%a.1) : i64
  ret %t.2
}
|}
  in
  ignore (P.Inline.run m);
  no_verify_errors "after inline" m;
  Mi_analysis.Domcheck.assert_valid m;
  Alcotest.(check int) "call inlined" 0 (count_instrs m (has_call "inc"));
  Alcotest.(check int) "entry + 2 old + split/callee/cont" 5
    (List.length (Irmod.find_func_exn m "f").blocks)

(* fuzz seed 18: merging a straight-line chain back into a loop header
   whose terminator closes the loop left the header's phis naming the
   absorbed block; downstream passes then folded the exit edge away and
   the function span into an infinite loop at -O3. *)
let test_simplifycfg_merge_into_loop_header_renames_phi () =
  let m =
    parse
      {|
module "t"
func @f() -> i64 {
entry:
  br loop
loop:
  %i.1 = phi i64 [entry 0:i64] [tail %i.2]
  br tail
tail:
  %i.2 = add i64 %i.1, 1:i64
  %c.3 = icmp slt i64 %i.2, 10:i64
  cbr %c.3, loop, exit
exit:
  ret %i.2
}
|}
  in
  ignore (P.Simplifycfg.run_func (Irmod.find_func_exn m "f"));
  no_verify_errors "after simplifycfg" m;
  Mi_analysis.Domcheck.assert_valid m;
  let f = Irmod.find_func_exn m "f" in
  (* the chain merged: the loop is now a self-loop whose phis name the
     merged block itself *)
  Alcotest.(check int) "blocks after merge" 3 (List.length f.blocks);
  let loop_blk =
    List.find (fun (b : Block.t) -> b.Block.label = "loop") f.blocks
  in
  List.iter
    (fun (p : Instr.phi) ->
      List.iter
        (fun (l, _) ->
          if l <> "entry" && l <> "loop" then
            Alcotest.failf "stale phi incoming label %s" l)
        p.Instr.incoming)
    loop_blk.Block.phis

(* ------------------------------------------------------------------ *)
(* Semantic preservation over the whole pipeline                        *)
(* ------------------------------------------------------------------ *)

let programs : (string * string) list =
  [
    ( "quicksortish",
      {|
long arr[64];
void sort(long lo, long hi) {
  if (lo >= hi) return;
  long pivot = arr[(lo + hi) / 2];
  long i = lo, j = hi;
  while (i <= j) {
    while (arr[i] < pivot) i++;
    while (arr[j] > pivot) j--;
    if (i <= j) {
      long t = arr[i]; arr[i] = arr[j]; arr[j] = t;
      i++; j--;
    }
  }
  sort(lo, j);
  sort(i, hi);
}
int main(void) {
  long i;
  for (i = 0; i < 64; i++) arr[i] = (i * 37 + 11) % 100;
  sort(0, 63);
  long ok = 1;
  for (i = 1; i < 64; i++) { if (arr[i-1] > arr[i]) ok = 0; }
  print_int(ok); print_int(arr[0]); print_int(arr[63]);
  return 0;
}
|} );
    ( "linkedlist",
      {|
struct n { long v; struct n *nx; };
int main(void) {
  struct n *head = NULL;
  long i;
  for (i = 0; i < 20; i++) {
    struct n *e = (struct n *)malloc(sizeof(struct n));
    e->v = i; e->nx = head; head = e;
  }
  long s = 0;
  struct n *p = head;
  while (p) { s += p->v; p = p->nx; }
  print_int(s);
  while (head) { struct n *nx = head->nx; free(head); head = nx; }
  return 0;
}
|} );
    ( "matrix",
      {|
double a[8][8]; double b[8][8]; double c[8][8];
int main(void) {
  long i, j, k;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      a[i][j] = (double)((i + j) % 5);
      b[i][j] = (double)((i * j) % 7);
      c[i][j] = 0.0;
    }
  }
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      for (k = 0; k < 8; k++) c[i][j] += a[i][k] * b[k][j];
    }
  }
  double t = 0.0;
  for (i = 0; i < 8; i++) t += c[i][i];
  print_f64(t);
  return 0;
}
|} );
    ( "strings",
      {|
int main(void) {
  char buf[64];
  char tmp[8];
  buf[0] = 0;
  long i;
  for (i = 0; i < 5; i++) {
    tmp[0] = (char)(97 + i);
    tmp[1] = 0;
    strcat(buf, tmp);
  }
  print_str(buf);
  print_int(strlen(buf));
  return 0;
}
|} );
  ]

let run_at level instrument src =
  let m = Mi_minic.Lower.compile src in
  let instrument_fn =
    Option.map
      (fun cfg m -> ignore (Mi_core.Instrument.run cfg m))
      instrument
  in
  Mi_passes.Pipeline.run ~level ?instrument:instrument_fn m;
  Mi_analysis.Domcheck.assert_valid m;
  let st = Mi_vm.State.create () in
  Mi_vm.Builtins.install st;
  (match instrument with
  | Some cfg when cfg.Mi_core.Config.approach = "lowfat" ->
      ignore (Mi_lowfat.Lowfat_rt.install st)
  | Some _ -> ignore (Mi_softbound.Softbound_rt.install st)
  | None -> ());
  let img = Mi_vm.Interp.load st [ m ] in
  let r = Mi_vm.Interp.run st img in
  match r.Mi_vm.Interp.outcome with
  | Mi_vm.Interp.Exited _ -> r.Mi_vm.Interp.output
  | Mi_vm.Interp.Trapped msg -> Alcotest.fail ("trap: " ^ msg)
  | Mi_vm.Interp.Safety_violation { reason; _ } ->
      Alcotest.fail ("violation: " ^ reason)
  | Mi_vm.Interp.Exhausted budget ->
      Alcotest.fail (Printf.sprintf "fuel budget of %d exhausted" budget)

let test_pipeline_preserves name src () =
  let reference = run_at Mi_passes.Pipeline.O0 None src in
  List.iter
    (fun level ->
      Alcotest.(check string)
        (name ^ " optimized output")
        reference (run_at level None src))
    [ Mi_passes.Pipeline.O1; Mi_passes.Pipeline.O3 ];
  List.iter
    (fun cfg ->
      Alcotest.(check string)
        (name ^ " instrumented output")
        reference
        (run_at Mi_passes.Pipeline.O3 (Some cfg) src))
    [ Mi_core.Config.softbound; Mi_core.Config.lowfat ]

(* ------------------------------------------------------------------ *)
(* Irmod.copy                                                          *)
(* ------------------------------------------------------------------ *)

(* A copy is the fork point of staged compiles: mutating passes, a new
   function list and fresh ids on the copy must leave the original's
   printed form and id counters alone. *)
let test_copy_isolates () =
  let m =
    Mi_minic.Lower.compile ~name:"copy"
      {|
int sq(int x) { return x * x; }
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 4; i++) { s = s + sq(i) + sq(i); }
  print_int(s);
  return 0;
}
|}
  in
  let before = Printer.module_to_string m in
  let ids (m : Irmod.t) = List.map (fun (f : Func.t) -> f.next_id) m.funcs in
  let ids_before = ids m in
  let c = Irmod.copy m in
  Alcotest.(check string) "copy prints the same" before
    (Printer.module_to_string c);
  Alcotest.(check bool) "inline + gvn changed the copy" true
    (P.Pass.run_list [ P.Inline.pass; P.Mem2reg.pass; P.Gvn.pass ] c);
  ignore (Func.fresh_var (Irmod.find_func_exn c "main") Ty.I64);
  c.funcs <- List.filter (fun (f : Func.t) -> f.fname <> "sq") c.funcs;
  Alcotest.(check bool) "the copy differs" true
    (Printer.module_to_string c <> before);
  Alcotest.(check string) "original printed form" before
    (Printer.module_to_string m);
  Alcotest.(check (list int)) "original next_ids" ids_before (ids m)

let () =
  Alcotest.run "passes"
    [
      ( "mem2reg",
        [
          Alcotest.test_case "promotes scalar" `Quick test_mem2reg_promotes_scalar;
          Alcotest.test_case "keeps escaped" `Quick test_mem2reg_keeps_escaped;
          Alcotest.test_case "checks pin allocas" `Quick
            test_mem2reg_keeps_checked_alloca;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes unused pure" `Quick test_dce_removes_unused_pure;
          Alcotest.test_case "removes unused metadata loads (§5.4)" `Quick
            test_dce_removes_unused_metadata_load;
          Alcotest.test_case "keeps checks" `Quick test_dce_keeps_checks;
        ] );
      ( "instcombine",
        [
          Alcotest.test_case "constant folding" `Quick test_instcombine_folds;
          Alcotest.test_case "gep zero fold (appendix B)" `Quick
            test_instcombine_gep_zero_fold;
        ] );
      ( "gvn",
        [
          Alcotest.test_case "cse incl. pure intrinsics" `Quick test_gvn_cse;
          Alcotest.test_case "commutative normalization" `Quick test_gvn_commutative;
          Alcotest.test_case "trie loads not merged across store" `Quick
            test_gvn_does_not_merge_trie_loads_across_store;
        ] );
      ( "licm",
        [
          Alcotest.test_case "hoists invariants" `Quick test_licm_hoists_without_checks;
          Alcotest.test_case "checks pin loads (§5.5)" `Quick test_licm_checks_pin_loads;
          Alcotest.test_case "globals and metadata speculate" `Quick
            test_licm_speculates_global_and_meta;
        ] );
      ( "inline",
        [
          Alcotest.test_case "inlines small callee" `Quick test_inline_simple;
          Alcotest.test_case "skips recursive" `Quick test_inline_skips_recursive;
        ] );
      ( "simplifycfg",
        [
          Alcotest.test_case "folds constant branch" `Quick
            test_simplifycfg_folds_constant_branch;
          Alcotest.test_case "merges chains" `Quick test_simplifycfg_merges_chain;
          Alcotest.test_case "inline into self-loop renames phi (fuzz seed 16)"
            `Quick test_inline_into_self_loop_renames_phi;
          Alcotest.test_case "inline labels fresh across runs (fuzz seed 300065)"
            `Quick test_inline_labels_fresh_across_runs;
          Alcotest.test_case
            "merge into loop header renames phi (fuzz seed 18)" `Quick
            test_simplifycfg_merge_into_loop_header_renames_phi;
        ] );
      ( "copy",
        [ Alcotest.test_case "copy isolates the original" `Quick test_copy_isolates ] );
      ( "semantic-preservation",
        List.map
          (fun (name, src) ->
            Alcotest.test_case name `Quick (test_pipeline_preserves name src))
          programs );
    ]
