(* The fast-path execution engine: observational-inertness differential
   gate, error-message pins (including malformed calls to runtime
   intrinsics and C-library builtins, which trap with a typed message
   under both fused and boxed dispatch), the one-typed-implementation
   contract of runtime intrinsics, load-time call resolution (the
   builtin registry closes at load; unresolved names trap on their
   step), regression tests for the interpreter bugs fixed alongside
   the engine (bitcast sign bit, scratch-slot bloat), and a bound on
   the major-heap words a small job's execution allocates. *)

open Mi_vm
open Mi_mir
module E = Mi_bench_kit.Experiments
module Harness = Mi_bench_kit.Harness
module Json = Mi_obs.Json

(* ------------------------------------------------------------------ *)
(* Differential gate: the engine is observationally inert              *)
(* ------------------------------------------------------------------ *)

(* The report document [experiments --json] writes for [selected] on
   [benchmarks] (without the session metrics), regenerated in process
   through one single-worker session.  [approaches] narrows the checker
   registry for the duration of the regeneration. *)
let report_doc ?approaches ~benchmarks selected =
  let h = Harness.create ~jobs:1 () in
  let benchmarks = List.map Mi_bench_kit.Suite.find_exn benchmarks in
  let every = Mi_core.Config.known_approaches () in
  let reports =
    Fun.protect
      ~finally:(fun () -> Mi_core.Config.restrict_approaches every)
      (fun () ->
        Option.iter Mi_core.Config.restrict_approaches approaches;
        E.run_reports ~benchmarks h
          (List.map (fun n -> Option.get (E.find n)) selected))
  in
  Json.Obj
    [
      ( "reports",
        Json.List
          (List.map2
             (fun name (_, r) ->
               match E.report_to_json r with
               | Json.Obj fields -> Json.Obj (("name", Json.Str name) :: fields)
               | other -> other)
             selected reports) );
    ]

(* under `dune runtest` the cwd is the staged test directory (the dune
   deps glob copies the goldens there); under `dune exec` from the
   project root, fall back to the source-tree copy *)
let read_golden name =
  let path =
    List.find Sys.file_exists [ "goldens/" ^ name; "test/goldens/" ^ name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* goldens/engine_470lbm.json was produced by the pre-engine interpreter
   (generic hash-per-call dispatch) via
     mi-experiments --benchmark 470lbm -j 1 --json ... table1 hotchecks
   Regenerating the same document in-process must reproduce it byte for
   byte: modeled cycles, counters and per-site check profiles are
   independent of the dispatch strategy.  The golden predates the
   temporal checker, so the registry is narrowed to the two spatial
   approaches. *)
let test_golden_json () =
  Alcotest.(check string)
    "regenerated report document is byte-identical to the pre-engine golden"
    (read_golden "engine_470lbm.json")
    (Json.to_string
       (report_doc ~approaches:[ "softbound"; "lowfat" ]
          ~benchmarks:[ "470lbm" ] [ "table1"; "hotchecks" ])
    ^ "\n")

(* goldens/reports_matrix.json pins every benchmark-matrix experiment
   (and table1) under all registered approaches on 470lbm and on
   164gzip, a size-zero benchmark, so ablation-sz0 has rows.  Recorded
   before the experiments declared their setups as one list; a change
   to how experiments are built must reproduce it byte for byte. *)
let matrix_experiments =
  [
    "table1"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "table2";
    "optstats"; "ablation-lf"; "ablation-sz0"; "hotchecks"; "checkelim";
  ]

let test_matrix_golden () =
  Alcotest.(check string)
    "report document is byte-identical to the recorded golden"
    (read_golden "reports_matrix.json")
    (Json.to_string
       (report_doc ~benchmarks:[ "470lbm"; "164gzip" ] matrix_experiments)
    ^ "\n")

(* ------------------------------------------------------------------ *)
(* Error-message compatibility                                         *)
(* ------------------------------------------------------------------ *)

(* [prepare] runs after the C library is installed and before loading:
   the place to attach a checker runtime or pick the dispatch mode. *)
let run_src ?(fuel = 50_000_000) ?(prepare = ignore) src =
  let m = Parser.parse_module src in
  let st = State.create ~fuel () in
  Builtins.install st;
  prepare st;
  let img = Interp.load st [ m ] in
  (st, img, Interp.run st img)

let check_trapped what msg = function
  | Interp.Trapped m -> Alcotest.(check string) (what ^ ": trap message") msg m
  | Interp.Exited n -> Alcotest.failf "%s: exited %d" what n
  | _ -> Alcotest.failf "%s: expected a trap" what

let expect_trap ?prepare ?(what = "trap") src msg =
  let _, _, r = run_src ?prepare src in
  check_trapped what msg r.Interp.outcome

let test_unknown_callee_msg () =
  expect_trap
    {|
module "u"
extern func @nosuch() -> i64
func @main() -> i64 {
entry:
  %x.0 = call @nosuch() : i64
  ret %x.0
}
|}
    "unresolved external: nosuch"

let test_void_result_msg () =
  expect_trap
    {|
module "v"
func @main() -> i64 {
entry:
  %x.0 = call @print_int(1:i64) : i64
  ret %x.0
}
|}
    "void result used from call to print_int"

let test_builtin_trap_msg () =
  (* a Trap raised inside a builtin (here the standard allocator)
     propagates with its message intact through the call site bound at
     load *)
  expect_trap
    {|
module "f"
func @main() -> i64 {
entry:
  call @free(12345678:i64)
  ret 0:i64
}
|}
    (Printf.sprintf "free of non-allocated %#x" 12345678)

let test_call_arity_msg () =
  expect_trap
    {|
module "a"
func @two(%a.0 : i64, %b.1 : i64) -> i64 {
entry:
  ret %a.0
}
func @main() -> i64 {
entry:
  %x.0 = call @two(1:i64) : i64
  ret %x.0
}
|}
    "call to two with 1 args, expected 2"

(* ------------------------------------------------------------------ *)
(* Malformed intrinsic and C-library calls trap, whatever the dispatch  *)
(* ------------------------------------------------------------------ *)

let dispatches = [ ("fast", true); ("generic", false) ]

let with_runtime install fast st =
  install st;
  st.State.fast_dispatch <- fast

(* A check call without its trailing site id has no typed implementation
   to fuse into; the boxed adapter rejects it with the arity message. *)
let test_siteless_check_traps () =
  let sb st = ignore (Mi_softbound.Softbound_rt.install st)
  and lf st = ignore (Mi_lowfat.Lowfat_rt.install st)
  and tp st = ignore (Mi_temporal.Temporal_rt.install st) in
  let cases =
    [
      (sb, Intrinsics.sb_check, "1:i64, 8:i64, 0:i64, 64:i64", 4, 5);
      (lf, Intrinsics.lf_check, "1:i64, 8:i64, 0:i64", 3, 4);
      (lf, Intrinsics.lf_invariant_check, "1:i64, 0:i64", 2, 3);
      (tp, Intrinsics.tp_check, "1:i64, 0:i64", 2, 3);
    ]
  in
  List.iter
    (fun (install, name, args, got, want) ->
      List.iter
        (fun (mode, fast) ->
          expect_trap
            ~prepare:(with_runtime install fast)
            ~what:(name ^ "/" ^ mode)
            (Printf.sprintf
               {|
module "c"
func @main() -> i64 {
entry:
  call @%s(%s)
  ret 0:i64
}
|}
               name args)
            (Printf.sprintf "%s: called with %d arguments, expected %d" name
               got want))
        dispatches)
    cases

(* Malformed calls written in MiniC, run under every checker and both
   dispatch modes: each ends in a typed trap, never an OCaml exception
   escaping the VM. *)
let probes =
  [
    ( "sb_check with 2 args",
      {|
void __mi_sb_check(long p, long w);
int main() { long x; x = 5; __mi_sb_check(x, 8); return 0; }
|},
      function
      | "softbound" -> "__mi_sb_check: called with 2 arguments, expected 5"
      | _ -> "unresolved external: __mi_sb_check" );
    ( "lf_check with a float",
      {|
void __mi_lf_check(double p, long w, long b, long s);
int main() { __mi_lf_check(1.5, 8, 0, 0); return 0; }
|},
      function
      | "lowfat" -> "__mi_lf_check: float argument, expected an int"
      | _ -> "unresolved external: __mi_lf_check" );
    ( "free of a float",
      {|
void free(double p);
int main() { free(1.5); return 0; }
|},
      fun _ -> "expected int value" );
    ( "strlen without its argument",
      {|
long strlen();
int main() { long n; n = strlen(); return n; }
|},
      fun _ -> "called with 0 arguments, argument 1 missing" );
  ]

let test_malformed_probes_trap () =
  List.iter
    (fun (probe, code, expected) ->
      List.iter
        (fun approach ->
          List.iter
            (fun (mode, dispatch) ->
              let setup =
                {
                  (Harness.with_config
                     (Mi_core.Config.of_approach approach)
                     Harness.baseline)
                  with
                  Harness.dispatch;
                }
              in
              let r =
                Harness.run_sources setup
                  [
                    {
                      Mi_bench_kit.Bench.src_name = "probe.c";
                      code;
                      instrument = true;
                      mode_override = None;
                    };
                  ]
              in
              check_trapped
                (Printf.sprintf "%s under %s/%s" probe approach mode)
                (expected approach) r.Harness.outcome)
            [ ("fast", Harness.Fast); ("generic", Harness.Generic) ])
        (Mi_core.Config.known_approaches ()))
    probes

(* ------------------------------------------------------------------ *)
(* One typed implementation per runtime intrinsic                      *)
(* ------------------------------------------------------------------ *)

let test_every_intrinsic_typed () =
  List.iter
    (fun approach ->
      let st = State.create () in
      Builtins.install st;
      ignore
        (Mi_runtimes.Runtimes.install
           (Mi_core.Config.of_approach approach)
           ~modules:[] st);
      let intrinsics =
        Hashtbl.fold
          (fun name (b : State.builtin) acc ->
            if String.starts_with ~prefix:"__mi_" name then (name, b) :: acc
            else acc)
          st.State.builtins []
      in
      if intrinsics = [] then Alcotest.failf "%s: no intrinsics" approach;
      List.iter
        (fun (name, (b : State.builtin)) ->
          if b.typed = None then
            Alcotest.failf "%s: %s has no typed entry" approach name)
        intrinsics)
    (Mi_core.Config.known_approaches ())

(* ------------------------------------------------------------------ *)
(* Regression: f64 <-> i64 bitcast sign bit                            *)
(* ------------------------------------------------------------------ *)

let test_bitcast_sign_roundtrip () =
  (* pre-fix, the i64 pattern of -1.0 lost bit 63, so the sign test read
     positive and the round-trip produced +1.0 *)
  let _, _, r =
    run_src
      {|
module "bc"
func @main() -> i64 {
entry:
  %b.0 = bitcast f64 fl(-1.0) to i64
  %neg.1 = icmp slt i64 %b.0, 0:i64
  cbr %neg.1, back, bad
back:
  %f.2 = bitcast i64 %b.0 to f64
  %eq.3 = fcmp feq %f.2, fl(-1.0)
  cbr %eq.3, good, bad
good:
  ret 0:i64
bad:
  ret 1:i64
}
|}
  in
  match r.Interp.outcome with
  | Interp.Exited 0 -> ()
  | Interp.Exited n ->
      Alcotest.failf "bitcast dropped the sign bit (exit %d)" n
  | _ -> Alcotest.fail "bitcast program failed"

let prop_bitcast_roundtrip =
  (* the 63-bit substrate can keep everything except mantissa bit 0: the
     round-trip must preserve sign and stay within 1 ulp, exactly for
     every pattern with a zero low mantissa bit (all small integers,
     +-0.0, infinities) *)
  QCheck.Test.make ~name:"bitcast f64->i64->f64 roundtrip" ~count:300
    QCheck.float (fun f ->
      let src =
        Printf.sprintf
          {|
module "bcp"
func @main() -> i64 {
entry:
  %%b.0 = bitcast f64 fl(%h) to i64
  %%f.1 = bitcast i64 %%b.0 to f64
  call @print_f64(%%f.1)
  ret 0:i64
}
|}
          f
      in
      let _, _, r = run_src src in
      let expect =
        Int64.float_of_bits
          (Int64.logand (Int64.bits_of_float f) (Int64.lognot 1L))
      in
      r.Interp.output = Printf.sprintf "%.6g" expect)

let test_bitcast_minic_negative_double_global () =
  (* same bug family at the minic level: global double initializers went
     through a 63-bit int, clipping the IEEE sign bit, so a negative
     double global read back positive *)
  let m =
    Mi_minic.Lower.compile ~name:"negg"
      {|
double g = -1.5;
double z = 0.25;

int main(void) {
  if (g < 0.0 && g == -1.5 && z == 0.25) return 0;
  return 1;
}
|}
  in
  let st = State.create () in
  Builtins.install st;
  let img = Interp.load st [ m ] in
  match (Interp.run st img).Interp.outcome with
  | Interp.Exited 0 -> ()
  | Interp.Exited n ->
      Alcotest.failf "negative double global miscompiled (exit %d)" n
  | _ -> Alcotest.fail "minic program failed"

(* ------------------------------------------------------------------ *)
(* Regression: discarded results share one scratch slot per bank       *)
(* ------------------------------------------------------------------ *)

let test_scratch_slots_shared () =
  (* five discarded loads + one named value: pre-fix each discarded
     destination allocated a fresh integer slot (n_iregs = 1 named + 5),
     bloating the bank Array.make of every call of the function *)
  let m =
    Parser.parse_module
      {|
module "s"
func @main() -> i64 {
entry:
  %p.0 = alloca 8 align 8
  load i64 %p.0
  load i64 %p.0
  load i64 %p.0
  load i64 %p.0
  load i64 %p.0
  ret 0:i64
}
|}
  in
  let st = State.create () in
  Builtins.install st;
  let img = Interp.load st [ m ] in
  match Interp.func_regs img "main" with
  | None -> Alcotest.fail "main not loaded"
  | Some (n_i, n_f) ->
      Alcotest.(check int) "one named slot + one shared scratch" 2 n_i;
      Alcotest.(check int) "no float slots" 0 n_f

(* ------------------------------------------------------------------ *)
(* Exactness: runs that stop part-way                                  *)
(* ------------------------------------------------------------------ *)

(* Every expected line below was recorded from the instruction-array
   interpreter that the closure compiler replaced.  A trap, violation,
   fuel exhaustion or injected fault must land on the same step with
   the same cycles, counters and touched pages. *)

let outcome_str = function
  | Interp.Exited n -> Printf.sprintf "exited %d" n
  | Interp.Trapped m -> "trapped: " ^ m
  | Interp.Safety_violation { checker; reason } ->
      Printf.sprintf "violation %s: %s" checker reason
  | Interp.Exhausted n -> Printf.sprintf "exhausted %d" n

let summary (r : Interp.result) =
  Printf.sprintf "%s | cycles=%d steps=%d pages=%d | out=%S | %s"
    (outcome_str r.outcome) r.cycles r.steps r.mem_pages r.output
    (String.concat ","
       (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) r.counters))

let run_exact ?fuel ?prepare src =
  let _, _, r = run_src ?fuel ?prepare src in
  summary r

let div_by_zero = {|
module "dz"
func @main() -> i64 {
entry:
  %p.0 = alloca 64 align 8
  store i64 7:i64, %p.0
  br loop
loop:
  %i.1 = phi i64 [entry 0:i64] [loop %i2.2]
  %i2.2 = add i64 %i.1, 1:i64
  %c.3 = icmp slt i64 %i2.2, 10:i64
  cbr %c.3, loop, done
done:
  %z.4 = sub i64 %i2.2, 10:i64
  %m.5 = mul i64 %i2.2, 3:i64
  %d.6 = sdiv i64 %m.5, %z.4
  %e.7 = add i64 %d.6, 1:i64
  store i64 %e.7, %p.0
  ret %e.7
}
|}

let null_guard = {|
module "ng"
func @main() -> i64 {
entry:
  %p.0 = alloca 16 align 8
  store i64 5:i64, %p.0
  %a.1 = load i64 %p.0
  %q.2 = inttoptr i64 8:i64 to ptr
  %b.3 = load i64 %q.2
  %s.4 = add i64 %a.1, %b.3
  store i64 %s.4, %p.0
  ret %s.4
}
|}

let sb_abort = {|
module "sa"
func @main() -> i64 {
entry:
  %p.0 = alloca 32 align 8
  store i64 1:i64, %p.0
  %q.1 = gep %p.0 [1 x 40:i64]
  %pi.2 = ptrtoint ptr %p.0 to i64
  %b.3 = add i64 %pi.2, 32:i64
  call @__mi_sb_check(%p.0, 8:i64, %p.0, %b.3, 0:i64)
  call @__mi_sb_check(%q.1, 8:i64, %p.0, %b.3, 1:i64)
  store i64 2:i64, %q.1
  ret 0:i64
}
|}

let lf_abort = {|
module "la"
func @main() -> i64 {
entry:
  %p.0 = call @malloc(24:i64) : ptr
  store i64 1:i64, %p.0
  %q.1 = gep %p.0 [1 x 32:i64]
  call @__mi_lf_check(%p.0, 8:i64, %p.0, 0:i64)
  call @__mi_lf_check(%q.1, 8:i64, %p.0, 1:i64)
  store i64 2:i64, %q.1
  ret 0:i64
}
|}

let tp_abort = {|
module "ta"
func @main() -> i64 {
entry:
  %p.0 = call @malloc(24:i64) : ptr
  %k.1 = call @__mi_tp_alloc_key(%p.0) : i64
  call @__mi_tp_check(%p.0, %k.1, 0:i64)
  call @free(%p.0)
  %x.2 = add i64 %k.1, 0:i64
  call @__mi_tp_check(%p.0, %x.2, 1:i64)
  ret 0:i64
}
|}

let stack_overflow = {|
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

let spin = {|
module "spin"
global @g : 8 align 8 {
  zero 8
}
func @main() -> i64 {
entry:
  br loop
loop:
  %i.0 = phi i64 [entry 0:i64] [loop %i2.1]
  %v.2 = load i64 @g
  %w.3 = add i64 %v.2, %i.0
  store i64 %w.3, @g
  %i2.1 = add i64 %i.0, 1:i64
  %c.4 = icmp slt i64 %i2.1, 100:i64
  cbr %c.4, loop, done
done:
  %r.5 = load i64 @g
  call @print_int(%r.5)
  ret 0:i64
}
|}

let test_exact_stops () =
  let sb st = ignore (Mi_softbound.Softbound_rt.install st)
  and lf st = ignore (Mi_lowfat.Lowfat_rt.install st)
  and tp st = ignore (Mi_temporal.Temporal_rt.install st) in
  let boxed install st =
    install st;
    st.State.fast_dispatch <- false
  in
  let module Fault = Mi_faultkit.Fault in
  let inject vm st = Inject.install { Fault.none with vm } st in
  List.iter
    (fun (what, expected, got) -> Alcotest.(check string) what expected got)
    [
      ( "div-by-zero mid-block",
        "trapped: integer division by zero | cycles=70 steps=36 pages=1 | out=\"\" | ",
        run_exact div_by_zero );
      ( "null-guard load mid-block",
        "trapped: memory fault at 0x8: access to null guard page | cycles=14 steps=5 pages=1 | out=\"\" | ",
        run_exact null_guard );
      ( "softbound abort mid-block",
        "violation softbound: out-of-bounds access: ptr=0x300000800008 width=8 bounds=[0x3000007fffe0,0x300000800000) | cycles=28 steps=7 pages=1 | out=\"\" | sb.checks=2",
        run_exact ~prepare:sb sb_abort );
      ( "softbound abort, boxed dispatch",
        "violation softbound: out-of-bounds access: ptr=0x300000800008 width=8 bounds=[0x3000007fffe0,0x300000800000) | cycles=28 steps=7 pages=1 | out=\"\" | sb.checks=2",
        run_exact ~prepare:(boxed sb) sb_abort );
      ( "lowfat abort mid-block",
        "violation lowfat: out-of-bounds access: ptr=0x200000020 base=0x200000000 size=32 width=8 | cycles=93 steps=5 pages=1 | out=\"\" | lf.checks=2,lf.malloc=1",
        run_exact ~prepare:lf lf_abort );
      ( "lowfat abort, boxed dispatch",
        "violation lowfat: out-of-bounds access: ptr=0x200000020 base=0x200000000 size=32 width=8 | cycles=93 steps=5 pages=1 | out=\"\" | lf.checks=2,lf.malloc=1",
        run_exact ~prepare:(boxed lf) lf_abort );
      ( "temporal abort mid-block",
        "violation temporal: use-after-free: ptr=0x200000000000 key=1 is dead | cycles=201 steps=6 pages=0 | out=\"\" | std.free=1,std.malloc=1,tp.checks=2,tp.frees=1,tp.key_alloc=1",
        run_exact ~prepare:tp tp_abort );
      ( "stack overflow",
        "trapped: stack overflow | cycles=14345 steps=4098 pages=1024 | out=\"\" | ",
        run_exact stack_overflow );
      ( "clean run",
        "exited 0 | cycles=1305 steps=604 pages=1 | out=\"4950\" | ",
        run_exact spin );
      ( "fuel exhausted at 503",
        "exhausted 503 | cycles=1091 steps=504 pages=1 | out=\"\" | ",
        run_exact ~fuel:503 spin );
      ( "injected trap at step 257",
        "trapped: injected trap at step 257 | cycles=557 steps=257 pages=1 | out=\"\" | fault.injected=1",
        run_exact ~prepare:(inject [ Fault.Trap_at 257 ]) spin );
      ( "wild write at step 300",
        "exited 0 | cycles=1305 steps=604 pages=1 | out=\"4725\" | fault.injected=1",
        run_exact
        ~prepare:
          (inject
             [
               Fault.Wild_write
                 { at_step = 300; addr = Layout.globals_base; value = 1000 };
             ])
        spin );
    ]

(* A direct call and a memcpy in the middle of a loop block: a stop can
   land before, inside or after the callee's frame and on either side
   of the copy. *)
let call_copy = {|
module "cc"
global @src : 16 align 8 {
  zero 16
}
global @dst : 16 align 8 {
  zero 16
}
func @inc(%x.0 : i64) -> i64 {
entry:
  %y.1 = add i64 %x.0, 3:i64
  ret %y.1
}
func @main() -> i64 {
entry:
  br loop
loop:
  %i.0 = phi i64 [entry 0:i64] [loop %i2.1]
  %v.2 = load i64 @src
  %w.3 = call @inc(%v.2) : i64
  store i64 %w.3, @src
  memcpy @dst, @src, 16:i64
  %i2.1 = add i64 %i.0, 1:i64
  %c.4 = icmp slt i64 %i2.1, 20:i64
  cbr %c.4, loop, done
done:
  %r.5 = load i64 @dst
  call @print_int(%r.5)
  ret 0:i64
}
|}

(* [op] (a memcpy or memset into the null guard page, or a call of
   [exit]) with more of its block before and after it *)
let op_fault op = {|
module "mf"
func @main() -> i64 {
entry:
  %p.0 = alloca 16 align 8
  store i64 1:i64, %p.0
  %q.1 = inttoptr i64 8:i64 to ptr
  %a.2 = add i64 1:i64, 2:i64
  |} ^ op ^ {|
  %b.3 = add i64 %a.2, 4:i64
  store i64 %b.3, %p.0
  ret %b.3
}
|}

(* One line per run: every fuel budget from 0 to a program's clean step
   count and an injected trap at every one of its steps, for [spin] and
   [call_copy], then single runs of a fuel-cap fault, the checker aborts
   under fused and boxed dispatch, and faulting memory operations.
   goldens/exact_sweep.json was recorded from the per-instruction engine
   (each closure ticking and charging for itself); a change to how the
   engine accounts steps and cycles must reproduce it byte for byte. *)
let exact_sweep_doc () =
  let module Fault = Mi_faultkit.Fault in
  let inject vm st = Inject.install { Fault.none with vm } st in
  let sb st = ignore (Mi_softbound.Softbound_rt.install st)
  and lf st = ignore (Mi_lowfat.Lowfat_rt.install st)
  and tp st = ignore (Mi_temporal.Temporal_rt.install st) in
  let boxed install st =
    install st;
    st.State.fast_dispatch <- false
  in
  let line what s = what ^ " | " ^ s in
  let sweep ?(prepare = ignore) name src =
    let _, _, clean = run_src ~prepare src in
    let n = clean.Interp.steps in
    List.init (n + 1) (fun fuel ->
        line (Printf.sprintf "%s fuel=%d" name fuel)
          (run_exact ~fuel ~prepare src))
    @ List.init n (fun k ->
          let at = k + 1 in
          line
            (Printf.sprintf "%s trap_at=%d" name at)
            (run_exact
               ~prepare:(fun st ->
                 prepare st;
                 inject [ Fault.Trap_at at ] st)
               src))
  in
  let lines =
    sweep "spin" spin
    @ sweep "call_copy" call_copy
    @ sweep ~prepare:sb "sb_abort" sb_abort
    @ [
        line "spin fuel_cap=300"
          (run_exact ~prepare:(inject [ Fault.Fuel_cap 300 ]) spin);
        line "call_copy fuel_cap=77"
          (run_exact ~prepare:(inject [ Fault.Fuel_cap 77 ]) call_copy);
        line "sb_abort" (run_exact ~prepare:sb sb_abort);
        line "sb_abort boxed" (run_exact ~prepare:(boxed sb) sb_abort);
        line "lf_abort" (run_exact ~prepare:lf lf_abort);
        line "lf_abort boxed" (run_exact ~prepare:(boxed lf) lf_abort);
        line "tp_abort" (run_exact ~prepare:tp tp_abort);
        line "tp_abort boxed" (run_exact ~prepare:(boxed tp) tp_abort);
        line "memcpy fault"
          (run_exact (op_fault "memcpy %q.1, %p.0, 16:i64"));
        line "memset fault" (run_exact (op_fault "memset %q.1, 7:i64, 16:i64"));
        line "exit mid-block" (run_exact (op_fault "call @exit(3:i64)"));
        line "div_by_zero" (run_exact div_by_zero);
        line "null_guard" (run_exact null_guard);
        line "stack_overflow" (run_exact stack_overflow);
      ]
  in
  "[\n"
  ^ String.concat ",\n" (List.map (fun l -> Json.to_string (Json.Str l)) lines)
  ^ "\n]\n"

let test_exact_sweep () =
  let golden = read_golden "exact_sweep.json" and got = exact_sweep_doc () in
  let strings doc =
    match Json.to_list (Json.of_string doc) with
    | Some l -> List.map (function Json.Str s -> s | _ -> "?") l
    | None -> []
  in
  Alcotest.(check (list string)) "every stop" (strings golden) (strings got);
  Alcotest.(check string) "golden bytes" golden got

let test_run_other_state () =
  let m = Parser.parse_module spin in
  let st = State.create () in
  Builtins.install st;
  let img = Interp.load st [ m ] in
  let other = State.create () in
  Builtins.install other;
  Alcotest.check_raises "run on another state"
    (Invalid_argument "Interp.run: the image was loaded into another state")
    (fun () -> ignore (Interp.run other img));
  Alcotest.(check int) "the other state ran nothing" 0 other.State.steps;
  Alcotest.(check string) "the image still runs on its own state"
    "exited 0" (outcome_str (Interp.run st img).Interp.outcome)

(* ------------------------------------------------------------------ *)
(* Load-time resolution                                                *)
(* ------------------------------------------------------------------ *)

(* [Interp.load] resolves every call site once and closes the state's
   builtin registry: a registration afterwards raises, naming the
   builtin, and the image keeps running what it bound. *)
let test_registration_closed_at_load () =
  let m =
    Parser.parse_module
      {|
module "closed"
func @main() -> i64 {
entry:
  call @print_int(1:i64)
  call @__mi_sb_check(100:i64, 8:i64, 0:i64, 128:i64, 0:i64)
  ret 0:i64
}
|}
  in
  let st = State.create () in
  Builtins.install st;
  ignore (Mi_softbound.Softbound_rt.install st);
  let img = Interp.load st [ m ] in
  let closed name =
    Invalid_argument
      (Printf.sprintf "State.register: builtin %s registered after Interp.load"
         name)
  in
  Alcotest.check_raises "register_builtin after load" (closed "print_int")
    (fun () ->
      State.register_builtin st "print_int" (fun st _ ->
          Buffer.add_string st.State.out "replaced";
          None));
  Alcotest.check_raises "register_intrinsic after load"
    (closed Intrinsics.sb_check) (fun () ->
      State.register_intrinsic st Intrinsics.sb_check
        (State.F5 (fun _ _ _ _ _ _ -> ())));
  let r = Interp.run st img in
  Alcotest.(check string)
    "the image runs the builtins it bound" "exited 0 | out=\"1\" | sb.checks=1"
    (Printf.sprintf "%s | out=%S | sb.checks=%d"
       (outcome_str r.Interp.outcome)
       r.Interp.output
       (State.counter st "sb.checks"))

(* A call to a name with no builtin compiles to a site that ticks and
   then traps.  The expected lines were recorded from the interpreter
   that resolved such names at run time, through a per-site cache. *)
let unresolved call =
  Printf.sprintf
    {|
module "un"
func @main() -> i64 {
entry:
  %%p.0 = call @malloc(16:i64) : ptr
  store i64 3:i64, %%p.0
  %%v.1 = load i64 %%p.0
  %%w.2 = add i64 %%v.1, 4:i64
  call @print_int(%%w.2)
  %s
  ret 0:i64
}
|}
    call

let test_unresolved_external () =
  let sb st = ignore (Mi_softbound.Softbound_rt.install st) in
  List.iter
    (fun (what, install, call, expected) ->
      List.iter
        (fun (mode, fast) ->
          Alcotest.(check string)
            (what ^ "/" ^ mode) expected
            (run_exact ~prepare:(with_runtime install fast) (unresolved call)))
        dispatches)
    [
      ( "unknown name",
        ignore,
        "call @nosuch(%w.2)",
        "trapped: unresolved external: nosuch | cycles=89 steps=6 pages=1 | out=\"7\" | std.malloc=1"
      );
      ( "another checker's intrinsic",
        sb,
        "call @__mi_lf_check(%p.0, 8:i64, %p.0, 0:i64)",
        "trapped: unresolved external: __mi_lf_check | cycles=89 steps=6 pages=1 | out=\"7\" | std.malloc=1"
      );
    ]

(* ------------------------------------------------------------------ *)
(* Allocation: a run's VM and runtime state grow with use              *)
(* ------------------------------------------------------------------ *)

(* Stores a heap pointer into a heap cell and passes pointers across a
   call, so the run fills metadata and shadow-stack slots. *)
let pointer_store_src =
  {|
long deref(long **cell) {
  long *p;
  p = *cell;
  return p[1];
}

int main(void) {
  long **cell;
  long *p;
  cell = (long **)malloc(sizeof(long *));
  p = (long *)malloc(4 * sizeof(long));
  p[1] = 7;
  *cell = p;
  print_int(deref(cell));
  return 0;
}
|}

let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* The execute half of a job, [State.create] through [Interp.run], on
   already compiled modules. *)
let execute (setup : Harness.setup) (b : Mi_bench_kit.Bench.t) modules =
  let st = State.create ~seed:setup.Harness.seed () in
  Builtins.install st;
  let alloc_global =
    Mi_runtimes.Runtimes.install
      (Option.get setup.Harness.config)
      ~modules:
        (List.map2
           (fun m (s : Mi_bench_kit.Bench.source) -> (m, s.instrument))
           modules b.sources)
      st
  in
  let img = Interp.load ?alloc_global st modules in
  Interp.run st img

(* The execute half of a small SoftBound or temporal job allocates in
   the major heap only the pages and trie secondaries its program
   touches: a runtime or page table sized up front for large programs
   would cost every job more than the bound. *)
let test_small_job_allocation () =
  let b =
    Mi_bench_kit.Bench.mk ~suite:Mi_bench_kit.Bench.CPU2006 ~descr:"pointer store"
      "alloc"
      [ Mi_bench_kit.Bench.src "alloc.c" pointer_store_src ]
  in
  List.iter
    (fun tag ->
      let setup = Mi_fuzz.Oracle.variant_setup tag in
      let modules =
        match Harness.compile_jobs (Harness.create ~jobs:1 ()) [ (setup, b) ] with
        | [ Ok m ] -> m
        | _ -> Alcotest.failf "%s: compile failed" tag
      in
      (* the first run warms whatever the process initialises once *)
      ignore (execute setup b modules);
      let w0 = direct_major_words () in
      let r = execute setup b modules in
      let words = direct_major_words () -. w0 in
      Alcotest.(check string) (tag ^ ": output") "7" r.Interp.output;
      if words > 8192. then
        Alcotest.failf "%s: execute allocated %.0f major-heap words (bound 8192)"
          tag words)
    [ "O3+sb"; "O3+tp" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "470lbm golden json" `Slow test_golden_json;
          Alcotest.test_case "matrix reports golden" `Slow test_matrix_golden;
        ] );
      ( "messages",
        [
          Alcotest.test_case "unknown callee" `Quick test_unknown_callee_msg;
          Alcotest.test_case "void result" `Quick test_void_result_msg;
          Alcotest.test_case "builtin trap" `Quick test_builtin_trap_msg;
          Alcotest.test_case "call arity" `Quick test_call_arity_msg;
          Alcotest.test_case "site-id-less checks" `Quick
            test_siteless_check_traps;
          Alcotest.test_case "malformed probes" `Quick
            test_malformed_probes_trap;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "every intrinsic typed" `Quick
            test_every_intrinsic_typed;
        ] );
      ( "resolution",
        [
          Alcotest.test_case "registration closed at load" `Quick
            test_registration_closed_at_load;
          Alcotest.test_case "unresolved external" `Quick
            test_unresolved_external;
        ] );
      ( "bitcast",
        [
          Alcotest.test_case "sign roundtrip" `Quick
            test_bitcast_sign_roundtrip;
          QCheck_alcotest.to_alcotest prop_bitcast_roundtrip;
          Alcotest.test_case "minic negative double global" `Quick
            test_bitcast_minic_negative_double_global;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "runs that stop part-way" `Quick
            test_exact_stops;
          Alcotest.test_case "stop sweep" `Quick test_exact_sweep;
          Alcotest.test_case "run on another state" `Quick
            test_run_other_state;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "shared per bank" `Quick
            test_scratch_slots_shared;
        ] );
      ( "allocation",
        [ Alcotest.test_case "small job" `Quick test_small_job_allocation ] );
    ]
