(* The compiler-pipeline experiment of §5.5 on a small benchmark set: how
   much the extension point at which the instrumentation runs changes the
   execution-time overhead, and how misleading a comparison across
   different points would be.

   Run with: dune exec examples/pipeline_points.exe *)

module Config = Mi_core.Config
module Pipeline = Mi_passes.Pipeline
module Harness = Mi_bench_kit.Harness

(* one trie-heavy benchmark (SoftBound's worst case), one check-dense one
   (Low-Fat's worst case), one float kernel *)
let bench_names = [ "183equake"; "186crafty"; "433milc" ]

let () =
  let benches = List.map Mi_bench_kit.Suite.find_exn bench_names in
  List.iter
    (fun (b : Mi_bench_kit.Bench.t) ->
      Printf.printf "benchmark: %-10s %s\n" b.name b.descr)
    benches;
  print_newline ();
  let baselines =
    List.map
      (fun (b : Mi_bench_kit.Bench.t) ->
        Harness.run_sources Harness.baseline b.sources)
      benches
  in
  (* overhead geomean of one (approach, extension point) cell *)
  let cell approach ep =
    let overheads =
      List.map2
        (fun b base ->
          let setup =
            {
              (Harness.with_config
                 (Config.optimized (Config.of_approach approach))
                 Harness.baseline)
              with
              ep;
            }
          in
          Harness.overhead ~baseline:base
            (Harness.run_sources setup b.Mi_bench_kit.Bench.sources))
        benches baselines
    in
    Mi_support.Util.geomean overheads
  in
  let table =
    List.map
      (fun ep -> (ep, cell "softbound" ep, cell "lowfat" ep))
      Pipeline.all_extension_points
  in
  Printf.printf "%-22s %12s %12s   (geomean over %d benchmarks)\n"
    "extension point" "softbound" "lowfat" (List.length benches);
  List.iter
    (fun (ep, sb, lf) ->
      Printf.printf "%-22s %11.2fx %11.2fx\n" (Pipeline.ep_name ep) sb lf)
    table;
  (* the paper's warning: compare one tool at the early point against the
     other at a late point and you manufacture a difference that has
     nothing to do with the tools *)
  let get approach ep =
    let _, sb, lf = List.find (fun (e, _, _) -> e = ep) table in
    match approach with "lowfat" -> lf | _ -> sb
  in
  let sb_early = get "softbound" Pipeline.ModuleOptimizerEarly in
  let sb_late = get "softbound" Pipeline.VectorizerStart in
  let lf_early = get "lowfat" Pipeline.ModuleOptimizerEarly in
  let lf_late = get "lowfat" Pipeline.VectorizerStart in
  Printf.printf
    "\nFair comparison (both at VectorizerStart): SoftBound %.2fx vs \
     Low-Fat %.2fx\n"
    sb_late lf_late;
  Printf.printf
    "Uneven comparisons (§5.5):\n\
    \  Low-Fat@early (%.2fx) vs SoftBound@late (%.2fx): SoftBound looks \
     %.0f%% faster\n\
    \  SoftBound@early (%.2fx) vs Low-Fat@late (%.2fx): the gap %s\n\
     Same tools, same benchmarks — only the insertion point moved.\n"
    lf_early sb_late
    ((lf_early /. sb_late -. 1.) *. 100.)
    sb_early lf_late
    (if sb_early > lf_late then
       Printf.sprintf "flips: Low-Fat looks %.0f%% faster"
         ((sb_early /. lf_late -. 1.) *. 100.)
     else "shrinks to nothing")
