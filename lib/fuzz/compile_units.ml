(** The compile-path workload: every translation unit of the suite and of
    fuzz seeds 1..50, each lowered by [Lower.compile] and optimized by
    [Pipeline.run].  The printed MIR of every unit at O0, O1 and O3, and
    instrumented under seven variants of the fuzz oracle's matrix, is
    pinned by [test/goldens/compile_mir.json];
    [bench/main.exe --compile-units] times the O3 compiles and the
    instrumented suffixes and prints the digests of their MIR, which CI
    compares with the golden's. *)

open Mi_bench_kit
module Pipeline = Mi_passes.Pipeline

let fuzz_seeds = List.init 50 (fun i -> i + 1)

(** Every unit, named [BENCH/UNIT] or [seedN/UNIT], in a fixed order. *)
let units () : (string * Bench.source) list =
  let of_bench prefix sources =
    List.map
      (fun (s : Bench.source) -> (prefix ^ "/" ^ s.src_name, s))
      sources
  in
  List.concat_map (fun (b : Bench.t) -> of_bench b.name b.sources) Suite.all
  @ List.concat_map
      (fun seed ->
        of_bench (Printf.sprintf "seed%d" seed)
          (Gen.generate ~seed ()).Gen.p_sources)
      fuzz_seeds

let lower ?(mode = Mi_minic.Lower.default_mode) (s : Bench.source) =
  let mode = Option.value ~default:mode s.mode_override in
  Mi_minic.Lower.compile ~mode ~name:s.src_name s.code

let compile level (s : Bench.source) : Mi_mir.Irmod.t =
  let m = lower s in
  Pipeline.run ~level m;
  m

(** The instrumented variants pinned per unit, by their tags in
    {!Oracle.variants}: the mutant matrix and the two extension-point
    probes. *)
let instrumented_tags =
  List.map fst Oracle.mutant_variants @ [ "O3+lf@early"; "O3+sb@scalarlate" ]

(** The variants [--compile-units] times from one shared O3 prefix: every
    registered checker at the default extension point. *)
let suffix_tags = List.map fst Oracle.checker_variants

(* the instrumentation hook of [setup] for [s], as the harness builds
   it: units marked uninstrumented only run the pipeline *)
let instrument_hook (setup : Harness.setup) (s : Bench.source) =
  match setup.config with
  | Some cfg when s.instrument ->
      Some
        (fun m ->
          ignore (Mi_core.Instrument.run cfg m : Mi_core.Instrument.mod_stats))
  | _ -> None

let compile_variant tag (s : Bench.source) : Mi_mir.Irmod.t =
  let setup = Oracle.variant_setup tag in
  let m = lower ~mode:setup.lowering s in
  Pipeline.run ~level:setup.level ?instrument:(instrument_hook setup s)
    ~ep:setup.ep m;
  m

(** The module every {!suffix_tags} variant of [s] shares: lowered and
    run through the O3 phases before [VectorizerStart]. *)
let suffix_prefix (s : Bench.source) : Mi_mir.Irmod.t =
  let m = lower s in
  List.iter
    (fun ph -> Pipeline.run_phase ph m)
    (Pipeline.prefix Pipeline.O3 Pipeline.VectorizerStart);
  m

(** Variant [tag] of {!suffix_tags} compiled on from a copy of
    [prefix]: instrumentation, then the phases after the point. *)
let compile_suffix tag (s : Bench.source) prefix : Mi_mir.Irmod.t =
  let setup = Oracle.variant_setup tag in
  let m = Mi_mir.Irmod.copy prefix in
  Pipeline.resume ~level:setup.level ?instrument:(instrument_hook setup s)
    ~ep:setup.ep m;
  m

let unit_digest m =
  Digest.to_hex (Digest.string (Mi_mir.Printer.module_to_string m))

(** One digest over a list of unit digests, in order. *)
let combine hexes = Digest.to_hex (Digest.string (String.concat "" hexes))

let levels = [ ("O0", Pipeline.O0); ("O1", Pipeline.O1); ("O3", Pipeline.O3) ]

(** The golden document: per unit, the digest of its printed MIR at each
    level and under each of {!instrumented_tags}; [o3_digest], the
    {!combine}d O3 digests of every unit; and [instrumented_digest], the
    {!combine}d {!suffix_tags} digests, unit by unit. *)
let golden () : Mi_obs.Json.t =
  let per_unit =
    List.map
      (fun (name, s) ->
        ( name,
          List.map (fun (l, level) -> (l, unit_digest (compile level s))) levels
          @ List.map
              (fun tag -> (tag, unit_digest (compile_variant tag s)))
              instrumented_tags ))
      (units ())
  in
  let str s = Mi_obs.Json.Str s in
  let digest_of tags =
    combine
      (List.concat_map
         (fun (_, ds) -> List.map (fun t -> List.assoc t ds) tags)
         per_unit)
  in
  Mi_obs.Json.Obj
    [
      ("o3_digest", str (digest_of [ "O3" ]));
      ("instrumented_digest", str (digest_of suffix_tags));
      ( "units",
        Mi_obs.Json.Obj
          (List.map
             (fun (name, ds) ->
               (name, Mi_obs.Json.Obj (List.map (fun (l, d) -> (l, str d)) ds)))
             per_unit) );
    ]
