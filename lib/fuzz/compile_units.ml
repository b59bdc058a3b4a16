(** The compile-path workload: every translation unit of the suite and of
    fuzz seeds 1..50, each lowered by [Lower.compile] and optimized by
    [Pipeline.run] alone, uninstrumented.  The printed MIR of every unit
    at O0, O1 and O3 is pinned by [test/goldens/compile_mir.json];
    [bench/main.exe --compile-units] times the O3 compiles and prints
    the digest of their MIR, which CI compares with the golden's. *)

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

let compile level (s : Bench.source) : Mi_mir.Irmod.t =
  let mode =
    Option.value ~default:Mi_minic.Lower.default_mode s.mode_override
  in
  let m = Mi_minic.Lower.compile ~mode ~name:s.src_name s.code in
  Pipeline.run ~level m;
  m

let unit_digest m =
  Digest.to_hex (Digest.string (Mi_mir.Printer.module_to_string m))

(** One digest over a list of unit digests, in order. *)
let combine hexes = Digest.to_hex (Digest.string (String.concat "" hexes))

let levels = [ ("O0", Pipeline.O0); ("O1", Pipeline.O1); ("O3", Pipeline.O3) ]

(** The golden document: per unit, the digest of its printed MIR at each
    level, and [o3_digest], the {!combine}d O3 digests of every unit. *)
let golden () : Mi_obs.Json.t =
  let per_unit =
    List.map
      (fun (name, s) ->
        ( name,
          List.map (fun (l, level) -> (l, unit_digest (compile level s))) levels
        ))
      (units ())
  in
  let str s = Mi_obs.Json.Str s in
  Mi_obs.Json.Obj
    [
      ( "o3_digest",
        str (combine (List.map (fun (_, ds) -> List.assoc "O3" ds) per_unit)) );
      ( "units",
        Mi_obs.Json.Obj
          (List.map
             (fun (name, ds) ->
               (name, Mi_obs.Json.Obj (List.map (fun (l, d) -> (l, str d)) ds)))
             per_unit) );
    ]
