(** The traced run: a replica of the harness's cache-aware job path
    ([Harness.run_cached] followed by the session merge of
    [Harness.run_jobs]) built from the same public calls, each timed in a
    {!Span}.

    Order of calls, as in the harness: [Icache.find]; on a miss
    [Lower.compile] then [Pipeline.run] with an [instrument] callback
    around [Instrument.run], then [Icache.add]; [State.create],
    [Builtins.install], [Runtimes.install], [Interp.load], [Interp.run];
    finally [Obs.merge] of the job's private context into the session
    context.  The replica also opens the same [Mi_obs.Trace] spans as the
    harness, so the per-job contexts it merges are as large as the
    harness's and the session grows at the same rate.

    Layers (span [layer] field): ["minic"], ["passes"] (self time, so the
    instrument callback is excluded), ["core"], ["icache"], ["rt"],
    ["vm.load"], ["vm.exec"], ["obs"]. *)

module H = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Icache = Mi_bench_kit.Icache
module Obs = Mi_obs.Obs
module Trace = Mi_obs.Trace
module Site = Mi_obs.Site
module Pipeline = Mi_passes.Pipeline

type t = {
  sp : Span.t;
  cache : Icache.t;
  coverage : bool;  (** per-job contexts record VM coverage *)
  session : Obs.t;  (** default session context *)
  mutable src_bytes : int;  (** MiniC source bytes lowered *)
}

let create ?(coverage = false) sp =
  { sp; cache = Icache.create (); coverage; session = Obs.create ~coverage ();
    src_bytes = 0 }

let level_name = function
  | Pipeline.O0 -> "O0"
  | Pipeline.O1 -> "O1"
  | Pipeline.O3 -> "O3"

(* The harness keys its cache by everything the compile phase depends
   on; the key is private to the harness, so it is restated here.  Only
   its injectivity matters: hits and misses then equal the harness's,
   which the traced run checks. *)
let compile_key (setup : H.setup) (sources : Bench.source list) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (match setup.config with
    | None -> "base"
    | Some c -> Mi_core.Config.to_string c);
  Buffer.add_string b
    (Printf.sprintf "\n%s/%s\n" (level_name setup.level)
       (Pipeline.ep_name setup.ep));
  List.iter
    (fun (s : Bench.source) ->
      let mode = Option.value ~default:setup.lowering s.mode_override in
      Buffer.add_string b
        (Printf.sprintf "--unit %s instrument=%b i64ptr=%b\n" s.src_name
           s.instrument mode.Mi_minic.Lower.ptr_mem_as_i64);
      Buffer.add_string b s.code;
      Buffer.add_char b '\n')
    sources;
  Buffer.contents b

let span r layer name f = Span.with_ r.sp ~layer name f

let compile r ~obs (setup : H.setup) (sources : Bench.source list) =
  let tracer = obs.Obs.trace in
  let stats = ref [] in
  let modules =
    Trace.with_span tracer ~cat:"harness" "compile" (fun () ->
        List.map
          (fun (s : Bench.source) ->
            let mode = Option.value ~default:setup.lowering s.mode_override in
            r.src_bytes <- r.src_bytes + String.length s.code;
            let m =
              Trace.with_span tracer ~cat:"harness" ("lower:" ^ s.src_name)
                (fun () ->
                  span r "minic" "Lower.compile" (fun () ->
                      Mi_minic.Lower.compile ~mode ~name:s.src_name s.code))
            in
            let instrument =
              match setup.config with
              | Some cfg when s.instrument ->
                  Some
                    (fun m ->
                      let st =
                        span r "core" "Instrument.run" (fun () ->
                            Mi_core.Instrument.run ~obs cfg m)
                      in
                      stats := st :: !stats)
              | _ -> None
            in
            span r "passes" "Pipeline.run" (fun () ->
                Pipeline.run ~level:setup.level ?instrument ~ep:setup.ep
                  ~tracer m);
            (m, s.instrument))
          sources)
  in
  (modules, List.rev !stats)

let execute r ~obs (setup : H.setup) modules ~static_stats : H.run =
  let tracer = obs.Obs.trace in
  let st =
    span r "vm.load" "State.create" (fun () ->
        Mi_vm.State.create ~seed:setup.seed ~metrics:obs.Obs.metrics
          ~sites:obs.Obs.sites ?coverage:obs.Obs.coverage ())
  in
  (match setup.dispatch with
  | H.Fast -> ()
  | H.Generic -> st.Mi_vm.State.fast_dispatch <- false);
  Mi_vm.Inject.install Mi_faultkit.Fault.none st;
  span r "vm.load" "Builtins.install" (fun () -> Mi_vm.Builtins.install st);
  let alloc_global =
    match setup.config with
    | Some cfg ->
        span r "rt" "Runtimes.install" (fun () ->
            Mi_runtimes.Runtimes.install cfg ~modules st)
    | None -> None
  in
  let img =
    Trace.with_span tracer ~cat:"harness" "load" (fun () ->
        span r "vm.load" "Interp.load" (fun () ->
            Mi_vm.Interp.load ?alloc_global st (List.map fst modules)))
  in
  let program_instrs =
    Mi_mir.Irmod.instr_count (Mi_vm.Interp.merged_module img)
  in
  let res =
    Trace.with_span tracer ~cat:"harness" "execute" (fun () ->
        span r "vm.exec" "Interp.run" (fun () -> Mi_vm.Interp.run st img))
  in
  {
    H.outcome = res.outcome;
    cycles = res.cycles;
    steps = res.steps;
    output = res.output;
    counters =
      Array.of_list
        (List.filter
           (fun (k, _) -> not (String.starts_with ~prefix:"static." k))
           res.counters);
    static_stats;
    program_instrs;
    profile = Site.snapshot obs.Obs.sites;
    coverage =
      (match obs.Obs.coverage with
      | None -> []
      | Some c -> Mi_obs.Coverage.snapshot c);
  }

(** One job through the replica, merged into [session] (default: the
    replica's own session context). *)
let run_job ?session r (setup : H.setup) (b : Bench.t) : H.run =
  let session = Option.value ~default:r.session session in
  let obs = Obs.create ~coverage:r.coverage () in
  Trace.set_thread obs.Obs.trace ~tid:1 ~name:"main";
  let key = compile_key setup b.sources in
  let modules, stats =
    match span r "icache" "Icache.find" (fun () -> Icache.find r.cache key) with
    | Some e ->
        List.iter (Site.register_info obs.Obs.sites) e.Icache.e_sites;
        (e.Icache.e_modules, e.Icache.e_stats)
    | None ->
        let modules, stats = compile r ~obs setup b.sources in
        span r "icache" "Icache.add" (fun () ->
            Icache.add r.cache key
              { Icache.e_modules = modules; e_stats = stats;
                e_sites = Site.infos obs.Obs.sites });
        (modules, stats)
  in
  let run =
    Trace.with_span obs.Obs.trace ~cat:"benchmark" ("benchmark:" ^ b.name)
      (fun () -> execute r ~obs setup modules ~static_stats:stats)
  in
  span r "obs" "Obs.merge" (fun () -> Obs.merge session obs);
  run

let cache_stats r = Icache.stats r.cache
