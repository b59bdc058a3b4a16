(** Regenerate the paper's tables and figures.

    A thin loop over the experiment registry: selected experiments
    contribute their job matrices, one {!Mi_bench_kit.Harness.t} session
    runs the deduplicated union across its worker domains (with the
    instrumentation cache), and each experiment reduces the completed
    runs to a report.  Output is byte-identical for every [-j] setting.

    {v
    mi-experiments                     # everything, all cores
    mi-experiments --list              # what's in the registry
    mi-experiments fig9 table2 -j 2    # selected experiments, 2 workers
    mi-experiments --benchmark 183equake fig9
    mi-experiments --all -j 4 --json out.json
    mi-experiments --cache-dir .micache table2   # persist compiles
    v} *)

open Cmdliner
module E = Mi_bench_kit.Experiments
module Harness = Mi_bench_kit.Harness
module Json = Mi_obs.Json

(* write a report's raw series as CSV: one row per benchmark, one column
   per series *)
let write_csv dir name (report : E.report) =
  if report.E.series <> [] then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    let labels = List.map (fun s -> s.E.label) report.E.series in
    Printf.fprintf oc "benchmark,%s\n" (String.concat "," labels);
    let keys =
      match report.E.series with
      | s :: _ -> List.map fst s.E.points
      | [] -> []
    in
    List.iter
      (fun key ->
        let cells =
          List.map
            (fun s ->
              match List.assoc_opt key s.E.points with
              | Some v -> Printf.sprintf "%.4f" v
              | None -> "")
            report.E.series
        in
        Printf.fprintf oc "%s,%s\n" key (String.concat "," cells))
      keys;
    close_out oc;
    Printf.printf "(wrote %s)\n" path
  end

(* write the collected reports as one JSON document — with the session's
   metrics snapshot alongside, so a single artifact captures results and
   the observability that produced them — then re-parse it with the
   strict parser: the output is guaranteed machine-readable or the
   command fails *)
let write_json path ~obs (reports : (string * E.report) list) =
  let doc =
    Json.Obj
      [
        ( "reports",
          Json.List
            (List.map
               (fun (name, r) ->
                 match E.report_to_json r with
                 | Json.Obj fields ->
                     Json.Obj (("name", Json.Str name) :: fields)
                 | other -> other)
               reports) );
        ("metrics", Mi_obs.Metrics.to_json obs.Mi_obs.Obs.metrics);
      ]
  in
  let s = Json.to_string doc in
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  match Json.of_string s with
  | _ ->
      Printf.printf "(wrote %s, %d bytes, round-trip OK)\n" path
        (String.length s)
  | exception Json.Parse_error msg ->
      Printf.eprintf "internal error: emitted JSON does not parse: %s\n" msg;
      exit 1

let list_experiments () =
  List.iter
    (fun (e : E.t) ->
      let aliases =
        match e.E.aliases with
        | [] -> ""
        | a -> Printf.sprintf " (%s)" (String.concat ", " a)
      in
      Printf.printf "%-14s%s %s\n" e.E.name aliases e.E.descr)
    (E.all ());
  0

(* narrow the registry enumeration — and with it every registry-driven
   experiment matrix — to the selected approaches; unknown names print
   the registry and exit 2 (a lookup miss, not a parse error) *)
let restrict_approaches = function
  | [] -> ()
  | names ->
      Mi_core.Config.restrict_approaches
        (List.map
           (fun n ->
             match Mi_core.Checker.resolve n with
             | Ok cfg -> cfg.Mi_core.Config.approach
             | Error msg ->
                 prerr_string ("mi-experiments: " ^ msg);
                 exit 2)
           names)

let run_experiments names benchmark_names approach_names csv_dir json_path
    jobs cache_dir all list list_approaches_flag ocli faults job_timeout
    retries keep_going =
  if list then list_experiments ()
  else if list_approaches_flag then begin
    Mi_core.Checker.print_registry ();
    0
  end
  else begin
    restrict_approaches approach_names;
    let benchmarks =
      match benchmark_names with
      | [] -> None
      | names ->
          Some
            (List.map
               (fun n ->
                 match Mi_bench_kit.Suite.find n with
                 | Some b -> b
                 | None ->
                     Printf.eprintf "unknown benchmark %s (known: %s)\n" n
                       (String.concat ", " Mi_bench_kit.Suite.names);
                     exit 2)
               names)
    in
    let names =
      if all || names = [] then E.known_names () else names
    in
    let exit_code = ref 0 in
    let selected =
      List.filter_map
        (fun name ->
          match E.find name with
          | Some e -> Some (name, e)
          | None ->
              Printf.eprintf "unknown experiment %s (known: %s)\n" name
                (String.concat ", " (E.known_names ()));
              exit_code := 2;
              None)
        names
    in
    ignore
      (Mi_obs_cli.load_profile_in ~app:"mi-experiments" ocli
        : Mi_obs.Profile.t option);
    let cache = Mi_bench_kit.Icache.create ?dir:cache_dir () in
    (* the plan's cache clause damages the persisted entries once, up
       front, so the first lookups exercise the detection path *)
    Option.iter
      (fun how -> ignore (Mi_bench_kit.Icache.corrupt cache how : int))
      faults.Mi_faultkit.Fault.cache;
    let h =
      Harness.create ~jobs ~cache
        ~obs:(Mi_obs_cli.create_obs ocli)
        ~faults ?job_timeout ~retries ()
    in
    let reports =
      try
        E.run_reports ?benchmarks ~keep_going h
          (List.map snd selected)
      with Harness.Benchmark_failed (bench, reason) ->
        Printf.eprintf "mi-experiments: benchmark %s failed: %s\n" bench
          reason;
        exit 1
    in
    List.iter2
      (fun (name, _) (_, report) ->
        Printf.printf "== %s ==\n%s\n" report.E.title report.E.text;
        Option.iter (fun dir -> write_csv dir name report) csv_dir)
      selected reports;
    Option.iter
      (fun path ->
        write_json path ~obs:(Harness.obs h)
          (List.map2 (fun (n, _) (_, r) -> (n, r)) selected reports))
      json_path;
    if ocli.Mi_obs_cli.profile then begin
      let cs = Harness.cache_stats h in
      Printf.eprintf
        "[mi-experiments] jobs=%d instrumentation cache: %d hits, %d \
         misses, %d corrupt\n"
        (Harness.jobs h) cs.Harness.hits cs.Harness.misses cs.Harness.corrupt
    end;
    (* jobs that failed under --keep-going: partial results were
       reported above, but the exit status must still flag them *)
    (match Harness.failures h with
    | [] -> ()
    | _ :: _ ->
        Printf.printf "== failure manifest ==\n%s" (Harness.failure_manifest h);
        if !exit_code = 0 then exit_code := 1);
    Mi_obs_cli.finish ~app:"mi-experiments" ocli (Harness.obs h);
    !exit_code
  end

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")

let bench_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "benchmark"; "b" ] ~docv:"NAME"
        ~doc:"Restrict to the given benchmark(s).")

let approach_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "approach" ] ~docv:"APPROACH"
        ~doc:
          "Restrict registry-driven experiment matrices to the given \
           registered checker approach(es) (repeatable; default: all — \
           see --list-approaches).")

let list_approaches_arg =
  Arg.(
    value & flag
    & info [ "list-approaches" ]
        ~doc:"List the registered checker approaches and exit.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write each experiment's raw series as DIR/<name>.csv.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write every selected report (title, rendered text, raw \
           series) as one JSON document; the file is re-parsed before \
           exit so the output is guaranteed well-formed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Mi_bench_kit.Harness.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains sharding the (setup x benchmark) job matrix \
           (default: the recognized core count).  Reports are \
           byte-identical for every value.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the instrumentation cache (compiled, instrumented and \
           optimized modules) in DIR, giving cache hits across runs.")

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:
          "Run every registered experiment (the default when no \
           EXPERIMENT is named).")

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"List the registered experiments and exit.")

let cmd =
  let doc =
    "regenerate the tables and figures of 'Memory Safety Instrumentations \
     in Practice' (CGO 2025)"
  in
  Cmd.v
    (Cmd.info "mi-experiments" ~doc)
    Term.(
      const run_experiments $ names_arg $ bench_arg $ approach_arg $ csv_arg
      $ json_arg $ jobs_arg $ cache_dir_arg $ all_arg $ list_arg
      $ list_approaches_arg $ Mi_obs_cli.term $ Mi_fault_cli.inject_arg
      $ Mi_fault_cli.job_timeout_arg $ Mi_fault_cli.retries_arg
      $ Mi_fault_cli.keep_going_arg)

(* the fuzz experiment lives outside mi_bench_kit (the fuzz library
   depends on the bench kit, not vice versa) and registers here *)
let () = Mi_fuzz.Fuzz.register_experiment ()
let () = Mi_fuzz.Fuzz.register_soak_experiment ()
let () = Mi_server.Serve_exp.register_experiment ()
let () = exit (Cmd.eval' cmd)
