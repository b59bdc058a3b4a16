(** Run a MiniC program under every registered memory-safety checker
    and compare their verdicts — the "sanitize my program" workflow of
    the paper's artifact.

    {v
    memsafe prog.c            # verdicts from every registered checker
    memsafe --approach tp prog.c    # just the temporal checker
    memsafe --list-approaches       # what is registered
    memsafe --cases           # replay the §4 usability case studies
    memsafe --profile prog.c  # per-check-site hit/cycle profile
    memsafe --trace t.json prog.c   # Chrome trace of compile+run
    memsafe --inject fuel=1000 prog.c    # fault-injected run
    v}

    Exit status: 0 when the program runs to completion under every
    selected checker, 1 when any reports a safety violation or traps, 2
    on usage errors and when the program does not compile or link (one
    [memsafe: FILE: ...] line), 3 on resource exhaustion (fuel budget
    spent — e.g. an infinite loop — or a [--job-timeout] exceeded)
    without any violation. *)

open Cmdliner
module Config = Mi_core.Config
module Harness = Mi_bench_kit.Harness
module Usability = Mi_bench_kit.Usability

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let verdict_string (r : Harness.run) =
  match r.outcome with
  | Mi_vm.Interp.Exited code -> Printf.sprintf "ran to completion (exit %d)" code
  | Mi_vm.Interp.Safety_violation { checker; reason } ->
      Printf.sprintf "VIOLATION reported by %s: %s" checker reason
  | Mi_vm.Interp.Trapped msg -> Printf.sprintf "VM trap: %s" msg
  | Mi_vm.Interp.Exhausted budget ->
      Printf.sprintf "RESOURCE EXHAUSTION: fuel budget of %d spent \
                      (infinite loop?)" budget

(* resolve the [--approach] selections against the registry; [] means
   every registered approach.  Unknown names print the registry and
   exit 2 — an unknown checker is a lookup miss, not a parse error. *)
let resolve_approaches = function
  | [] -> Config.known_approaches ()
  | names ->
      List.map
        (fun n ->
          match Mi_core.Checker.resolve n with
          | Ok cfg -> cfg.Config.approach
          | Error msg ->
              prerr_string ("memsafe: " ^ msg);
              exit 2)
        names

let run_file ~ocli ~faults ~job_timeout ~approaches ~optimize file =
  let name = Filename.basename file in
  let bench =
    Mi_bench_kit.Bench.mk ~suite:Mi_bench_kit.Bench.CPU2006 ~descr:file name
      [ Mi_bench_kit.Bench.src name (read_file file) ]
  in
  (* one session, so one observability context across every approach:
     counters are prefixed (sb./lf./tp.) and sites carry their approach,
     so the registries compose; the trace then shows each compile+run
     pipeline.  The session arms the deadline and types every failure. *)
  let obs = Mi_obs_cli.create_obs ocli in
  ignore (Mi_obs_cli.load_profile_in ~app:"memsafe" ocli : Mi_obs.Profile.t option);
  let h = Harness.create ~jobs:1 ~obs ~faults ?job_timeout () in
  let bad = ref false in
  let exhausted = ref false in
  List.iter
    (fun approach ->
      let label = Config.approach_name approach in
      let cfg = Config.of_approach approach in
      (* the capability veto masks passes a checker declares unsound,
         so requesting everything is safe for every approach *)
      let cfg = if optimize then Config.optimized_full cfg else cfg in
      let setup = Harness.with_config cfg Harness.baseline in
      let r =
        match
          Mi_obs.Trace.with_span obs.Mi_obs.Obs.trace ~cat:"memsafe" label
            (fun () -> Harness.run h setup bench)
        with
        | Ok r -> r
        | Error e -> (
            (* a timeout is resource exhaustion; a compile or link
               error is the program's, like a usage error *)
            match (List.hd (Harness.failures h)).Harness.jf_kind with
            | Harness.Timeout ->
                Printf.eprintf "memsafe: %s\n" e.Harness.reason;
                exit 3
            | Harness.Crash | Harness.Injected ->
                Printf.eprintf "memsafe: %s: %s\n" file e.Harness.reason;
                exit 2)
      in
      (match r.outcome with
      | Mi_vm.Interp.Exited _ -> ()
      | Mi_vm.Interp.Exhausted _ -> exhausted := true
      | Mi_vm.Interp.Safety_violation _ | Mi_vm.Interp.Trapped _ ->
          bad := true);
      Printf.printf "%-18s %s\n" (label ^ ":") (verdict_string r);
      if r.output <> "" then
        Printf.printf "%-18s %s\n" "  program output:"
          (String.concat " | " (String.split_on_char '\n' (String.trim r.output))))
    approaches;
  (* sites carry their approach, so one merged profile covers them all *)
  Mi_obs_cli.finish ~app:"memsafe" ocli obs;
  (* a violation outranks exhaustion: exit 3 only for clean-but-starved *)
  if !bad then 1 else if !exhausted then 3 else 0

let run_cases ~approaches =
  List.iter
    (fun (c : Usability.case) ->
      Printf.printf "--- %s (§%s) ---\n" c.case_name c.section;
      List.iter
        (fun approach ->
          let verdict, _ = Usability.run_case c approach in
          let expected = Usability.expected c approach in
          Printf.printf "  %-10s %-18s (expected: %s)%s\n"
            (Config.approach_name approach)
            (Usability.verdict_to_string verdict)
            (Usability.verdict_to_string expected)
            (if verdict = expected then "" else "  <-- MISMATCH"))
        approaches;
      Printf.printf "  %s\n\n" c.explain)
    (Usability.all @ Mi_bench_kit.Excluded.all);
  0

let main file cases approach_names optimize list_approaches_flag ocli faults
    job_timeout =
  if list_approaches_flag then begin
    Mi_core.Checker.print_registry ();
    0
  end
  else
    let approaches = resolve_approaches approach_names in
    if cases then run_cases ~approaches
    else
      match file with
      | Some f when Sys.file_exists f ->
          run_file ~ocli ~faults ~job_timeout ~approaches ~optimize f
      | Some f ->
          Printf.eprintf "memsafe: no such file %s\n" f;
          2
      | None ->
          prerr_endline "memsafe: expected FILE.c or --cases";
          2

let file_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.c")

let approach_arg =
  Arg.(
    value & opt_all string []
    & info [ "approach" ] ~docv:"APPROACH"
        ~doc:
          "check under this registered approach only (repeatable; default: \
           all registered approaches)")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize" ]
        ~doc:
          "run each checker with every check-elimination pass it supports \
           (dominance, static in-bounds, loop-invariant hoisting); verdicts \
           must match the unoptimized run")

let list_approaches_arg =
  Arg.(
    value & flag
    & info [ "list-approaches" ]
        ~doc:"print the registered checker approaches and exit")

let cases_arg =
  Arg.(
    value & flag
    & info [ "cases" ]
        ~doc:"replay the paper's §4 usability case studies instead")

let cmd =
  Cmd.v
    (Cmd.info "memsafe"
       ~doc:"check a MiniC program with every registered memory-safety checker"
       ~exits:
         (Cmd.Exit.info 0 ~doc:"ran to completion under every selected checker"
         :: Cmd.Exit.info 1 ~doc:"a safety violation or VM trap was reported"
         :: Cmd.Exit.info 2
              ~doc:
                "usage error (missing file, unknown approach, bad output \
                 path), or the program does not compile or link"
         :: Cmd.Exit.info 3
              ~doc:
                "resource exhaustion: the fuel budget was spent (infinite \
                 loop?) or the wall-clock budget ran out, with no violation"
         :: Cmd.Exit.defaults))
    Term.(
      const main $ file_arg $ cases_arg $ approach_arg $ optimize_arg
      $ list_approaches_arg $ Mi_obs_cli.term $ Mi_fault_cli.inject_arg
      $ Mi_fault_cli.job_timeout_arg)

let () = exit (Cmd.eval' cmd)
