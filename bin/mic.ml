(** MiniC compiler driver.

    {v
    mic prog.c                 # compile + run at -O3
    mic -O0 prog.c --emit-ir   # show the naive MIR
    mic prog.c --emit-ir       # show the optimized MIR
    mic prog.c --instrument softbound --emit-ir
    v} *)

open Cmdliner
module Pipeline = Mi_passes.Pipeline
module Config = Mi_core.Config

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --check-opt: comma-separated elimination passes layered onto the
   instrumentation config.  The checker's capability flags still veto
   passes it declares unsound (e.g. the temporal checker rejects all
   three), so requesting "all" is always safe. *)
let apply_check_opt spec (cfg : Config.t) : Config.t =
  List.fold_left
    (fun cfg pass ->
      match pass with
      | "" -> cfg
      | "all" -> Config.optimized_full cfg
      | "dominance" | "dom" -> { cfg with Config.opt_dominance = true }
      | "hoist" -> { cfg with Config.opt_hoist = true }
      | "static" -> { cfg with Config.opt_static = true }
      | other ->
          Printf.eprintf
            "bad --check-opt pass %s (expected dominance, hoist, static, or \
             all)\n"
            other;
          exit 2)
    cfg
    (List.map String.trim (String.split_on_char ',' spec))

let run_mic file_opt level_s instrument_s check_opt_s ep_s emit_ir no_run
    i64_ptrs diagnose list_approaches_flag ocli faults job_timeout =
  if list_approaches_flag then begin
    Mi_core.Checker.print_registry ();
    exit 0
  end;
  let file =
    match file_opt with
    | Some f -> f
    | None ->
        prerr_endline "mic: required argument FILE.c is missing";
        exit 2
  in
  (* mic compiles once and runs once: the check and VM clauses of the
     plan apply, the job (crash=, hang=) and cache (corrupt-cache=)
     clauses would have nothing to act on *)
  (match
     Mi_faultkit.Fault.to_string { faults with checks = []; vm = [] }
   with
  | "" -> ()
  | unhonoured ->
      Printf.eprintf
        "mic: --inject %s: mic runs no job session and opens no cache \
         (it honours del-check, weaken-check, wild-write, fuel, trap-at)\n"
        (List.hd (String.split_on_char ',' unhonoured));
      exit 2);
  let level =
    match Pipeline.level_of_name level_s with
    | Some l -> l
    | None ->
        Printf.eprintf "bad -O level %s\n" level_s;
        exit 2
  in
  let ep =
    match Pipeline.ep_of_name ep_s with
    | Some e -> e
    | None ->
        Printf.eprintf "bad extension point %s\n" ep_s;
        exit 2
  in
  let config =
    match instrument_s with
    | "" -> None
    | s -> (
        (* any registered checker name or alias; unknown names list the
           registry rather than failing as a parse error *)
        match Mi_core.Checker.resolve s with
        | Ok cfg -> Some cfg
        | Error msg ->
            prerr_string ("mic: " ^ msg);
            exit 2)
  in
  let config =
    match (config, check_opt_s) with
    | _, "" -> config
    | Some cfg, spec -> Some (apply_check_opt spec cfg)
    | None, _ ->
        prerr_endline "mic: --check-opt requires --instrument";
        exit 2
  in
  let src = read_file file in
  let mode = { Mi_minic.Lower.ptr_mem_as_i64 = i64_ptrs } in
  let m =
    try Mi_minic.Lower.compile ~mode ~name:(Filename.basename file) src
    with Mi_minic.Lower.Compile_error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
  in
  if diagnose then begin
    (* static hazard report (§4.7), on the unoptimized lowering *)
    match Mi_core.Diagnose.analyze_module m with
    | [] -> prerr_endline "[mic] diagnose: no instrumentation hazards found"
    | ds ->
        List.iter
          (fun d ->
            Printf.eprintf "[mic] diagnose: %s\n" (Mi_core.Diagnose.to_string d))
          ds
  end;
  let obs = Mi_obs_cli.create_obs ocli in
  ignore (Mi_obs_cli.load_profile_in ~app:"mic" ocli : Mi_obs.Profile.t option);
  let finish_obs () = Mi_obs_cli.finish ~app:"mic" ocli obs in
  let instrument =
    Option.map
      (fun cfg m -> ignore (Mi_core.Instrument.run ~obs ~faults cfg m))
      config
  in
  Pipeline.run ~level ?instrument ~ep ~tracer:obs.Mi_obs.Obs.trace m;
  (match Mi_mir.Verify.verify_module m with
  | [] -> ()
  | errs ->
      List.iter
        (fun e ->
          Printf.eprintf "verifier: %s\n" (Mi_mir.Verify.error_to_string e))
        errs;
      exit 1);
  if emit_ir then print_string (Mi_mir.Printer.module_to_string m);
  if not no_run then begin
    let st =
      Mi_vm.State.create ~metrics:obs.Mi_obs.Obs.metrics
        ~sites:obs.Mi_obs.Obs.sites ?coverage:obs.Mi_obs.Obs.coverage ()
    in
    Mi_vm.Builtins.install st;
    let alloc_global =
      match config with
      | Some cfg ->
          Mi_runtimes.Runtimes.install cfg ~modules:[ (m, true) ] st
      | None -> None
    in
    Mi_vm.Inject.install faults st;
    Option.iter
      (fun budget ->
        Mi_vm.Inject.arm_deadline st
          ~deadline:(Mi_support.Mclock.deadline budget)
          ~budget)
      job_timeout;
    let img = Mi_vm.Interp.load ?alloc_global st [ m ] in
    let res =
      try
        Mi_obs.Trace.with_span obs.Mi_obs.Obs.trace ~cat:"mic" "execute"
          (fun () -> Mi_vm.Interp.run st img)
      with Mi_faultkit.Fault.Job_timeout budget ->
        Printf.eprintf "[mic] wall-clock budget exceeded (%gs)\n" budget;
        finish_obs ();
        exit 3
    in
    print_string res.output;
    Printf.eprintf "[mic] cycles=%d dynamic-instructions=%d\n" res.cycles
      res.steps;
    finish_obs ();
    match res.outcome with
    | Mi_vm.Interp.Exited code -> exit code
    | Mi_vm.Interp.Safety_violation { checker; reason } ->
        Printf.eprintf "[mic] %s: %s\n" checker reason;
        exit 134
    | Mi_vm.Interp.Trapped msg ->
        Printf.eprintf "[mic] trap: %s\n" msg;
        exit 139
    | Mi_vm.Interp.Exhausted budget ->
        Printf.eprintf "[mic] resource exhaustion: fuel budget of %d spent\n"
          budget;
        exit 3
  end;
  finish_obs ();
  0

let file_arg =
  (* optional at the parser level so [--list-approaches] works alone;
     run_mic enforces its presence for every other invocation *)
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.c")

let level_arg =
  Arg.(value & opt string "3" & info [ "O" ] ~docv:"LEVEL" ~doc:"0, 1, or 3")

let instr_arg =
  Arg.(
    value & opt string ""
    & info
        [ "instrument"; "i"; "approach" ]
        ~docv:"APPROACH"
        ~doc:
          "any registered checker (see --list-approaches), e.g. softbound, \
           lowfat, temporal")

let check_opt_arg =
  Arg.(
    value & opt string ""
    & info [ "check-opt" ] ~docv:"PASSES"
        ~doc:
          "comma-separated check-elimination passes: dominance (redundant \
           checks dominated by a wider one), hoist (loop-invariant checks \
           widened into the preheader), static (checks proven in-bounds by \
           the constraint pass), or all; requires --instrument.  Passes the \
           checker declares unsound for itself are silently skipped")

let list_approaches_arg =
  Arg.(
    value & flag
    & info [ "list-approaches" ]
        ~doc:"print the registered checker approaches and exit")

let ep_arg =
  Arg.(
    value
    & opt string "VectorizerStart"
    & info [ "ep" ] ~docv:"POINT"
        ~doc:
          "pipeline extension point: ModuleOptimizerEarly, \
           ScalarOptimizerLate, or VectorizerStart")

let emit_arg =
  Arg.(value & flag & info [ "emit-ir" ] ~doc:"print the final MIR")

let norun_arg = Arg.(value & flag & info [ "no-run" ] ~doc:"compile only")

let i64_arg =
  Arg.(
    value & flag
    & info [ "ptr-mem-as-i64" ]
        ~doc:
          "lower in-memory pointer moves through i64 (the Figure 7 \
           compiler-version behaviour)")

let diagnose_arg =
  Arg.(
    value & flag
    & info [ "diagnose" ]
        ~doc:
          "report static instrumentation hazards: int-to-pointer casts, \
           pointers stored as integers, size-zero extern arrays, \
           oversized allocations, byte-wise copy loops (§4.7)")

let cmd =
  Cmd.v
    (Cmd.info "mic" ~doc:"MiniC compiler with memory-safety instrumentation")
    Term.(
      const run_mic $ file_arg $ level_arg $ instr_arg $ check_opt_arg
      $ ep_arg $ emit_arg $ norun_arg $ i64_arg $ diagnose_arg
      $ list_approaches_arg $ Mi_obs_cli.term $ Mi_fault_cli.inject_arg
      $ Mi_fault_cli.job_timeout_arg)

let () = exit (Cmd.eval' cmd)
