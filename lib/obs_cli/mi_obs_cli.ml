(** Shared observability command line.

    Every driver (mic, memsafe, mi-experiments) used to declare its own
    [--profile]/[--trace] flags with slightly different wording and
    output conventions.  This module gives all of them one {!term} and
    one {!finish} renderer, so observability options parse and render
    identically everywhere:

    - [--profile] prints the top-N hottest instrumentation sites to
      stderr (N from [--profile-top], default 20);
    - [--trace FILE.json] writes a Chrome trace_event document;
    - [--metrics FILE.json] writes the metrics registry (counters,
      gauges, histograms) as deterministic JSON;
    - [--profile-out FILE.json] writes a persistent profile
      ({!Mi_obs.Profile}: check sites, VM coverage maps, metrics
      snapshot, span counts) and turns VM coverage recording on;
    - [--profile-in FILE.json] loads and validates a prior profile; with
      [--profile-out] the new profile accumulates onto it (the
      profile-guided workflow: run, merge, feed back).

    Diagnostics are prefixed with the application name and go to stderr;
    unwritable output files and invalid input profiles exit with the
    usage status (2). *)

open Cmdliner

type t = {
  profile : bool;
  profile_n : int;
  trace : string option;
  metrics : string option;
  profile_out : string option;
  profile_in : string option;
}

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "print the hottest instrumentation sites (hits, wide hits, \
           modeled check cycles) to stderr at exit; see $(b,--profile-top)")

let profile_n_arg =
  Arg.(
    value & opt int 20
    & info [ "profile-top" ] ~docv:"N"
        ~doc:"number of sites $(b,--profile) prints (default 20)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.json"
        ~doc:
          "write a Chrome trace_event JSON of the compile and execute \
           spans (load in chrome://tracing or Perfetto)")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE.json"
        ~doc:
          "write the metrics registry (counters, gauges, histograms) as \
           deterministic JSON")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE.json"
        ~doc:
          "write a persistent profile (check sites, VM block/edge \
           coverage, metrics snapshot, span counts) as deterministic \
           JSON; also enables VM coverage recording for this run.  \
           Inspect or diff it with $(b,mireport)")

let profile_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-in" ] ~docv:"FILE.json"
        ~doc:
          "load and validate a profile written by $(b,--profile-out); \
           with $(b,--profile-out) the new profile is merged onto it, \
           accumulating counts across runs")

let term : t Term.t =
  let mk profile profile_n trace metrics profile_out profile_in =
    { profile; profile_n; trace; metrics; profile_out; profile_in }
  in
  Term.(
    const mk $ profile_arg $ profile_n_arg $ trace_arg $ metrics_arg
    $ profile_out_arg $ profile_in_arg)

let quiet =
  {
    profile = false;
    profile_n = 20;
    trace = None;
    metrics = None;
    profile_out = None;
    profile_in = None;
  }

(** Whether this invocation needs VM coverage recording — used to decide
    the [~coverage] flag of the observability context. *)
let wants_coverage (o : t) = o.profile_out <> None

(** The observability context matching the parsed options: coverage
    recording is on exactly when a persistent profile was requested. *)
let create_obs (o : t) = Mi_obs.Obs.create ~coverage:(wants_coverage o) ()

let write_text ~app ~what path text =
  try
    let oc = open_out path in
    output_string oc text;
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "[%s] %s written to %s\n" app what path
  with Sys_error msg ->
    Printf.eprintf "[%s] cannot write %s: %s\n" app what msg;
    exit 2

(** Load [--profile-in] (exits 2 with a diagnostic when invalid).  Call
    early so a bad input fails before any expensive work; {!finish}
    reuses the result when merging.  [None] when the option is absent. *)
let load_profile_in ~app (o : t) =
  Option.map
    (fun path ->
      try Mi_obs.Profile.load path
      with Mi_obs.Profile.Invalid_profile msg ->
        Printf.eprintf "[%s] invalid profile %s: %s\n" app path msg;
        exit 2)
    o.profile_in

(** Render everything the options requested from [obs].  Call once,
    after the run; safe to call with {!quiet} (does nothing). *)
let finish ~app (o : t) (obs : Mi_obs.Obs.t) =
  if o.profile then
    prerr_string
      (Mi_obs.Site.render ~n:o.profile_n
         (Mi_obs.Site.snapshot obs.Mi_obs.Obs.sites));
  Option.iter
    (fun path ->
      write_text ~app ~what:"metrics" path
        (Mi_obs.Metrics.to_string obs.Mi_obs.Obs.metrics))
    o.metrics;
  Option.iter
    (fun path ->
      (try Mi_obs.Trace.write_file obs.Mi_obs.Obs.trace path
       with Sys_error msg ->
         Printf.eprintf "[%s] cannot write trace: %s\n" app msg;
         exit 2);
      Printf.eprintf "[%s] trace written to %s (%d events)\n" app path
        (Mi_obs.Trace.event_count obs.Mi_obs.Obs.trace))
    o.trace;
  Option.iter
    (fun path ->
      let p = Mi_obs.Profile.of_obs obs in
      let p =
        match load_profile_in ~app o with
        | Some prior -> Mi_obs.Profile.merge prior p
        | None -> p
      in
      (try Mi_obs.Profile.save p path
       with Sys_error msg ->
         Printf.eprintf "[%s] cannot write profile: %s\n" app msg;
         exit 2);
      Printf.eprintf "[%s] profile written to %s (%d sites, %d functions)\n"
        app path
        (List.length p.Mi_obs.Profile.pr_sites)
        (List.length p.Mi_obs.Profile.pr_coverage))
    o.profile_out;
  (* --profile-in without --profile-out: validation only *)
  if o.profile_out = None then
    match load_profile_in ~app o with
    | Some p ->
        Printf.eprintf "[%s] profile %s is valid (%d sites, %d functions)\n"
          app
          (Option.get o.profile_in)
          (List.length p.Mi_obs.Profile.pr_sites)
          (List.length p.Mi_obs.Profile.pr_coverage)
    | None -> ()
