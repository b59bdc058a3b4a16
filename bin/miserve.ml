(** mi-serve: the instrumentation service and its load generator.

    {v
    mi-serve --socket /tmp/mi.sock --workers 4 --queue 16   # daemon
    mi-serve --socket /tmp/mi.sock --drive --seeds 1..50 \
             -j 4 --burst 4 --shutdown                      # load + verify
    mi-serve --socket /tmp/mi.sock --workers 4 \
             --inject crash=fuzz-7,corrupt-cache=bitflip    # chaos mode
    v}

    The daemon serves compile/instrument/run requests over a
    Unix-domain socket (protocol: [Mi_server.Proto]); the drive mode
    replays a fuzz-generated job matrix against a running daemon and
    asserts byte-identity with the local batch harness.

    Exit codes — daemon: 0 after a clean [shutdown] drain.  Drive: 0
    when every request was answered and matched, 1 on any drop,
    mismatch or protocol error. *)

open Cmdliner
module Server = Mi_server.Server
module Drive = Mi_server.Drive

let range_conv : (int * int) Arg.conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "bad range %S (expected A..B)" s))
    in
    match String.index_opt s '.' with
    | Some i when i + 1 < String.length s && s.[i + 1] = '.' -> (
        let a = String.sub s 0 i in
        let b = String.sub s (i + 2) (String.length s - i - 2) in
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some lo, Some hi when lo <= hi -> Ok (lo, hi)
        | _ -> fail ())
    | _ -> (
        match int_of_string_opt s with Some n -> Ok (n, n) | None -> fail ())
  in
  Arg.conv (parse, fun ppf (a, b) -> Format.fprintf ppf "%d..%d" a b)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon binds (or drive connects to).")

let drive_arg =
  Arg.(
    value & flag
    & info [ "drive" ]
        ~doc:
          "Load-generator mode: connect to a running daemon, replay the \
           fuzz job matrix concurrently, verify byte-identity against \
           the local batch harness.")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains executing requests (daemon mode, default 2).")

let queue_arg =
  Arg.(
    value & opt int 16
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission bound on queued requests (daemon mode, default 16); \
           a full queue answers with a typed overloaded reply instead of \
           queueing without bound.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the shared instrumentation cache in DIR (daemon mode).")

let trip_arg =
  Arg.(
    value & opt int 3
    & info [ "trip" ] ~docv:"N"
        ~doc:
          "Circuit breaker: disable a tenant's approach after N \
           consecutive failures; other approaches keep serving \
           (daemon mode, default 3).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ]
        ~doc:"Log worker restarts and print final accounting (daemon mode).")

let seeds_arg =
  Arg.(
    value
    & opt range_conv (1, 25)
    & info [ "seeds" ] ~docv:"A..B"
        ~doc:"Generator seed block replayed by the drive (default 1..25).")

let variants_arg =
  Arg.(
    value
    & opt (list string) Drive.default_variants
    & info [ "variants" ] ~docv:"TAGS"
        ~doc:
          "Comma-separated oracle variant tags each seed runs under \
           (drive mode).")

let conns_arg =
  Arg.(
    value & opt int 4
    & info [ "j"; "conns" ] ~docv:"N"
        ~doc:"Concurrent drive connections (default 4).")

let burst_arg =
  Arg.(
    value & opt int 4
    & info [ "burst" ] ~docv:"N"
        ~doc:
          "Pipelined in-flight requests per connection (default 4); size \
           conns x burst above the daemon's queue bound to exercise \
           backpressure.")

let tenants_arg =
  Arg.(
    value & opt int 2
    & info [ "tenants" ] ~docv:"N"
        ~doc:"Spread requests over N tenant names (default 2).")

let timeout_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"Per-request deadline sent with every drive request.")

let verify_jobs_arg =
  Arg.(
    value
    & opt int (Mi_bench_kit.Harness.default_jobs ())
    & info [ "verify-jobs" ] ~docv:"N"
        ~doc:
          "Worker domains of the drive's local verification harness \
           (default: the recognized core count).")

let shutdown_arg =
  Arg.(
    value & flag
    & info [ "shutdown" ]
        ~doc:"Drive mode: ask the daemon to shut down after the run.")

let main socket drive workers queue cache_dir trip verbose seeds variants
    conns burst tenants timeout_ms verify_jobs shutdown faults job_timeout
    retries =
  if drive then begin
    let cfg =
      {
        (Drive.default_cfg ~socket) with
        Drive.d_seeds = seeds;
        d_variants = variants;
        d_conns = max 1 conns;
        d_burst = max 1 burst;
        d_tenants = max 1 tenants;
        d_faults = faults;
        d_timeout_ms = timeout_ms;
        d_verify_jobs = max 1 verify_jobs;
        d_shutdown = shutdown;
      }
    in
    let o = Drive.run cfg in
    print_string (Drive.summary o);
    if Drive.clean o then 0 else 1
  end
  else begin
    let cache = Mi_bench_kit.Icache.create ?dir:cache_dir () in
    (* chaos: damage the persisted entries once, at startup — they are
       quarantined and recomputed on first access *)
    Option.iter
      (fun how -> ignore (Mi_bench_kit.Icache.corrupt cache how : int))
      faults.Mi_faultkit.Fault.cache;
    let cfg =
      {
        (Server.default_cfg ~socket) with
        Server.workers = max 1 workers;
        queue_cap = max 1 queue;
        cache;
        faults;
        job_timeout;
        retries;
        trip = max 1 trip;
        verbose;
      }
    in
    let fin = Server.run cfg in
    print_endline (Server.final_line fin);
    0
  end

let cmd =
  let doc =
    "memory-safety instrumentation as a service (daemon + load generator)"
  in
  Cmd.v
    (Cmd.info "mi-serve" ~doc)
    Term.(
      const main $ socket_arg $ drive_arg $ workers_arg $ queue_arg
      $ cache_dir_arg $ trip_arg $ verbose_arg $ seeds_arg $ variants_arg
      $ conns_arg $ burst_arg $ tenants_arg $ timeout_ms_arg $ verify_jobs_arg
      $ shutdown_arg $ Mi_fault_cli.inject_arg $ Mi_fault_cli.job_timeout_arg
      $ Mi_fault_cli.retries_arg)

let () = exit (Cmd.eval' cmd)
