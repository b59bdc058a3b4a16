(** The [serve-load] experiment: the daemon vs the batch harness.

    Boots an in-process {!Server} on a private socket, replays a small
    fuzz-generated load through {!Drive} with an injected worker crash,
    and reports the deterministic outcome: every request answered, every
    response byte-identical to the batch harness, and the supervisor's
    restart count exactly the number of crash-matched requests.

    The series deliberately excludes timing-dependent numbers (overload
    rejections, latencies) so the report stays byte-identical across
    [-j] — the experiments contract. *)

module Harness = Mi_bench_kit.Harness
module Experiments = Mi_bench_kit.Experiments
module Fault = Mi_faultkit.Fault

(* seeds 1..8: the crash clause matches exactly the four requests of
   seed 3's benchmark ("fuzz-3"), so restarts = 4, deterministically *)
let seeds = (1, 8)
let crash_substr = "fuzz-3"
let expected_restarts = 4

let run_load () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mi-serve-exp-%d.sock" (Unix.getpid ()))
  in
  let faults =
    match Fault.parse ("crash=" ^ crash_substr) with
    | Ok f -> f
    | Error msg -> invalid_arg msg
  in
  let scfg =
    {
      (Server.default_cfg ~socket) with
      Server.workers = 2;
      queue_cap = 4;
      faults;
      retries = 1;
    }
  in
  let server = Domain.spawn (fun () -> Server.run scfg) in
  let dcfg =
    {
      (Drive.default_cfg ~socket) with
      Drive.d_seeds = seeds;
      d_conns = 4;
      d_burst = 2;
      d_tenants = 2;
      d_faults = faults;
      d_verify_jobs = 2;
      d_shutdown = true;
    }
  in
  let outcome = Drive.run dcfg in
  let fin = Domain.join server in
  (outcome, fin)

let register_experiment () =
  Experiments.register
    {
      Experiments.name = "serve-load";
      aliases = [ "serve" ];
      descr = "mi-serve under chaos: crash-restarts, backpressure, byte-identity";
      setups = (fun _ -> []);
      reduce =
        (fun _lookup _benchmarks ->
          let o, fin = run_load () in
          if not (Drive.clean o) then
            raise
              (Harness.Benchmark_failed
                 ( "serve-load",
                   Printf.sprintf
                     "drive not clean: jobs=%d ok=%d failed=%d errors=%d \
                      dropped=%d mismatches=%d"
                     o.Drive.o_jobs o.Drive.o_ok o.Drive.o_failed
                     o.Drive.o_errors o.Drive.o_dropped o.Drive.o_mismatches ));
          if fin.Server.f_restarts <> expected_restarts then
            raise
              (Harness.Benchmark_failed
                 ( "serve-load",
                   Printf.sprintf "expected %d supervisor restarts, saw %d"
                     expected_restarts fin.Server.f_restarts ));
          {
            Experiments.title =
              "Serving under chaos: mi-serve equals the batch harness";
            text =
              Printf.sprintf
                "%d requests over 4 connections, 2 workers, queue bound 4, \
                 injected worker crashes on %s\n\
                 answered=%d failed=%d dropped=%d mismatches=%d \
                 supervisor-restarts=%d\n"
                o.Drive.o_jobs crash_substr o.Drive.o_ok o.Drive.o_failed
                o.Drive.o_dropped o.Drive.o_mismatches fin.Server.f_restarts;
            series =
              [
                {
                  Experiments.label = "serve-load";
                  points =
                    [
                      ("jobs", float_of_int o.Drive.o_jobs);
                      ("ok", float_of_int o.Drive.o_ok);
                      ("failed", float_of_int o.Drive.o_failed);
                      ("dropped", float_of_int o.Drive.o_dropped);
                      ("mismatches", float_of_int o.Drive.o_mismatches);
                      ("restarts", float_of_int fin.Server.f_restarts);
                    ];
                };
              ];
          });
    }
