(** Shared fault-injection and fault-tolerance options.

    Each command takes only the options it honours:

    - [--inject SPEC] parses a {!Mi_faultkit.Fault.t} plan (see the
      spec grammar in {!Mi_faultkit.Fault.parse}); every command;
    - [--job-timeout SECONDS] arms a per-job wall-clock budget; every
      command but mifuzz;
    - [--retries N] re-attempts failed jobs with exponential backoff
      (mi-experiments, mi-serve);
    - [--keep-going] degrades gracefully: failed jobs yield partial
      results plus a failure manifest instead of aborting
      (mi-experiments).

    A malformed [--inject] spec is a cmdliner CLI error (exit 124). *)

open Cmdliner
module Fault = Mi_faultkit.Fault

let fault_conv : Fault.t Arg.conv =
  let parse s =
    match Fault.parse s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg ("bad --inject spec: " ^ msg))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Fault.to_string p))

let inject_arg =
  Arg.(
    value
    & opt fault_conv Fault.none
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "inject deterministic faults: comma-separated clauses \
           $(b,del-check=K[@FUNC]), \
           $(b,weaken-check=K[@FUNC]), $(b,wild-write=STEP:ADDR:VALUE), \
           $(b,fuel=N), $(b,trap-at=STEP), \
           $(b,corrupt-cache=truncate|bitflip|stale), $(b,crash=SUBSTR), \
           $(b,hang=SUBSTR:SECONDS)")

let job_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "job-timeout" ] ~docv:"SECONDS"
        ~doc:
          "per-job wall-clock budget; a job over budget fails with a \
           timeout instead of stalling the run")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "re-attempt a failed job up to N times with exponential \
           backoff (10ms doubling, at most 250ms per sleep) before \
           recording the failure (default 0)")

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "keep-going" ]
        ~doc:
          "do not abort on a failed job: complete the matrix, report \
           partial results, print the failure manifest, exit nonzero")
