(** Differential fuzzing driver.

    {v
    mifuzz --seeds 1..500 --mutants 1..100 -j 4 --out fuzz.json
    mifuzz --seeds 7..7 --repro-dir repros \
           --inject del-check                   # seeded failure + shrink
    mifuzz --corpus corpus/ --minutes 10        # evolutionary soak (resumable)
    mifuzz --corpus corpus/ --max-execs 200     # same, deterministic budget
    mifuzz --corpus corpus/ --replay            # re-run + verify every entry
    mifuzz --corpus corpus/ --replay --entry 1af0b2c9d3e4  # one entry
    v}

    One campaign engine ({!Mi_fuzz.Fuzz}), driven three ways: a seed
    block ({!Mi_fuzz.Fuzz.run}), a soak over a [--corpus]
    ({!Mi_fuzz.Fuzz.soak_run}), or a [--replay] of one.  Every safe
    program runs the full oracle matrix (optimization levels ×
    SoftBound/Low-Fat/Temporal × extension points × VM dispatch modes)
    and must match the uninstrumented [-O0] reference exactly; every
    mutant seed additionally derives one unsafe mutant that every
    in-scope checker must report (whitelists aside).  Flags of the
    other modes are usage errors (exit 2): [--minutes]/[--max-execs]
    need [--corpus], [--entry] needs [--replay].  The JSON report is
    byte-identical for every [-j]. *)

open Cmdliner
module Fuzz = Mi_fuzz.Fuzz
module Harness = Mi_bench_kit.Harness
module Json = Mi_obs.Json

let range_conv : (int * int) Arg.conv =
  let parse s =
    let fail () = Error (`Msg (Printf.sprintf "bad range %S (expected A..B)" s)) in
    match String.index_opt s '.' with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '.'
           && i + 2 <= String.length s -> (
        let a = String.sub s 0 i in
        let b = String.sub s (i + 2) (String.length s - i - 2) in
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some lo, Some hi when lo <= hi -> Ok (lo, hi)
        | _ -> fail ())
    | _ -> (
        (* a single seed is the range N..N *)
        match int_of_string_opt s with Some n -> Ok (n, n) | None -> fail ())
  in
  Arg.conv (parse, fun ppf (a, b) -> Format.fprintf ppf "%d..%d" a b)

let seeds_arg =
  Arg.(
    value
    & opt range_conv (1, 100)
    & info [ "seeds" ] ~docv:"A..B"
        ~doc:"Safe seed block (inclusive); each seed is one generated program.")

let mutants_arg =
  Arg.(
    value
    & opt (some range_conv) None
    & info [ "mutants" ] ~docv:"A..B"
        ~doc:
          "Seed block to derive unsafe mutants from (default: the first \
           fifth of $(b,--seeds)).  Pass an empty share by naming a range \
           outside the seed block if undesired.")

let jobs_arg =
  Arg.(
    value
    & opt int (Harness.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the recognized core count).  The \
           report is byte-identical for every value.")

let minutes_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "minutes" ] ~docv:"M"
        ~doc:
          "With $(b,--corpus): keep evolving the corpus until M minutes \
           have elapsed.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the campaign report as JSON (deterministic bytes).")

let repro_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-dir" ] ~docv:"DIR"
        ~doc:
          "Shrink each failing case and emit the minimized translation \
           units plus INFO.txt under DIR/<slug>/.")

let max_shrinks_arg =
  Arg.(
    value & opt int 5
    & info [ "max-shrinks" ] ~docv:"N"
        ~doc:"Cap on shrunk repros emitted per campaign (default 5).")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Coverage-guided mode: evolve a persistent corpus under DIR \
           (created if needed; resumes if it exists).  Combine with \
           $(b,--minutes) or $(b,--max-execs) for a soak, or with \
           $(b,--replay) to re-verify the stored entries.")

let replay_arg =
  Arg.(
    value & flag
    & info [ "replay" ]
        ~doc:
          "With $(b,--corpus): deterministically re-run every stored entry \
           through the whole oracle matrix and verify its recorded coverage \
           fingerprint.  The report is byte-identical for every $(b,-j).")

let entry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "entry" ] ~docv:"ID"
        ~doc:
          "With $(b,--replay): restrict the replay to entries whose content \
           id starts with ID (a prefix is enough).")

let max_execs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-execs" ] ~docv:"N"
        ~doc:
          "With $(b,--corpus): hard cap on programs run through the matrix \
           (safe candidates + mutants, lifetime).  A fixed budget makes \
           soak results deterministic and independent of wall-clock speed; \
           combine with $(b,--minutes) to stop at whichever limit is hit \
           first.")

let main (slo, shi) mutants jobs minutes out repro_dir max_shrinks corpus
    replay entry max_execs faults =
  (* flags that belong to one mode only: usage errors elsewhere *)
  let misuse =
    match corpus with
    | None when replay || entry <> None ->
        Some "--replay/--entry require --corpus DIR"
    | None when minutes <> None || max_execs <> None ->
        Some "--minutes/--max-execs require --corpus DIR"
    | Some _ when entry <> None && not replay -> Some "--entry requires --replay"
    | Some dir when replay && not (Sys.file_exists dir && Sys.is_directory dir)
      ->
        Some (Printf.sprintf "--replay: no corpus directory %s" dir)
    | _ -> None
  in
  let usage msg =
    prerr_endline ("mifuzz: " ^ msg);
    exit 2
  in
  Option.iter usage misuse;
  let report =
    match corpus with
    | Some dir when replay ->
        let r = Fuzz.replay ~jobs ~faults ?entry ~dir () in
        (match entry with
        | Some id when r.Fuzz.r_safe_total = 0 ->
            usage (Printf.sprintf "--entry %s matches no entry in %s" id dir)
        | _ -> ());
        r
    | Some dir ->
        Fuzz.soak_run
          (Fuzz.soak_config ~jobs ~faults ?repro_dir ~max_shrinks ?minutes
             ?max_execs ~seed_start:slo ~corpus_dir:dir ())
    | None ->
        (* default mutant block: the first fifth of the seed block *)
        let n = (shi - slo + 1) / 5 in
        let mutants =
          match mutants with
          | Some _ -> mutants
          | None -> if n = 0 then None else Some (slo, slo + n - 1)
        in
        Fuzz.run
          (Fuzz.campaign ~jobs ~faults ?repro_dir ~max_shrinks ?mutants
             ~seeds:(slo, shi) ())
  in
  print_string (Fuzz.render report);
  (match out with
  | None -> ()
  | Some path ->
      let s = Json.to_string (Fuzz.report_to_json report) in
      let oc = open_out path in
      output_string oc s;
      output_char oc '\n';
      close_out oc;
      Printf.printf "(wrote %s, %d bytes)\n" path (String.length s));
  if Fuzz.ok report then 0 else 1

let cmd =
  let doc =
    "differential fuzzing of the memory-safety instrumentation stack"
  in
  Cmd.v
    (Cmd.info "mifuzz" ~doc)
    Term.(
      const main $ seeds_arg $ mutants_arg $ jobs_arg $ minutes_arg $ out_arg
      $ repro_dir_arg $ max_shrinks_arg $ corpus_arg $ replay_arg $ entry_arg
      $ max_execs_arg $ Mi_fault_cli.inject_arg)

let () = exit (Cmd.eval' cmd)
