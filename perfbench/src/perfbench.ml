(** One benchmark process: one workload, one seed.

    {v
    perfbench.exe --workload suite-exec|fuzz-matrix|serve-mixed
                  --seed N --seconds N --trace 0|1
                  [--t0 EPOCH] [--setup-only] [--miserve EXE]
                  [--out DIR] [--programs N] [--requests N]
    v}

    Prints one JSON object as its last line: [correct], [attempted],
    [failed], [setup_s], the metrics of the run (end-to-end with
    [--trace 0], per-layer with [--trace 1]), a host fingerprint and
    diagnostics.  [perfbench/run.py] builds the tree, starts this process
    several times for the set-up measurement and prints the final line.

    [--t0] is the wall-clock time at which the caller started this
    process; set-up time runs from there to the first timed item.  With
    [--setup-only] the process stops right there. *)

module Json = Mi_obs.Json
module Mclock = Mi_support.Mclock
open Common

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let t0 = ref nan
let setup_only = ref false
let miserve = ref ""
let out = ref ".perfbench_out"
let programs = ref 0
let requests = ref 0

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME suite-exec, fuzz-matrix or serve-mixed");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "N budget that sizes the fuzz-matrix and serve-mixed blocks");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced run's per-layer metrics (1)");
    ("--t0", Arg.Set_float t0, "EPOCH when the caller started this process");
    ("--setup-only", Arg.Set setup_only, " stop after set-up");
    ("--miserve", Arg.Set_string miserve, "EXE the mi-serve daemon (serve-mixed)");
    ("--out", Arg.Set_string out, "DIR where traces and the daemon socket go");
    ("--programs", Arg.Set_int programs, "N override the fuzz-matrix block size");
    ("--requests", Arg.Set_int requests, "N override the serve-mixed request count");
  ]

(* Block sizes follow from --seconds alone, never from a clock, so a run
   does the same work on every host: fuzz-matrix judges 4 programs (about
   10 items) per second of budget, serve-mixed sends [Serve_mixed.rate]
   requests per second of budget and at least 1000.  suite-exec always
   runs the whole suite. *)
let fuzz_programs () = if !programs > 0 then !programs else max 4 (4 * !seconds)

let serve_requests () =
  if !requests > 0 then !requests
  else max 1000 (int_of_float (Serve_mixed.rate *. float !seconds))

let fingerprint () =
  Json.Obj
    [
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("workload", Json.Str !workload);
      ("seed", Json.Int !seed);
      ("seconds", Json.Int !seconds);
    ]

let finite x = if Float.is_finite x then x else if Float.is_nan x then -1. else 1e12

let print_result ~setup_s ~rss (r : result) =
  let metrics =
    if !trace = 1 then r.metrics
    else r.metrics @ [ m "peak_rss_mb" "MiB" rss ]
  in
  let metrics = List.map (fun x -> { x with value = finite x.value }) metrics in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("setup_s", Json.Float setup_s);
            ("metrics", metric_json metrics);
            ("errors", Json.List (List.map (fun s -> Json.Str s) r.errors));
            ("fingerprint", fingerprint ());
            ("extra", Json.Obj r.extra);
          ]))

let self_rss () = vm_hwm_mb "self"

let main () =
  let start = if Float.is_nan !t0 then Mclock.now () else !t0 in
  let ready () = Mclock.now () -. start in
  let traced = !trace = 1 in
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  trace_file :=
    Some (Filename.concat !out (Printf.sprintf "trace-%s-%d.json" !workload !seed));
  let setup_done setup_s = print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Float setup_s) ])) in
  match !workload with
  | "suite-exec" ->
      let programs = if !programs > 0 then !programs else 20 in
      let jobs = Suite_exec.prepare ~programs in
      let setup_s = ready () in
      if !setup_only then setup_done setup_s
      else
        let r = Suite_exec.run ~trace:traced ~programs jobs in
        print_result ~setup_s ~rss:(self_rss ()) r
  | "fuzz-matrix" ->
      let n = fuzz_programs () in
      let items = Array.of_list (Fuzz_matrix.gen_items ~seed:!seed ~programs:n ()) in
      let setup_s = ready () in
      if !setup_only then setup_done setup_s
      else
        let r = Fuzz_matrix.run ~trace:traced ~seed:!seed ~programs:n items in
        print_result ~setup_s ~rss:(self_rss ()) r
  | "serve-mixed" ->
      if !miserve = "" || not (Sys.file_exists !miserve) then begin
        prerr_endline "perfbench: serve-mixed needs --miserve EXE";
        exit 2
      end;
      let socket = Filename.concat !out (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
      let inp =
        Serve_mixed.prepare ~exe:!miserve ~socket ~seed:!seed ~n:(serve_requests ())
      in
      let setup_s = ready () in
      if !setup_only then begin
        Serve_mixed.stop inp.Serve_mixed.daemon;
        setup_done setup_s
      end
      else
        let r, rss = Serve_mixed.run ~trace:traced ~seed:!seed inp in
        print_result ~setup_s ~rss r
  | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  main ()
