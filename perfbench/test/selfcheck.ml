(* Determinism self-check of the benchmark, on small blocks.

   selfcheck.exe PERFBENCH_EXE MISERVE_EXE

   - Two untraced runs of each workload give identical overhead_* metrics
     and identical counts.
   - The traced run is correct: per job, the replica equals the harness
     path, and its counts equal the untraced run's; the count metrics of
     two traced runs are identical.
   - A second workload seed runs with no failures. *)

module Json = Mi_obs.Json

let exe = Sys.argv.(1)
let miserve = Sys.argv.(2)
let out = "selfcheck_out"
let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let run workload seed trace size =
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--trace";
       string_of_int trace; "--miserve"; miserve; "--out"; out |]
    |> Array.to_list
  in
  let cmd = Filename.quote_command (List.hd args) (List.tl args @ size) in
  let ic = Unix.open_process_in cmd in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (workload ^ ": perfbench.exe failed"));
  match List.rev (List.filter (fun l -> l <> "") lines) with
  | last :: _ -> Json.of_string last
  | [] -> failwith (workload ^ ": no output")

let field k j = Option.get (Json.member k j)

let metrics_with pred j =
  match field "metrics" j with
  | Json.Obj ms ->
      List.filter_map
        (fun (k, v) ->
          if pred k (field "unit" v) then Some (k, field "value" v) else None)
        ms
  | _ -> []

let overheads = metrics_with (fun k _ -> String.starts_with ~prefix:"overhead_" k)

(* counts of a traced run: every count metric, and the ratios of counts *)
let traced_counts =
  metrics_with (fun k u ->
      u = Json.Str "count"
      || List.mem k [ "icache.hit_ratio"; "rt.check_cycle_share" ])

let clean j =
  field "correct" j = Json.Bool true && field "failed" j = Json.Int 0

let extra_counts j = field "counts" (field "extra" j)

let () =
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  let workloads =
    [ ("suite-exec", [ "--programs"; "2" ]);
      ("fuzz-matrix", [ "--programs"; "3" ]);
      ("serve-mixed", [ "--requests"; "40" ]) ]
  in
  List.iter
    (fun (w, size) ->
      let a = run w 1 0 size and b = run w 1 0 size in
      check (w ^ ": two untraced runs are clean") (clean a && clean b);
      check (w ^ ": overhead_* identical across runs") (overheads a = overheads b);
      if w <> "serve-mixed" then
        check (w ^ ": counts identical across runs") (extra_counts a = extra_counts b);
      let t1 = run w 1 1 size and t2 = run w 1 1 size in
      check (w ^ ": traced runs are clean (replica equals harness path)")
        (clean t1 && clean t2);
      if w <> "serve-mixed" then begin
        check (w ^ ": traced count metrics identical across runs")
          (traced_counts t1 = traced_counts t2);
        let same counts_key metric =
          match (Json.member counts_key (extra_counts a),
                 List.assoc_opt metric (traced_counts t1)) with
          | Some (Json.Int n), Some (Json.Float f) -> float n = f
          | _ -> false
        in
        check (w ^ ": traced steps and cycles equal the untraced run's")
          (same "steps" "vm.steps" && same "cycles" "vm.cycles")
      end;
      check (w ^ ": a second seed runs with no failures") (clean (run w 2 0 size)))
    workloads;
  if !failures > 0 then exit 1
