(* The CI gate table.  bench/ci.sh builds, runs every gated workload and
   collects its output in one scratch directory; [gate.exe DIR] judges
   those artifacts against the rows below.  Floors come from the
   BENCH_*.json files of the current directory, read by field name, and
   the compile-path digest from test/goldens/compile_mir.json.  The tool
   prints the host fingerprint, then one PASS/FAIL line per row, and
   exits 1 if any row fails.  A missing or unparsable artifact fails its
   row: nothing is ever skipped. *)

module Json = Mi_obs.Json

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let read path = In_channel.with_open_bin path In_channel.input_all

type fields = (string * string) list
(** The [key=value] words of one ["prefix: ..."] line. *)

type check =
  | Json of (Json.t -> string)
      (** A predicate over the parsed document; returns a detail line. *)
  | Fields of ((string -> fields list) -> string)
      (** A predicate over the [key=value] lines, looked up by prefix. *)
  | Contains of string list list
      (** Every group has at least one member in the text. *)
  | Same_as of string
      (** Byte-equal to another artifact: a file, or a directory tree. *)

type row = { name : string; artifact : string; check : check }

(* --- reading artifacts ------------------------------------------------ *)

let field path j =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> fail "no field %s" (String.concat "." path))
    j path

let num = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | j -> fail "not a number: %s" (Json.to_string j)

let list j =
  match Json.to_list j with
  | Some l -> l
  | None -> fail "not a list: %s" (Json.to_string j)

let str = function Json.Str s -> s | j -> fail "not a string: %s" (Json.to_string j)
let bench file path = num (field path (Json.of_string (read file)))

(* an experiments --json report by name, and its series as (name, value) *)
let report name doc =
  match
    List.find_opt
      (fun r -> Json.member "name" r = Some (Json.Str name))
      (list (field [ "reports" ] doc))
  with
  | Some r -> r
  | None -> fail "no %s report" name

let series r =
  List.map
    (fun s ->
      ( str (field [ "label" ] s),
        List.map
          (fun p -> (str (field [ "name" ] p), num (field [ "value" ] p)))
          (list (field [ "points" ] s)) ))
    (list (field [ "series" ] r))

let assoc what k l =
  match List.assoc_opt k l with Some v -> v | None -> fail "no %s %s" what k

let point r label name = assoc "point" name (assoc "series" label (series r))

let prefix_lines text prefix =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | p :: words when p = prefix ^ ":" ->
          Some
            (List.filter_map
               (fun w ->
                 match String.split_on_char '=' w with
                 | [ k; v ] -> Some (k, v)
                 | _ -> None)
               words)
      | _ -> None)
    (String.split_on_char '\n' text)

let get kv k = assoc "field" k kv

let fnum kv k =
  match float_of_string_opt (get kv k) with
  | Some f -> f
  | None -> fail "%s=%s is not a number" k (get kv k)

(* exact key=value pairs on the only line with [prefix] *)
let exact lines prefix want =
  match lines prefix with
  | [ kv ] ->
      List.iter
        (fun (k, v) -> if get kv k <> v then fail "%s=%s, want %s" k (get kv k) v)
        want;
      String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) want)
  | l -> fail "%d %s: lines, want 1" (List.length l) prefix

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* byte-equality of two files, or of two directory trees; the number of
   files compared *)
let rec same a b =
  if Sys.is_directory a then begin
    let ls d = List.sort compare (Array.to_list (Sys.readdir d)) in
    if ls a <> ls b then fail "%s and %s list different entries" a b;
    List.fold_left
      (fun n e -> n + same (Filename.concat a e) (Filename.concat b e))
      0 (ls a)
  end
  else if read a <> read b then
    fail "%s and %s differ" (Filename.basename a) (Filename.basename b)
  else 1

let median xs =
  let a = Array.of_list (List.sort compare xs) and n = List.length xs in
  if n = 0 then fail "no samples" else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* --- the rows --------------------------------------------------------- *)

(* Every run bench/ci.sh records in exit.txt, with its required status:
   the chaos runs must flag their injected failures (1), misused mifuzz
   flags are usage errors (2), memsafe on a program that does not
   compile exits 2, a fault-tolerance flag mic does not honour is a
   cmdliner usage error (124), an --inject clause it does not honour
   is refused (2), and every example runs clean (0). *)
let exits =
  [
    ("json-j1", 0); ("json-j2", 0); ("mutation", 0); ("chaos-j4", 1);
    ("chaos-j1", 1); ("fuzz-j4", 0); ("fuzz-j1", 0); ("probe-minutes", 2);
    ("probe-entry", 2); ("probe-replay", 2); ("probe-no-corpus", 0);
    ("probe-memsafe-compile", 2); ("probe-mic-retries", 124);
    ("probe-mic-inject", 2); ("prof-j4", 0); ("prof-j1", 0);
    ("profile-diff", 0); ("flame", 0);
    ("drive-crash", 0); ("drive-crash-daemon", 0); ("drive-corrupt", 0);
    ("drive-corrupt-daemon", 0); ("drive-one-tenant", 0);
    ("drive-one-tenant-daemon", 0); ("mutation-opt", 0); ("checkelim-j4", 0);
    ("checkelim-j1", 0); ("soak", 0); ("replay-j4", 0); ("replay-j1", 0);
    ("budget-j4", 0); ("budget-j1", 0); ("scaling", 0); ("soak-heap", 0);
    ("example-quickstart", 0); ("example-overflow_detection", 0);
    ("example-usability_pitfalls", 0); ("example-pipeline_points", 0);
  ]

let check_exits lines =
  let got = List.map (fun kv -> (get kv "run", get kv "code")) (lines "exit") in
  List.iter
    (fun (run, want) ->
      let code = assoc "run" run got in
      if code <> string_of_int want then fail "%s exited %s, want %d" run code want)
    exits;
  if List.length got <> List.length exits then
    fail "%d runs recorded, %d in the table" (List.length got) (List.length exits);
  Printf.sprintf "%d runs as required" (List.length got)

(* Figures 9-13 share one column-table reduce: each series is a
   column, in column order; Figure 9 has one per registered approach *)
let columns =
  [
    ("fig9", Mi_core.Checker.known_names ());
    ("fig10", [ "optimized"; "unoptimized"; "metadata" ]);
    ( "fig12",
      [ "ModuleOptimizerEarly"; "ScalarOptimizerLate"; "VectorizerStart" ] );
  ]

let json_smoke doc =
  ignore (report "hotchecks" doc);
  let labels name = List.map fst (series (report name doc)) in
  let table2 = labels "table2" in
  List.iter
    (fun want -> if not (List.mem want table2) then fail "table2 lacks %s" want)
    [ "sb_checks_wide"; "lf_checks_wide"; "tp_checks_wide" ];
  List.iter
    (fun (name, want) ->
      let got = labels name in
      if got <> want then
        fail "%s series [%s], want [%s]" name (String.concat "; " got)
          (String.concat "; " want))
    columns;
  "table2 + hotchecks, sb/lf/tp _checks_wide series; fig9 + fig10 + fig12 \
   columns"

(* bench/ci.sh runs [pairs] pairs, numbered 1..[pairs] (the paper's
   median of 7): base and candidate --vm-steps back to back, with a
   --vm-steps-cov run next to the candidate run, in alternating order. *)
let pairs = 7

(* steps/s of one run per pair, in pair order *)
let by_pair runs =
  if List.length runs <> pairs then
    fail "%d runs, want %d" (List.length runs) pairs;
  List.init pairs (fun i ->
      let id = string_of_int (i + 1) in
      match List.filter (fun kv -> get kv "pair" = id) runs with
      | [ kv ] -> fnum kv "steps_per_sec"
      | l -> fail "pair %s has %d runs, want 1" id (List.length l))

(* The median [num]/[den] ratio over the pairs must reach [floor].  Both
   runs of a pair ran back to back on the same host, so slow drifts in
   host load cancel and the median damps the rest; absolute steps/s are
   information only. *)
let paired ~floor num den =
  let num = by_pair num in
  let ratios = List.map2 ( /. ) num (by_pair den) in
  let m = median ratios in
  let detail =
    Printf.sprintf "median %.3f (floor %.2f); ratios %s; %.1fM steps/s" m floor
      (String.concat " " (List.map (Printf.sprintf "%.3f") ratios))
      (median num /. 1e6)
  in
  if m < floor then fail "%s" detail;
  detail

let side s lines = List.filter (fun kv -> get kv "side" = s) (lines "vm_steps")

(* the candidate against the reference commit *)
let vm_pairs lines =
  paired
    ~floor:(bench "BENCH_vm.json" [ "gate"; "min_ratio_vs_base" ])
    (side "cand" lines) (side "base" lines)

(* the candidate with coverage recording against the candidate *)
let coverage lines =
  paired
    ~floor:(bench "BENCH_coverage.json" [ "min_ratio" ])
    (lines "vm_steps_cov") (side "cand" lines)

(* bench/main.exe --compile-units, once per pair: the compiler it timed
   must print the MIR test/goldens/compile_mir.json pins, uninstrumented
   ([digest]) and along the instrumented suffix ([instrumented_digest]).
   Units/s is reported, not gated. *)
let compile_units lines =
  let golden = Json.of_string (read "test/goldens/compile_mir.json") in
  let want key = str (field [ key ] golden) in
  let o3 = want "o3_digest" and instrumented = want "instrumented_digest" in
  let runs = lines "compile_units" in
  if List.length runs <> pairs then
    fail "%d runs, want %d" (List.length runs) pairs;
  List.iter
    (fun kv ->
      List.iter
        (fun (key, want) ->
          if get kv key <> want then
            fail "pair %s: %s %s, want %s" (get kv "pair") key (get kv key)
              want)
        [ ("digest", o3); ("instrumented_digest", instrumented) ])
    runs;
  let med key = median (List.map (fun kv -> fnum kv key) runs) in
  Printf.sprintf
    "%d runs print the golden MIR (%s, instrumented %s); median %.0f \
     units/s, %.0f instrumented units/s"
    pairs o3 instrumented (med "units_per_s")
    (med "instrumented_units_per_s")

let mutants_killed doc =
  let n = point (report "mutation" doc) "mutants" in
  if n "survived" <> 0. then fail "%.0f survivors" (n "survived");
  if n "total" <= 0. then fail "no mutants";
  Printf.sprintf "%.0f mutants, 0 survivors" (n "total")

(* every mutant of the fixed block killed (or excused in writing) by each
   checker, with both spatial and temporal hazards drawn *)
let fuzz_mutants doc =
  let cases = list (field [ "mutants"; "cases" ] doc) in
  if cases = [] then fail "no mutant cases";
  let kind c =
    let name = str (field [ "name" ] c) in
    match String.split_on_char '/' name with
    | _ :: k :: _ -> List.hd (String.split_on_char '-' k)
    | _ -> fail "mutant name %s" name
  in
  List.iter
    (fun c ->
      List.iter
        (fun tag ->
          match field [ tag ] c with
          | Json.Str "killed" -> ()
          | Json.Obj _ as j when Json.member "whitelisted" j <> None -> ()
          | j -> fail "%s %s: %s" (str (field [ "name" ] c)) tag (Json.to_string j))
        [ "O3+sb"; "O3+lf"; "O3+tp" ])
    cases;
  let kinds = List.sort_uniq compare (List.map kind cases) in
  let temporal k = k = "uaf" || k = "dfree" in
  if not (List.mem "uaf" kinds && List.mem "dfree" kinds) then
    fail "no temporal mutants";
  if List.for_all temporal kinds then fail "no spatial mutants";
  Printf.sprintf "%d mutants (%s), %d temporal kills" (List.length cases)
    (String.concat "," kinds)
    (List.length
       (List.filter (fun c -> field [ "O3+tp" ] c = Json.Str "killed") cases))

let checkelim_sound doc =
  let r = report "mutation-opt" doc in
  if point r "equivalence" "mismatches" <> 0. then fail "verdict mismatches";
  List.iter
    (fun s ->
      if point r s "survived" <> 0. then
        fail "%s: %.0f survivors" s (point r s "survived"))
    [ "mutants_full"; "mutants_hoistdom" ];
  Printf.sprintf "%.0f cases equivalent, both campaigns 0 survivors"
    (point r "equivalence" "cases")

(* every (benchmark x approach) row over the static floor, and the mean
   dynamic removal over all rows above its floor *)
let checkelim_floors doc =
  let s = series (report "checkelim" doc) in
  let pts suffix =
    List.concat_map snd (List.filter (fun (l, _) -> String.ends_with ~suffix l) s)
  in
  let fmin = bench "BENCH_checkelim.json" [ "gate"; "floor_min_static_pct" ] in
  let fdyn = bench "BENCH_checkelim.json" [ "gate"; "floor_mean_dynamic_pct" ] in
  let static = pts "_static_removed_pct" in
  let dyn = List.map snd (pts "_dynamic_removed_pct") in
  if static = [] || dyn = [] then fail "no checkelim rows";
  List.iter
    (fun (b, v) -> if v < fmin then fail "%s removes %.2f%% < %.1f%%" b v fmin)
    static;
  let mean = List.fold_left ( +. ) 0. dyn /. float_of_int (List.length dyn) in
  if mean < fdyn then fail "mean dynamic %.2f%% < %.1f%%" mean fdyn;
  Printf.sprintf "%d rows >= %.1f%% static, mean dynamic %.2f%% >= %.1f%%"
    (List.length static) fmin mean fdyn

let no_findings doc =
  if list (field [ "findings" ] doc) <> [] then fail "oracle findings";
  "0 findings"

let soak doc =
  ignore (no_findings doc);
  let n path = num (field path doc) in
  let floor = bench "BENCH_fuzz.json" [ "gate"; "soak_cells_floor" ] in
  if n [ "mutants"; "missed" ] <> 0. then fail "missed mutants";
  if n [ "mutants"; "total" ] <= 0. then fail "soak ran no mutants";
  if n [ "vm_coverage"; "cells" ] < floor then
    fail "%.0f cells < floor %.0f" (n [ "vm_coverage"; "cells" ]) floor;
  if n [ "corpus"; "spliced" ] <= 0. || n [ "corpus"; "grown" ] <= 0. then
    fail "no spliced or grown entries";
  Printf.sprintf
    "%.0f cells (floor %.0f), %.0f entries (%.0f spliced, %.0f grown), 0 \
     findings"
    (n [ "vm_coverage"; "cells" ]) floor (n [ "corpus"; "entries" ])
    (n [ "corpus"; "spliced" ]) (n [ "corpus"; "grown" ])

(* guided beats blind at the same budget for every -j, at the floor, with
   a -j-invariant count *)
let fuzz_scaling lines =
  let floor = bench "BENCH_fuzz.json" [ "gate"; "guided_cells_floor" ] in
  let rows = lines "fuzz_scaling" in
  if List.map (fun kv -> get kv "j") rows <> [ "1"; "2"; "4"; "8" ] then
    fail "want rows for j=1,2,4,8";
  List.iter
    (fun kv ->
      let g = fnum kv "guided_cells" and b = fnum kv "blind_cells" in
      if g < floor then fail "j=%s: guided %.0f < floor %.0f" (get kv "j") g floor;
      if g <= b then fail "j=%s: guided %.0f <= blind %.0f" (get kv "j") g b;
      if fnum kv "findings" <> 0. then fail "j=%s: findings" (get kv "j");
      if get kv "guided_cells" <> get (List.hd rows) "guided_cells" then
        fail "guided cells vary across -j")
    rows;
  Printf.sprintf "guided %s > blind %s at j=1,2,4,8 (floor %.0f)"
    (get (List.hd rows) "guided_cells") (get (List.hd rows) "blind_cells") floor

(* the top of the heap after a fixed soak (bench/main.exe --soak-heap)
   under BENCH_fuzz.json's bound: deterministic for one OCaml version *)
let soak_heap lines =
  let max = bench "BENCH_fuzz.json" [ "gate"; "soak_top_heap_words_max" ] in
  match lines "soak_heap" with
  | [ kv ] ->
      if get kv "execs" <> "200" then fail "execs=%s, want 200" (get kv "execs");
      let words = fnum kv "top_heap_words" in
      let detail = Printf.sprintf "top_heap_words %.0f (max %.0f)" words max in
      if words > max then fail "%s" detail;
      detail
  | l -> fail "%d soak_heap: lines, want 1" (List.length l)

let drive jobs extra lines =
  let n = string_of_int jobs in
  exact lines "drive"
    [ ("jobs", n); ("ok", n); ("failed", "0"); ("degraded", "0"); ("errors", "0");
      ("dropped", "0"); ("mismatches", "0") ]
  ^ " " ^ exact lines "server" [ extra ]

let rows =
  let row name artifact check = { name; artifact; check } in
  [
    row "exits" "exit.txt" (Fields check_exits);
    row "json-smoke" "json-j1.json" (Json json_smoke);
    row "json-det" "json-j1.json" (Same_as "json-j2.json");
    row "vm-steps" "vm.txt" (Fields vm_pairs);
    row "mutation" "mutation.json" (Json mutants_killed);
    row "mutation-temporal" "mutation.txt"
      (Contains
         [ [ "\ntemporal/" ];
           [ "by uaf_init"; "by uaf_use"; "by uaf_tail"; "by double_free" ] ]);
    row "chaos" "chaos-j4.txt"
      (Contains
         [ [ "fig9 (incomplete)" ]; [ "Table 2" ]; [ "== failure manifest ==" ];
           [ "injected crash" ]; [ "wall-clock budget exceeded" ] ]);
    row "chaos-det" "chaos-j4.txt" (Same_as "chaos-j1.txt");
    row "fuzz" "fuzz-j4.json" (Json fuzz_mutants);
    row "fuzz-det" "fuzz-j4.json" (Same_as "fuzz-j1.json");
    row "profile-det" "prof-j4.json" (Same_as "prof-j1.json");
    row "flamegraph" "flame.txt" (Contains [ [ "benchmark:470lbm;" ] ]);
    row "coverage" "vm.txt" (Fields coverage);
    row "compile-digest" "compile.txt" (Fields compile_units);
    row "serve-crash" "drive-crash.txt" (Fields (drive 200 ("restarts", "4")));
    row "serve-corrupt" "drive-corrupt.txt"
      (Fields (drive 40 ("cache-corrupt", "40")));
    row "serve-one-tenant" "drive-one-tenant.txt"
      (Fields (drive 40 ("restarts", "0")));
    row "checkelim-sound" "mutation-opt.json" (Json checkelim_sound);
    row "checkelim-sound-text" "mutation-opt.txt"
      (Contains [ [ "0 mismatches" ]; [ "\nsoftbound/" ]; [ "\nlowfat/" ] ]);
    row "checkelim-floors" "checkelim-j4.json" (Json checkelim_floors);
    row "checkelim-det" "checkelim-j4.json" (Same_as "checkelim-j1.json");
    row "soak" "soak.json" (Json soak);
    row "replay" "replay-j4.json" (Json no_findings);
    row "replay-det" "replay-j4.json" (Same_as "replay-j1.json");
    row "budget-det" "budget-j4.json" (Same_as "budget-j1.json");
    row "budget-corpus-det" "budget-corpus-j4" (Same_as "budget-corpus-j1");
    row "fuzz-scaling" "scaling.txt" (Fields fuzz_scaling);
    row "soak-heap" "soak-heap.txt" (Fields soak_heap);
  ]

(* --- judging ---------------------------------------------------------- *)

let judge dir { artifact; check; _ } =
  let path = Filename.concat dir artifact in
  try
    Ok
      (match check with
      | Json p -> p (Json.of_string (read path))
      | Fields p -> p (prefix_lines (read path))
      | Contains groups ->
          let text = read path in
          List.iter
            (fun g ->
              if not (List.exists (contains text) g) then
                fail "missing %s" (String.concat " | " (List.map String.escaped g)))
            groups;
          Printf.sprintf "%d texts found" (List.length groups)
      | Same_as other ->
          Printf.sprintf "byte-identical to %s (%d files)" other
            (same path (Filename.concat dir other)))
  with
  | Failed msg -> Error msg
  | Json.Parse_error msg -> Error ("unparsable: " ^ msg)
  | e -> Error (Printexc.to_string e)

let host () =
  let cpu =
    try
      let lines = String.split_on_char '\n' (read "/proc/cpuinfo") in
      let l = List.find (String.starts_with ~prefix:"model name") lines in
      String.trim (List.nth (String.split_on_char ':' l) 1)
    with _ -> "unknown"
  in
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "host: ocaml=%s nproc=%d cpu=%S date=%04d-%02d-%02d"
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    cpu
    (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday

let () =
  match Sys.argv with
  | [| _; dir |] ->
      print_endline (host ());
      let failed =
        List.fold_left
          (fun failed r ->
            let ok, detail =
              match judge dir r with Ok d -> (true, d) | Error d -> (false, d)
            in
            Printf.printf "%s %-21s %s\n%!"
              (if ok then "PASS" else "FAIL")
              r.name detail;
            failed || not ok)
          false rows
      in
      exit (if failed then 1 else 0)
  | _ ->
      prerr_endline "usage: gate.exe DIR";
      exit 2
