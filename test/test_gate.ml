(* bench/gate.exe on synthetic CI artifact directories: a complete
   directory that passes every row, then one broken artifact per case —
   the named row must fail, every other row must still pass, and the
   exit status must be 1.  Floors come from the real BENCH_*.json. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* --- a passing artifact set ------------------------------------------- *)

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

let exit_txt exits =
  String.concat ""
    (List.map (fun (r, c) -> Printf.sprintf "exit: run=%s code=%d\n" r c) exits)

let series label pts =
  Printf.sprintf {|{"label":"%s","points":[%s]}|} label
    (String.concat ","
       (List.map
          (fun (n, v) -> Printf.sprintf {|{"name":"%s","value":%g}|} n v)
          pts))

let reports rs =
  Printf.sprintf {|{"reports":[%s]}|}
    (String.concat ","
       (List.map
          (fun (name, ss) ->
            Printf.sprintf {|{"name":"%s","title":"","text":"","series":[%s]}|}
              name (String.concat "," ss))
          rs))

(* [pairs] (candidate, base) steps/s in ci.sh's order, each pair with a
   coverage run at [cov] times the candidate's speed *)
let vm_txt ?(cov = 0.95) pairs =
  String.concat ""
    (List.mapi
       (fun i (c, b) ->
         let line side v =
           Printf.sprintf "vm_steps: benches=20 steps_per_sec=%.0f side=%s pair=%d\n"
             v side (i + 1)
         in
         let cov =
           Printf.sprintf "vm_steps_cov: steps_per_sec=%.0f side=cov pair=%d\n"
             (cov *. c) (i + 1)
         in
         if i mod 2 = 0 then line "base" b ^ line "cand" c ^ cov
         else cov ^ line "cand" c ^ line "base" b)
       pairs)

(* a passing run: the candidate at twice the reference commit's speed,
   above BENCH_vm.json's min_ratio_vs_base *)
let passing_pairs = List.init 7 (fun _ -> (64e6, 32e6))

(* one --compile-units line per pair, printing [digest] and
   [instrumented_digest] *)
let compile_txt (digest, instrumented) =
  String.concat ""
    (List.init 7 (fun i ->
         Printf.sprintf
           "compile_units: units=107 reps=10 elapsed_s=1.5 units_per_s=700 \
            digest=%s instrumented_elapsed_s=0.6 \
            instrumented_units_per_s=5000 instrumented_digest=%s pair=%d\n"
           digest instrumented (i + 1)))

let golden_digests =
  let golden =
    Mi_obs.Json.of_string
      (read
         (List.find Sys.file_exists
            [ "goldens/compile_mir.json"; "test/goldens/compile_mir.json" ]))
  in
  let digest key =
    match Mi_obs.Json.member key golden with
    | Some (Mi_obs.Json.Str d) -> d
    | _ -> failwith ("compile golden lacks " ^ key)
  in
  (digest "o3_digest", digest "instrumented_digest")

let fuzz_case name tp =
  Printf.sprintf {|{"name":"%s","O3+sb":"killed","O3+lf":"killed","O3+tp":%s}|}
    name tp

let fuzz_json cases =
  Printf.sprintf {|{"findings":[],"mutants":{"missed":0,"cases":[%s]}}|}
    (String.concat "," cases)

let fuzz_cases =
  [
    fuzz_case "seed1/stack-a6[17]-write" {|{"whitelisted":"spatial"}|};
    fuzz_case "seed2/uaf-heap-read" {|"killed"|};
    fuzz_case "seed3/dfree-heap" {|"killed"|};
  ]

let drive jobs server =
  Printf.sprintf
    "drive: jobs=%d ok=%d failed=0 degraded=0 errors=0 dropped=0 \
     mismatches=0 overload-retries=0\nserver: accepted=%d %s\n"
    jobs jobs jobs server

let checkelim static =
  reports
    [
      ( "checkelim",
        [
          series "sb_static_removed_pct" static;
          series "lf_static_removed_pct" [ ("a", 60.); ("b", 70.) ];
          series "sb_dynamic_removed_pct" [ ("a", 30.); ("b", 40.) ];
          series "lf_dynamic_removed_pct" [ ("a", 20.); ("b", 50.) ];
        ] );
    ]

let chaos =
  "== fig9 (incomplete) ==\n== Table 2 ==\n== failure manifest ==\n\
   injected crash\nwall-clock budget exceeded\n"

let scaling =
  String.concat ""
    (List.map
       (fun j ->
         Printf.sprintf
           "fuzz_scaling: j=%d execs=40 guided_cells=4765 blind_cells=4319 \
            findings=0\n"
           j)
       [ 1; 2; 4; 8 ])

let eps = [ "ModuleOptimizerEarly"; "ScalarOptimizerLate"; "VectorizerStart" ]

let approaches = [ "softbound"; "lowfat"; "temporal" ]

let json_doc ?(fig9 = approaches) ?(fig12 = eps) () =
  let labelled = List.map (fun l -> series l [ ("470lbm", 1.5) ]) in
  reports
    [
      ( "table2",
        List.map
          (fun l -> series l [])
          [ "sb_checks_wide"; "lf_checks_wide"; "tp_checks_wide" ] );
      ("hotchecks", []);
      ("fig9", labelled fig9);
      ("fig10", labelled [ "optimized"; "unoptimized"; "metadata" ]);
      ("fig12", labelled fig12);
    ]

let passing =
  [
    ("exit.txt", exit_txt exits);
    ("json-j1.json", json_doc ());
    ("json-j2.json", json_doc ());
    ("vm.txt", vm_txt passing_pairs);
    ("compile.txt", compile_txt golden_digests);
    ( "mutation.json",
      reports
        [ ("mutation", [ series "mutants" [ ("total", 10.); ("survived", 0.) ] ]) ]
    );
    ("mutation.txt", "mutant\ntemporal/heap_long_read/check0  killed  by uaf_init\n");
    ("chaos-j4.txt", chaos);
    ("chaos-j1.txt", chaos);
    ("fuzz-j4.json", fuzz_json fuzz_cases);
    ("fuzz-j1.json", fuzz_json fuzz_cases);
    ("prof-j4.json", "{}");
    ("prof-j1.json", "{}");
    ("flame.txt", "benchmark:470lbm;execute 3\n");
    ("drive-crash.txt", drive 200 "restarts=4 cache-corrupt=0");
    ("drive-corrupt.txt", drive 40 "restarts=0 cache-corrupt=40");
    ("drive-one-tenant.txt", drive 40 "restarts=0 cache-corrupt=0");
    ( "mutation-opt.json",
      reports
        [
          ( "mutation-opt",
            [
              series "equivalence" [ ("cases", 12.); ("mismatches", 0.) ];
              series "mutants_full" [ ("survived", 0.) ];
              series "mutants_hoistdom" [ ("survived", 0.) ];
            ] );
        ] );
    ( "mutation-opt.txt",
      "12 corpus cases, 0 mismatches\nsoftbound/a  killed\nlowfat/b  killed\n" );
    ("checkelim-j4.json", checkelim [ ("a", 25.6); ("b", 90.) ]);
    ("checkelim-j1.json", checkelim [ ("a", 25.6); ("b", 90.) ]);
    ( "soak.json",
      {|{"findings":[],"mutants":{"total":4,"missed":0},|}
      ^ {|"vm_coverage":{"cells":3500},|}
      ^ {|"corpus":{"entries":9,"spliced":2,"grown":3}}|}
    );
    ("replay-j4.json", {|{"findings":[]}|});
    ("replay-j1.json", {|{"findings":[]}|});
    ("budget-j4.json", "{}");
    ("budget-j1.json", "{}");
    ("budget-corpus-j4/0a.json", "{}");
    ("budget-corpus-j4/state.json", "{}");
    ("budget-corpus-j1/0a.json", "{}");
    ("budget-corpus-j1/state.json", "{}");
    ("scaling.txt", scaling);
    ("soak-heap.txt", "soak_heap: execs=200 top_heap_words=6000000\n");
  ]

(* --- running the gate ------------------------------------------------- *)

(* The artifact set with [changes] applied ([None] deletes a file); the
   exit status and each row's verdict. *)
let gate changes =
  let dir = Filename.temp_dir "mi-gate" "" in
  let files =
    List.fold_left
      (fun fs (path, v) ->
        let fs = List.remove_assoc path fs in
        match v with Some c -> (path, c) :: fs | None -> fs)
      passing changes
  in
  List.iter
    (fun (path, content) ->
      let path = Filename.concat dir path in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> output_string oc content))
    files;
  let out = Filename.concat dir "gate.out" in
  (* BENCH_*.json sit in the parent of the test's build directory *)
  let code =
    Sys.command
      (Printf.sprintf "cd .. && bench/gate.exe %s > %s" (Filename.quote dir)
         (Filename.quote out))
  in
  let verdicts =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | ("PASS" | "FAIL") as v :: name :: _ -> Some (name, (v, l))
        | _ -> None)
      (String.split_on_char '\n' (read out))
  in
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  (code, verdicts)

(* the same content for the -j 4 and -j 1 artifacts of [run] *)
let both run content =
  let ext = if String.starts_with ~prefix:"chaos" run then ".txt" else ".json" in
  [ (run ^ "-j4" ^ ext, Some content); (run ^ "-j1" ^ ext, Some content) ]

let test_all_pass () =
  let code, verdicts = gate [] in
  Alcotest.(check int) "row count" 28 (List.length verdicts);
  List.iter (fun (_, (v, line)) -> Alcotest.(check string) line "PASS" v) verdicts;
  Alcotest.(check int) "exit status" 0 code

let fails row changes () =
  let code, verdicts = gate changes in
  Alcotest.(check int) "exit status" 1 code;
  List.iter
    (fun (name, (v, line)) ->
      Alcotest.(check string) line (if name = row then "FAIL" else "PASS") v)
    verdicts;
  Alcotest.(check bool) (row ^ " judged") true (List.mem_assoc row verdicts)

let () =
  Alcotest.run "gate"
    [
      ( "table",
        [
          Alcotest.test_case "every row passes" `Quick test_all_pass;
          Alcotest.test_case "json: static removal under the floor" `Quick
            (fails "checkelim-floors"
               (both "checkelim" (checkelim [ ("a", 19.9); ("b", 90.) ])));
          Alcotest.test_case "json: fig9 approaches out of registry order"
            `Quick
            (fails "json-smoke"
               (let doc = Some (json_doc ~fig9:(List.rev approaches) ()) in
                [ ("json-j1.json", doc); ("json-j2.json", doc) ]));
          Alcotest.test_case "json: fig9 lacks an approach" `Quick
            (fails "json-smoke"
               (let doc = Some (json_doc ~fig9:(List.tl approaches) ()) in
                [ ("json-j1.json", doc); ("json-j2.json", doc) ]));
          Alcotest.test_case "json: fig12 lacks an extension point" `Quick
            (fails "json-smoke"
               (let doc = Some (json_doc ~fig12:(List.tl eps) ()) in
                [ ("json-j1.json", doc); ("json-j2.json", doc) ]));
          Alcotest.test_case "json: one mutant missed" `Quick
            (fails "fuzz"
               (both "fuzz"
                  (fuzz_json
                     (fuzz_case "seed4/uaf-stack" {|"missed"|} :: fuzz_cases))));
          Alcotest.test_case "fields: vm pairs at median 0.85" `Quick
            (fails "vm-steps"
               [ ("vm.txt", Some (vm_txt (List.init 7 (fun _ -> (27.2e6, 32e6))))) ]);
          Alcotest.test_case "fields: vm pair without its base run" `Quick
            (fails "vm-steps"
               [
                 ( "vm.txt",
                   Some
                     (String.concat "\n"
                        (List.filter
                           (fun l ->
                             not (String.ends_with ~suffix:"side=base pair=4" l))
                           (String.split_on_char '\n' (vm_txt passing_pairs)))) );
               ]);
          Alcotest.test_case "fields: coverage at 0.85 of plain" `Quick
            (fails "coverage"
               [ ("vm.txt", Some (vm_txt ~cov:0.85 passing_pairs)) ]);
          Alcotest.test_case "fields: compile digest off the golden" `Quick
            (fails "compile-digest"
               [
                 ( "compile.txt",
                   Some
                     (compile_txt (String.make 32 '0', snd golden_digests)) );
               ]);
          Alcotest.test_case "fields: instrumented MIR digest differs" `Quick
            (fails "compile-digest"
               [
                 ( "compile.txt",
                   Some
                     (compile_txt (fst golden_digests, String.make 32 '0')) );
               ]);
          Alcotest.test_case "fields: drive dropped a job" `Quick
            (fails "serve-crash"
               [
                 ( "drive-crash.txt",
                   Some
                     "drive: jobs=200 ok=200 failed=0 degraded=0 errors=0 \
                      dropped=1 mismatches=0\nserver: restarts=4\n" );
               ]);
          Alcotest.test_case "fields: one-tenant reply mismatched" `Quick
            (fails "serve-one-tenant"
               [
                 ( "drive-one-tenant.txt",
                   Some
                     "drive: jobs=40 ok=40 failed=0 degraded=0 errors=0 \
                      dropped=0 mismatches=1\nserver: restarts=0\n" );
               ]);
          Alcotest.test_case "fields: a chaos run exited 0" `Quick
            (fails "exits"
               [
                 ( "exit.txt",
                   Some
                     (exit_txt
                        (List.map
                           (fun (r, c) -> (r, if r = "chaos-j1" then 0 else c))
                           exits)) );
               ]);
          Alcotest.test_case "contains: manifest missing" `Quick
            (fails "chaos" (both "chaos" "== fig9 (incomplete) ==\n"));
          Alcotest.test_case "same: corpus dir with an extra file" `Quick
            (fails "budget-corpus-det" [ ("budget-corpus-j1/ff.json", Some "{}") ]);
          Alcotest.test_case "same: reports differ" `Quick
            (fails "fuzz-det"
               [ ("fuzz-j1.json", Some (fuzz_json (List.tl fuzz_cases))) ]);
          Alcotest.test_case "missing artifact" `Quick
            (fails "soak" [ ("soak.json", None) ]);
          Alcotest.test_case "unparsable artifact" `Quick
            (fails "soak" [ ("soak.json", Some {|{"findings":[|}) ]);
          Alcotest.test_case "fields: soak heap over its bound" `Quick
            (fails "soak-heap"
               [
                 ( "soak-heap.txt",
                   Some "soak_heap: execs=200 top_heap_words=27659173\n" );
               ]);
        ] );
    ]
