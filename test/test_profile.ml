(* Persistent profile format (version 1): save/load round-trips, the
   validator rejects malformed and inconsistent documents, diff flags
   coverage drops and hit increases and nothing else, and offline merge
   mirrors Obs.merge (counters add, gauges max, associative and
   commutative up to serialized bytes). *)

open Mi_obs

let diamond = [| [| 1; 2 |]; [| 3 |]; [| 3 |]; [||] |]

(* a populated context: two check sites (one never executed), coverage
   over a diamond CFG, metrics, and nested spans *)
let mk_obs () =
  let o = Obs.create ~coverage:true ~trace:true () in
  let id =
    Site.register o.Obs.sites ~func:"main" ~construct:"load" ~approach:"sb"
  in
  Site.hit o.Obs.sites id ~wide:false ~cycles:2;
  Site.hit o.Obs.sites id ~wide:true ~cycles:2;
  ignore
    (Site.register o.Obs.sites ~func:"main" ~construct:"store" ~approach:"lf"
      : int);
  (match o.Obs.coverage with
  | Some cov ->
      let f = Coverage.register_fn cov ~name:"main" ~succ:diamond in
      Coverage.enter f 0;
      Coverage.transition f ~src:0 ~dst:1;
      Coverage.transition f ~src:1 ~dst:3
  | None -> Alcotest.fail "coverage requested but absent");
  Metrics.incr ~by:3 o.Obs.metrics "vm.steps";
  Metrics.set_gauge o.Obs.metrics "vm.peak_frames" 7;
  Trace.with_span o.Obs.trace "compile" (fun () ->
      Trace.with_span o.Obs.trace "lower" (fun () -> ()));
  o

let profile_bytes p = Json.to_string (Profile.to_json p)

let test_roundtrip () =
  let p = Profile.of_obs (mk_obs ()) in
  let file = Filename.temp_file "mi_profile" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Profile.save p file;
      let q = Profile.load file in
      Alcotest.(check bool) "structural equality" true (p = q);
      Alcotest.(check string) "byte equality" (profile_bytes p)
        (profile_bytes q);
      (* saving the loaded profile reproduces the file byte-for-byte *)
      let file2 = Filename.temp_file "mi_profile" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file2)
        (fun () ->
          Profile.save q file2;
          let slurp f =
            let ic = open_in_bin f in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          Alcotest.(check string) "file bytes stable" (slurp file)
            (slurp file2)))

let minimal =
  {|{"version":1,"sites":[],"coverage":[],"counters":{},"gauges":{},"spans":{}}|}

let expect_invalid name doc =
  match Profile.of_json (Json.of_string doc) with
  | (_ : Profile.t) -> Alcotest.failf "%s: validator accepted the document" name
  | exception Profile.Invalid_profile _ -> ()

let test_validation () =
  (* the minimal well-formed document is accepted *)
  let p = Profile.of_json (Json.of_string minimal) in
  Alcotest.(check int) "no sites" 0 (List.length p.Profile.pr_sites);
  expect_invalid "future version"
    {|{"version":99,"sites":[],"coverage":[],"counters":{},"gauges":{},"spans":{}}|};
  expect_invalid "missing field"
    {|{"version":1,"sites":[],"coverage":[],"counters":{},"gauges":{}}|};
  expect_invalid "wide exceeds hits"
    {|{"version":1,"sites":[{"id":0,"func":"f","construct":"load","approach":"sb","hits":1,"wide":2,"cycles":0}],"coverage":[],"counters":{},"gauges":{},"spans":{}}|};
  expect_invalid "block counter arity"
    {|{"version":1,"sites":[],"coverage":[{"func":"f","succ":[[1],[]],"blocks":[1],"edges":[1]}],"counters":{},"gauges":{},"spans":{}}|};
  expect_invalid "successor out of range"
    {|{"version":1,"sites":[],"coverage":[{"func":"f","succ":[[5],[]],"blocks":[1,0],"edges":[0]}],"counters":{},"gauges":{},"spans":{}}|}

let site ?(hits = 0) ?(wide = 0) ?(cycles = 0) id construct =
  {
    Site.sn_id = id;
    sn_func = "main";
    sn_construct = construct;
    sn_approach = "sb";
    sn_hits = hits;
    sn_wide = wide;
    sn_cycles = cycles;
  }

let cov ?(blocks = [| 1; 1 |]) ?(edges = [| 1 |]) func =
  {
    Coverage.cv_func = func;
    cv_succ = [| [| 1 |]; [||] |];
    cv_block_hits = blocks;
    cv_edge_hits = edges;
  }

let profile ?(sites = []) ?(coverage = []) ?(counters = []) ?(gauges = [])
    ?(spans = []) () =
  {
    Profile.pr_sites = sites;
    pr_coverage = coverage;
    pr_counters = counters;
    pr_gauges = gauges;
    pr_spans = spans;
  }

let test_diff () =
  let baseline =
    profile
      ~sites:[ site ~hits:100 ~cycles:200 0 "load" ]
      ~coverage:[ cov "main" ] ()
  in
  Alcotest.(check int) "equal profiles: no changes" 0
    (List.length (Profile.diff ~threshold:0.05 ~baseline baseline));
  (* coverage drop: a block and an edge go cold *)
  let dropped =
    profile
      ~sites:[ site ~hits:100 ~cycles:200 0 "load" ]
      ~coverage:[ cov ~blocks:[| 1; 0 |] ~edges:[| 0 |] "main" ]
      ()
  in
  (match Profile.diff ~threshold:0.05 ~baseline dropped with
  | [ Profile.Coverage_drop { cd_blocks; cd_edges; _ } ] ->
      Alcotest.(check (pair int int)) "blocks hit" (2, 1) cd_blocks;
      Alcotest.(check (pair int int)) "edges hit" (1, 0) cd_edges
  | l ->
      Alcotest.failf "expected one Coverage_drop, got %d changes: %s"
        (List.length l)
        (String.concat "; " (List.map Profile.change_to_string l)));
  (* hit increase past the threshold *)
  let hotter =
    profile
      ~sites:[ site ~hits:150 ~cycles:200 0 "load" ]
      ~coverage:[ cov "main" ] ()
  in
  (match Profile.diff ~threshold:0.05 ~baseline hotter with
  | [ Profile.Hits_increase { hi_old; hi_new; _ } ] ->
      Alcotest.(check int) "old hits" 100 hi_old;
      Alcotest.(check int) "new hits" 150 hi_new
  | l -> Alcotest.failf "expected one Hits_increase, got %d" (List.length l));
  (* an increase inside the threshold passes *)
  let slightly =
    profile
      ~sites:[ site ~hits:104 ~cycles:200 0 "load" ]
      ~coverage:[ cov "main" ] ()
  in
  Alcotest.(check int) "within threshold: no changes" 0
    (List.length (Profile.diff ~threshold:0.05 ~baseline slightly))

(* The absolute floor: a site the baseline never executed must not flag
   after a handful of hits, even though any growth beats the relative
   threshold against a zero (clamped-to-1) baseline. *)
let test_diff_min_hits () =
  let baseline =
    profile ~sites:[ site ~hits:0 ~cycles:0 0 "load" ] ~coverage:[ cov "main" ] ()
  in
  let a_few =
    profile
      ~sites:[ site ~hits:20 ~cycles:40 0 "load" ]
      ~coverage:[ cov "main" ] ()
  in
  Alcotest.(check int) "zero-baseline site under the floor: no flag" 0
    (List.length (Profile.diff ~threshold:0.05 ~baseline a_few));
  (* past the default floor of 32 it does flag *)
  let many =
    profile
      ~sites:[ site ~hits:40 ~cycles:80 0 "load" ]
      ~coverage:[ cov "main" ] ()
  in
  (match Profile.diff ~threshold:0.05 ~baseline many with
  | [ Profile.Hits_increase { hi_old; hi_new; _ } ] ->
      Alcotest.(check int) "old hits" 0 hi_old;
      Alcotest.(check int) "new hits" 40 hi_new
  | l -> Alcotest.failf "expected one Hits_increase, got %d" (List.length l));
  (* the floor is tunable: lowering it re-flags the small growth *)
  Alcotest.(check int) "explicit min_hits 10 flags the small growth" 1
    (List.length (Profile.diff ~min_hits:10 ~threshold:0.05 ~baseline a_few));
  (* a floor-sized delta on a hot baseline still needs the relative
     threshold: 100 -> 135 is +35 hits but +35% > 5%, flags; with a
     60% threshold it does not *)
  let hot_base =
    profile
      ~sites:[ site ~hits:100 ~cycles:200 0 "load" ]
      ~coverage:[ cov "main" ] ()
  in
  let hot_plus =
    profile
      ~sites:[ site ~hits:135 ~cycles:200 0 "load" ]
      ~coverage:[ cov "main" ] ()
  in
  Alcotest.(check int) "relative threshold still applies" 1
    (List.length (Profile.diff ~threshold:0.05 ~baseline:hot_base hot_plus));
  Alcotest.(check int) "past floor but under relative threshold: no flag" 0
    (List.length (Profile.diff ~threshold:0.6 ~baseline:hot_base hot_plus))

let test_merge () =
  let a =
    profile
      ~sites:[ site ~hits:2 ~wide:1 ~cycles:4 0 "load" ]
      ~coverage:[ cov "main" ]
      ~counters:[ ("vm.steps", 3) ]
      ~gauges:[ ("vm.peak_frames", 7) ]
      ~spans:[ ("compile", 1) ]
      ()
  in
  let b =
    profile
      ~sites:[ site ~hits:5 0 "load" ]
      ~coverage:[ cov ~blocks:[| 1; 0 |] ~edges:[| 0 |] "main" ]
      ~counters:[ ("vm.steps", 4); ("sb.checks", 1) ]
      ~gauges:[ ("vm.peak_frames", 3) ]
      ~spans:[ ("compile", 2) ]
      ()
  in
  let c = profile ~counters:[ ("lf.checks", 9) ] ~gauges:[ ("depth", 1) ] () in
  let m = Profile.merge a b in
  (match m.Profile.pr_sites with
  | [ s ] ->
      Alcotest.(check int) "site hits add" 7 s.Site.sn_hits;
      Alcotest.(check int) "wide hits add" 1 s.Site.sn_wide
  | l -> Alcotest.failf "expected one merged site, got %d" (List.length l));
  (match m.Profile.pr_coverage with
  | [ s ] ->
      Alcotest.(check bool) "coverage blocks add" true
        (s.Coverage.cv_block_hits = [| 2; 1 |])
  | l -> Alcotest.failf "expected one merged map, got %d" (List.length l));
  Alcotest.(check (option int))
    "counters add" (Some 7)
    (List.assoc_opt "vm.steps" m.Profile.pr_counters);
  Alcotest.(check (option int))
    "gauges max" (Some 7)
    (List.assoc_opt "vm.peak_frames" m.Profile.pr_gauges);
  Alcotest.(check (option int))
    "span counts add" (Some 3)
    (List.assoc_opt "compile" m.Profile.pr_spans);
  (* associativity and commutativity, compared as serialized bytes *)
  Alcotest.(check string)
    "commutative" (profile_bytes m)
    (profile_bytes (Profile.merge b a));
  Alcotest.(check string)
    "associative"
    (profile_bytes (Profile.merge (Profile.merge a b) c))
    (profile_bytes (Profile.merge a (Profile.merge b c)))

let () =
  Alcotest.run "profile"
    [
      ( "format",
        [
          Alcotest.test_case "save/load round-trip" `Quick test_roundtrip;
          Alcotest.test_case "validator rejects bad documents" `Quick
            test_validation;
        ] );
      ( "diff",
        [
          Alcotest.test_case "drops and increases flagged" `Quick test_diff;
          Alcotest.test_case "absolute min-hits floor" `Quick
            test_diff_min_hits;
        ] );
      ( "merge",
        [
          Alcotest.test_case "add/max semantics, assoc + commut" `Quick
            test_merge;
        ] );
    ]
