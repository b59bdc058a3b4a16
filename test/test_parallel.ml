(* The parallel session's three contracts:

   1. determinism — reports (text, JSON, merged metrics, merged sites)
      are byte-identical for every worker count;
   2. exact cache accounting — repeating a (setup, benchmark) job in a
      session is a cache hit that does zero instrumentation work but
      still reproduces the run (counters, cycles, per-site profile)
      exactly, in memory and across sessions via the on-disk cache;
   3. Obs.merge is associative and order-insensitive on disjoint and
      overlapping registries, and its indexed merges equal the
      scanning reference merges.

   Plus the sorted-array Harness.counter lookup. *)

open Mi_bench_kit
module Obs = Mi_obs.Obs
module Metrics = Mi_obs.Metrics
module Site = Mi_obs.Site
module E = Experiments
module Fault = Mi_faultkit.Fault

let bench name =
  match Suite.find name with
  | Some b -> b
  | None -> Alcotest.failf "no benchmark %s" name

let lbm = lazy (bench "470lbm")

(* ------------------------------------------------------------------ *)
(* 1. byte-identical reports for -j 1 / 2 / 8                          *)
(* ------------------------------------------------------------------ *)

let experiments () =
  List.map
    (fun n -> Option.get (E.find n))
    [ "fig9"; "table2"; "hotchecks" ]

let reports_at jobs =
  let h = Harness.create ~jobs () in
  let rs = E.run_reports ~benchmarks:[ Lazy.force lbm ] h (experiments ()) in
  let obs = Harness.obs h in
  let text =
    String.concat "\n"
      (List.map (fun (n, (r : E.report)) -> n ^ "\n" ^ r.title ^ "\n" ^ r.text) rs)
  in
  let json = Mi_obs.Json.to_string (E.reports_to_json (List.map snd rs)) in
  (text, json, Metrics.to_string obs.Obs.metrics, Site.snapshot obs.Obs.sites)

let test_byte_identical_reports () =
  let t1, j1, m1, s1 = reports_at 1 in
  List.iter
    (fun jobs ->
      let t, j, m, s = reports_at jobs in
      let tag fmt = Printf.sprintf fmt jobs in
      Alcotest.(check string) (tag "-j %d report text") t1 t;
      Alcotest.(check string) (tag "-j %d report JSON") j1 j;
      Alcotest.(check string) (tag "-j %d merged metrics") m1 m;
      Alcotest.(check bool) (tag "-j %d merged sites") true (s1 = s))
    [ 2; 8 ]

(* a reduce looks up only what its own experiment declared: an
   undeclared (setup, benchmark) raises Invalid_argument naming the
   experiment, the setup key and the benchmark — also when a sibling
   declared that job, and also under keep_going *)
let test_undeclared_lookup () =
  let b = Lazy.force lbm in
  let probe =
    {
      E.name = "probe";
      aliases = [];
      descr = "looks up a setup it does not declare";
      setups = (fun _ -> [ Harness.baseline ]);
      reduce =
        (fun lookup _ ->
          ignore (lookup Harness.baseline b : Harness.run);
          ignore (lookup E.sb_opt b : Harness.run);
          Alcotest.fail "the undeclared lookup returned a run");
    }
  in
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun keep_going ->
      match
        E.run_reports ~benchmarks:[ b ] ~keep_going
          (Harness.create ~jobs:1 ())
          [ Option.get (E.find "fig9"); probe ]
      with
      | exception Invalid_argument msg ->
          List.iter
            (fun part ->
              Alcotest.(check bool)
                (Printf.sprintf "%S names %s" msg part)
                true (contains msg part))
            [ "probe"; Harness.setup_key E.sb_opt; "470lbm" ]
      | _ -> Alcotest.fail "run_reports returned")
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* 2. exact cache accounting                                           *)
(* ------------------------------------------------------------------ *)

let static_counters (h : Harness.t) =
  List.filter
    (fun (k, _) -> String.length k >= 7 && String.sub k 0 7 = "static.")
    (Metrics.counters_alist (Harness.obs h).Obs.metrics)

let check_same_run msg (a : Harness.run) (b : Harness.run) =
  Alcotest.(check string) (msg ^ ": output") a.output b.output;
  Alcotest.(check int) (msg ^ ": cycles") a.cycles b.cycles;
  Alcotest.(check bool)
    (msg ^ ": counters") true
    (Harness.counters_alist a = Harness.counters_alist b);
  Alcotest.(check bool) (msg ^ ": profile") true (a.profile = b.profile)

let test_cache_accounting () =
  let b = Lazy.force lbm in
  let h = Harness.create ~jobs:1 () in
  let r1 = Harness.expect_ok b (Harness.run h E.sb_opt b) in
  let s1 = Harness.cache_stats h in
  Alcotest.(check int) "first run misses" 1 s1.Harness.misses;
  Alcotest.(check int) "first run hits" 0 s1.Harness.hits;
  let static1 = static_counters h in
  Alcotest.(check bool)
    "first run did instrumentation work" true
    (List.exists (fun (_, v) -> v > 0) static1);
  (* the second identical job: a hit, zero instrumentation work, and an
     identical run — counters, cycles, per-site profile *)
  let r2 = Harness.expect_ok b (Harness.run h E.sb_opt b) in
  let s2 = Harness.cache_stats h in
  Alcotest.(check int) "second run hits" 1 s2.Harness.hits;
  Alcotest.(check int) "second run misses" 1 s2.Harness.misses;
  Alcotest.(check bool)
    "cache hit did zero instrumentation work" true
    (static_counters h = static1);
  check_same_run "hit replays the run" r1 r2;
  (* a different setup shares nothing: a miss *)
  let (_ : (Harness.run, Harness.error) result) = Harness.run h E.lf_opt b in
  let s3 = Harness.cache_stats h in
  Alcotest.(check int) "different setup misses" 2 s3.Harness.misses

let test_disk_cache_across_sessions () =
  let b = Lazy.force lbm in
  Tmpdir.with_dir "micache" @@ fun dir ->
  let h1 = Harness.create ~jobs:1 ~cache:(Icache.create ~dir ()) () in
  let r1 = Harness.expect_ok b (Harness.run h1 E.sb_opt b) in
  Alcotest.(check int) "cold session misses" 1
    (Harness.cache_stats h1).Harness.misses;
  (* a fresh session over the same directory compiles nothing *)
  let h2 = Harness.create ~jobs:1 ~cache:(Icache.create ~dir ()) () in
  let r2 = Harness.expect_ok b (Harness.run h2 E.sb_opt b) in
  let s2 = Harness.cache_stats h2 in
  Alcotest.(check int) "warm session hits" 1 s2.Harness.hits;
  Alcotest.(check int) "warm session misses" 0 s2.Harness.misses;
  Alcotest.(check bool)
    "warm session did zero instrumentation work" true
    (static_counters h2 = []
    || List.for_all (fun (_, v) -> v = 0) (static_counters h2));
  check_same_run "disk hit replays the run" r1 r2

(* a corrupted disk entry must never replay wrong results: each
   corruption mode is detected at lookup, quarantined, counted, and
   recomputed from source *)
let test_disk_cache_corruption () =
  let b = Lazy.force lbm in
  Tmpdir.with_dir "micache" @@ fun dir ->
  let h0 = Harness.create ~jobs:1 ~cache:(Icache.create ~dir ()) () in
  let r0 = Harness.expect_ok b (Harness.run h0 E.sb_opt b) in
  Alcotest.(check int) "seed session misses" 1
    (Harness.cache_stats h0).Harness.misses;
  List.iter
    (fun (name, how) ->
      (* damage the entries as the code that opens a disk cache does
         for `--inject corrupt-cache=...` *)
      let cache = Icache.create ~dir () in
      ignore (Icache.corrupt cache how : int);
      let h = Harness.create ~jobs:1 ~cache () in
      let r = Harness.expect_ok b (Harness.run h E.sb_opt b) in
      let s = Harness.cache_stats h in
      Alcotest.(check int) (name ^ ": recorded as a miss") 1 s.Harness.misses;
      Alcotest.(check int) (name ^ ": never a hit") 0 s.Harness.hits;
      Alcotest.(check bool)
        (name ^ ": corruption detected and counted") true
        (s.Harness.corrupt >= 1);
      (* the recompute reproduces the original run exactly — a damaged
         entry is never replayed *)
      check_same_run (name ^ ": recompute matches the original") r0 r;
      let entries = Sys.readdir dir in
      Alcotest.(check bool)
        (name ^ ": damaged entry quarantined") true
        (Array.exists (fun f -> Filename.check_suffix f ".corrupt") entries);
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".corrupt" then
            Sys.remove (Filename.concat dir f))
        entries)
    [ ("truncated", Fault.Truncate);
      ("bit-flipped", Fault.Bitflip);
      ("stale-digest", Fault.Stale) ]

(* an entry whose header names another build's executable digest is
   refused before its (intact) payload is unmarshalled: quarantined,
   counted as corrupt and recomputed; the recomputed entry then hits *)
let test_disk_cache_foreign_build () =
  let b = Lazy.force lbm in
  Tmpdir.with_dir "micache" @@ fun dir ->
  let session () = Harness.create ~jobs:1 ~cache:(Icache.create ~dir ()) () in
  let r0 = Harness.expect_ok b (Harness.run (session ()) E.sb_opt b) in
  let path =
    match Sys.readdir dir with
    | [| f |] -> Filename.concat dir f
    | fs -> Alcotest.failf "%d cache files, want 1" (Array.length fs)
  in
  (* the header is (build digest, key digest, payload digest) *)
  let (_, key_d, payload_d), payload =
    In_channel.with_open_bin path (fun ic ->
        let header = (input_value ic : string * string * Digest.t) in
        (header, In_channel.input_all ic))
  in
  Out_channel.with_open_bin path (fun oc ->
      output_value oc
        (Digest.to_hex (Digest.string "another build"), key_d, payload_d);
      output_string oc payload);
  let h = session () in
  let r = Harness.expect_ok b (Harness.run h E.sb_opt b) in
  let s = Harness.cache_stats h in
  Alcotest.(check (list int))
    "foreign build: hits, misses, corrupt" [ 0; 1; 1 ]
    [ s.Harness.hits; s.Harness.misses; s.Harness.corrupt ];
  Alcotest.(check bool)
    "foreign entry quarantined" true
    (Sys.file_exists (path ^ ".corrupt"));
  check_same_run "recompute matches the original" r0 r;
  let h = session () in
  ignore (Harness.run h E.sb_opt b : (Harness.run, Harness.error) result);
  Alcotest.(check int)
    "the recomputed entry hits" 1 (Harness.cache_stats h).Harness.hits

(* ------------------------------------------------------------------ *)
(* 3. Obs.merge: associative, order-insensitive                        *)
(* ------------------------------------------------------------------ *)

(* three registries: a and b overlap (same metric, same site
   descriptor), c is disjoint *)
let mk_a () =
  let o = Obs.create () in
  Metrics.incr ~by:3 o.Obs.metrics "shared.counter";
  Metrics.set_gauge o.Obs.metrics "shared.gauge" 10;
  Metrics.observe o.Obs.metrics "shared.histo" 4;
  let id = Site.register o.Obs.sites ~func:"f" ~construct:"load" ~approach:"sb" in
  Site.hit o.Obs.sites id ~wide:false ~cycles:5;
  o

let mk_b () =
  let o = Obs.create () in
  Metrics.incr ~by:4 o.Obs.metrics "shared.counter";
  Metrics.incr ~by:1 o.Obs.metrics "only_b.counter";
  Metrics.set_gauge o.Obs.metrics "shared.gauge" 7;
  Metrics.observe o.Obs.metrics "shared.histo" 100;
  let id = Site.register o.Obs.sites ~func:"f" ~construct:"load" ~approach:"sb" in
  Site.hit o.Obs.sites id ~wide:true ~cycles:2;
  o

let mk_c () =
  let o = Obs.create () in
  Metrics.incr ~by:9 o.Obs.metrics "only_c.counter";
  let id = Site.register o.Obs.sites ~func:"g" ~construct:"store" ~approach:"lf" in
  Site.hit o.Obs.sites id ~wide:false ~cycles:8;
  o

let sorted_sites (o : Obs.t) =
  List.sort compare (Site.snapshot o.Obs.sites)

let obs_equal msg (x : Obs.t) (y : Obs.t) =
  Alcotest.(check string)
    (msg ^ ": metrics")
    (Metrics.to_string x.Obs.metrics)
    (Metrics.to_string y.Obs.metrics);
  Alcotest.(check bool) (msg ^ ": sites") true (sorted_sites x = sorted_sites y)

let test_merge_associative () =
  (* ((a <- b) <- c)  vs  (a <- (b <- c)) *)
  let l = mk_a () in
  Obs.merge l (mk_b ());
  Obs.merge l (mk_c ());
  let bc = mk_b () in
  Obs.merge bc (mk_c ());
  let r = mk_a () in
  Obs.merge r bc;
  obs_equal "associativity" l r;
  (* the merged values are the expected sums/maxima *)
  Alcotest.(check int) "counters add" 7
    (Metrics.counter l.Obs.metrics "shared.counter");
  Alcotest.(check int) "gauges max" 10
    (Metrics.gauge l.Obs.metrics "shared.gauge");
  (match Metrics.histogram l.Obs.metrics "shared.histo" with
  | Some h ->
      Alcotest.(check int) "histogram count" 2 h.Metrics.count;
      Alcotest.(check int) "histogram sum" 104 h.Metrics.sum;
      Alcotest.(check int) "histogram min" 4 h.Metrics.min;
      Alcotest.(check int) "histogram max" 100 h.Metrics.max
  | None -> Alcotest.fail "histogram lost in merge");
  (* the overlapping site added its cells; the disjoint one survived *)
  let sites = sorted_sites l in
  Alcotest.(check int) "2 distinct sites" 2 (List.length sites);
  let f = List.find (fun s -> s.Site.sn_func = "f") sites in
  Alcotest.(check int) "site hits add" 2 f.Site.sn_hits;
  Alcotest.(check int) "site wide add" 1 f.Site.sn_wide;
  Alcotest.(check int) "site cycles add" 7 f.Site.sn_cycles

let test_merge_order_insensitive () =
  let ab = mk_a () in
  Obs.merge ab (mk_b ());
  let ba = mk_b () in
  Obs.merge ba (mk_a ());
  obs_equal "overlapping, both orders" ab ba;
  let ac = mk_a () in
  Obs.merge ac (mk_c ());
  let ca = mk_c () in
  Obs.merge ca (mk_a ());
  obs_equal "disjoint, both orders" ac ca

let test_merge_self_rejected () =
  let o = mk_a () in
  Alcotest.check_raises "merge o o"
    (Invalid_argument "Obs.merge: dst and src are the same") (fun () ->
      Obs.merge o o)

(* ------------------------------------------------------------------ *)
(* 3b. Coverage.merge: associative, order-insensitive                  *)
(* ------------------------------------------------------------------ *)

module Coverage = Mi_obs.Coverage

let cov_geom = [| [| 1; 2 |]; [| 2 |]; [||] |]

(* a and b overlap (same function descriptor), c is disjoint *)
let cov_a () =
  let t = Coverage.create () in
  let f = Coverage.register_fn t ~name:"f" ~succ:cov_geom in
  Coverage.enter f 0;
  Coverage.transition f ~src:0 ~dst:1;
  Coverage.transition f ~src:1 ~dst:2;
  t

let cov_b () =
  let t = Coverage.create () in
  let f = Coverage.register_fn t ~name:"f" ~succ:cov_geom in
  Coverage.enter f 0;
  Coverage.transition f ~src:0 ~dst:2;
  t

let cov_c () =
  let t = Coverage.create () in
  let g = Coverage.register_fn t ~name:"g" ~succ:[| [||] |] in
  Coverage.enter g 0;
  t

let cov_equal msg x y =
  Alcotest.(check bool) msg true (Coverage.snapshot x = Coverage.snapshot y)

let test_coverage_merge_associative () =
  let l = cov_a () in
  Coverage.merge l (cov_b ());
  Coverage.merge l (cov_c ());
  let bc = cov_b () in
  Coverage.merge bc (cov_c ());
  let r = cov_a () in
  Coverage.merge r bc;
  cov_equal "associativity" l r;
  (* overlapping arrays added element-wise, disjoint function appended *)
  let tt = Coverage.totals l in
  Alcotest.(check int) "2 functions" 2 tt.Coverage.tt_functions;
  match
    List.find_opt (fun s -> s.Coverage.cv_func = "f") (Coverage.snapshot l)
  with
  | Some s ->
      Alcotest.(check bool) "blocks added" true
        (s.Coverage.cv_block_hits = [| 2; 1; 2 |]);
      (* flat edges: 0->1, 0->2, 1->2 *)
      Alcotest.(check bool) "edges added" true
        (s.Coverage.cv_edge_hits = [| 1; 1; 1 |])
  | None -> Alcotest.fail "function f lost in merge"

let test_coverage_merge_order_insensitive () =
  let ab = cov_a () in
  Coverage.merge ab (cov_b ());
  let ba = cov_b () in
  Coverage.merge ba (cov_a ());
  cov_equal "overlapping, both orders" ab ba;
  let ac = cov_a () in
  Coverage.merge ac (cov_c ());
  let ca = cov_c () in
  Coverage.merge ca (cov_a ());
  cov_equal "disjoint, both orders" ac ca

let test_coverage_merge_self_rejected () =
  let t = cov_a () in
  Alcotest.check_raises "merge t t"
    (Invalid_argument "Coverage.merge: dst and src are the same") (fun () ->
      Coverage.merge t t)

(* coverage-carrying Obs contexts merge through Obs.merge too, including
   promotion of a coverage-less destination *)
let test_obs_merge_carries_coverage () =
  let src = Obs.create ~coverage:true () in
  (match src.Obs.coverage with
  | Some cov ->
      let f = Coverage.register_fn cov ~name:"f" ~succ:cov_geom in
      Coverage.enter f 0
  | None -> Alcotest.fail "coverage requested but absent");
  let dst = Obs.create () in
  Obs.merge dst src;
  match dst.Obs.coverage with
  | Some cov ->
      Alcotest.(check int) "function arrived" 1
        (Coverage.totals cov).Coverage.tt_functions
  | None -> Alcotest.fail "merge dropped the coverage registry"

(* ------------------------------------------------------------------ *)
(* 3c. persistent profiles are -j invariant                            *)
(* ------------------------------------------------------------------ *)

let profile_at jobs =
  let h = Harness.create ~jobs ~obs:(Obs.create ~coverage:true ()) () in
  let (_ : (string * E.report) list) =
    E.run_reports ~benchmarks:[ Lazy.force lbm ] h (experiments ())
  in
  Mi_obs.Json.to_string
    (Mi_obs.Profile.to_json (Mi_obs.Profile.of_obs (Harness.obs h)))

let test_profile_byte_identical () =
  let p1 = profile_at 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "-j %d profile bytes" jobs)
        p1 (profile_at jobs))
    [ 4 ]

(* ------------------------------------------------------------------ *)
(* 3d. indexed merges equal the reference scans                        *)
(* ------------------------------------------------------------------ *)

(* Reference merges: the algorithms the registries used before they kept
   a persistent index.  [ref_site_merge] rebuilds a descriptor table over
   the whole of [dst] on every call; [ref_cov_merge] scans [dst] for each
   function of [src].  Both work on snapshots, so they share nothing with
   the registries' internals. *)

let site_key (s : Site.snapshot) =
  (s.Site.sn_id, s.Site.sn_func, s.Site.sn_construct, s.Site.sn_approach)

let ref_site_merge (dst : Site.snapshot array) (src : Site.snapshot list) =
  let idx = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace idx (site_key s) i) dst;
  List.fold_left
    (fun dst (s : Site.snapshot) ->
      match Hashtbl.find_opt idx (site_key s) with
      | Some i ->
          let d = dst.(i) in
          dst.(i) <-
            {
              d with
              Site.sn_hits = d.Site.sn_hits + s.Site.sn_hits;
              sn_wide = d.Site.sn_wide + s.Site.sn_wide;
              sn_cycles = d.Site.sn_cycles + s.Site.sn_cycles;
            };
          dst
      | None ->
          Hashtbl.replace idx (site_key s) (Array.length dst);
          Array.append dst [| s |])
    dst src

let ref_site_append dst ~id ~func ~construct ~approach =
  Array.append dst
    [|
      {
        Site.sn_id = id;
        sn_func = func;
        sn_construct = construct;
        sn_approach = approach;
        sn_hits = 0;
        sn_wide = 0;
        sn_cycles = 0;
      };
    |]

(* [dst] holds the reference's own counters, most recently added first *)
let ref_cov_find dst ~name ~succ =
  match
    List.find_opt
      (fun (d : Coverage.snapshot) ->
        d.Coverage.cv_func = name && d.Coverage.cv_succ = succ)
      !dst
  with
  | Some d -> d
  | None ->
      let d =
        {
          Coverage.cv_func = name;
          cv_succ = succ;
          cv_block_hits = Array.make (Array.length succ) 0;
          cv_edge_hits =
            Array.make (Array.fold_left (fun n s -> n + Array.length s) 0 succ) 0;
        }
      in
      dst := d :: !dst;
      d

let ref_cov_merge dst (src : Coverage.snapshot list) =
  List.iter
    (fun (s : Coverage.snapshot) ->
      let d =
        ref_cov_find dst ~name:s.Coverage.cv_func ~succ:s.Coverage.cv_succ
      in
      let add a b = Array.iteri (fun i v -> a.(i) <- a.(i) + v) b in
      add d.Coverage.cv_block_hits s.Coverage.cv_block_hits;
      add d.Coverage.cv_edge_hits s.Coverage.cv_edge_hits)
    src

let ref_cov_snapshot dst =
  List.sort
    (fun (a : Coverage.snapshot) (b : Coverage.snapshot) ->
      compare (a.Coverage.cv_func, a.Coverage.cv_succ)
        (b.Coverage.cv_func, b.Coverage.cv_succ))
    (List.map
       (fun (d : Coverage.snapshot) ->
         {
           d with
           Coverage.cv_block_hits = Array.copy d.Coverage.cv_block_hits;
           cv_edge_hits = Array.copy d.Coverage.cv_edge_hits;
         })
       !dst)

(* Small descriptor pools, so that random registries collide often. *)
let pick rng a = a.(Random.State.int rng (Array.length a))
let site_funcs = [| "main"; "f0"; "f1" |]
let site_constructs = [| "load@bb0:1"; "store@bb1:2"; "gep@bb2:0" |]
let site_approaches = [| "softbound"; "lowfat" |]

let random_descr rng =
  (pick rng site_funcs, pick rng site_constructs, pick rng site_approaches)

let random_sites ?(t = Site.create ()) rng =
  for _ = 1 to Random.State.int rng 6 do
    let func, construct, approach = random_descr rng in
    if Random.State.bool rng then
      ignore (Site.register t ~func ~construct ~approach : int)
    else
      Site.register_info t
        {
          Site.si_id = Random.State.int rng 8;
          si_func = func;
          si_construct = construct;
          si_approach = approach;
        }
  done;
  for _ = 1 to Random.State.int rng 10 do
    Site.hit t
      (Random.State.int rng (Site.count t + 1))
      ~wide:(Random.State.bool rng) ~cycles:(Random.State.int rng 50)
  done;
  t

(* The long geometries share their first 16 blocks — more than
   [Hashtbl.hash] looks at — and every geometry is registered under
   both names, so lookups go through same-name, different-geometry
   entries, and enough of them to share hash buckets. *)
let chain n last = Array.init n (fun i -> if i = n - 1 then last else [| i + 1 |])

let cov_geoms =
  Array.of_list
    (cov_geom :: [| [||] |]
    :: List.concat_map
         (fun n ->
           List.map (chain n)
             [ [||]; [| 0 |]; [| 1 |]; [| 2 |]; [| 0; 1 |]; [| 0; 2 |] ])
         [ 3; 17 ])

let cov_names = [| "main"; "f0" |]

let random_hits rng f succ =
  Coverage.enter f 0;
  for _ = 1 to Random.State.int rng 6 do
    let src = Random.State.int rng (Array.length succ) in
    if succ.(src) <> [||] then
      Coverage.transition f ~src ~dst:(pick rng succ.(src))
  done

let random_cov ?(t = Coverage.create ()) rng =
  for _ = 1 to 1 + Random.State.int rng 3 do
    let succ = pick rng cov_geoms in
    random_hits rng (Coverage.register_fn t ~name:(pick rng cov_names) ~succ) succ
  done;
  t

let check_sites msg (t : Site.t) (r : Site.snapshot array) =
  let got = Site.snapshot t and want = Array.to_list r in
  Alcotest.(check bool) (msg ^ ": snapshot") true (got = want);
  Alcotest.(check string) (msg ^ ": JSON")
    (Mi_obs.Json.to_string (Site.to_json want))
    (Mi_obs.Json.to_string (Site.to_json got))

let check_cov msg (t : Coverage.t) r =
  let got = Coverage.snapshot t and want = ref_cov_snapshot r in
  Alcotest.(check bool) (msg ^ ": snapshot") true (got = want);
  Alcotest.(check string) (msg ^ ": JSON")
    (Mi_obs.Json.to_string
       (Mi_obs.Json.List (List.map Coverage.snapshot_to_json want)))
    (Mi_obs.Json.to_string (Coverage.to_json t))

(* Random interleavings of register / register_info / merge (fresh or
   repeated source) on one session registry; after every step its
   snapshot and JSON equal the reference's. *)
let test_site_merge_matches_reference () =
  for seed = 1 to 40 do
    let rng = Random.State.make [| seed |] in
    let dst = Site.create () and r = ref [||] in
    let last = ref (Site.create ()) in
    for step = 1 to 30 do
      let func, construct, approach = random_descr rng in
      (match Random.State.int rng 4 with
      | 0 ->
          let id = Site.register dst ~func ~construct ~approach in
          r := ref_site_append !r ~id ~func ~construct ~approach
      | 1 ->
          let id = Random.State.int rng 8 in
          Site.register_info dst
            {
              Site.si_id = id;
              si_func = func;
              si_construct = construct;
              si_approach = approach;
            };
          r := ref_site_append !r ~id ~func ~construct ~approach
      | 2 ->
          Site.merge dst !last;
          r := ref_site_merge !r (Site.snapshot !last)
      | _ ->
          last := random_sites rng;
          Site.merge dst !last;
          r := ref_site_merge !r (Site.snapshot !last));
      check_sites (Printf.sprintf "seed %d step %d" seed step) dst !r
    done
  done

let test_coverage_merge_matches_reference () =
  for seed = 1 to 40 do
    let rng = Random.State.make [| seed |] in
    let dst = Coverage.create () and r = ref [] in
    let last = ref (Coverage.create ()) in
    for step = 1 to 30 do
      (match Random.State.int rng 3 with
      | 0 ->
          (* a session-side registration finds merged entries too *)
          let name = pick rng cov_names and succ = pick rng cov_geoms in
          Coverage.enter (Coverage.register_fn dst ~name ~succ) 0;
          let d = ref_cov_find r ~name ~succ in
          d.Coverage.cv_block_hits.(0) <- d.Coverage.cv_block_hits.(0) + 1
      | 1 ->
          Coverage.merge dst !last;
          ref_cov_merge r (Coverage.snapshot !last)
      | _ ->
          last := random_cov rng;
          Coverage.merge dst !last;
          ref_cov_merge r (Coverage.snapshot !last));
      check_cov (Printf.sprintf "seed %d step %d" seed step) dst r
    done
  done

(* Obs.merge into a fresh context (no sites, no coverage registry) and
   then again into the now-populated one. *)
let test_obs_merge_into_empty_matches_reference () =
  let rng = Random.State.make [| 7 |] in
  let mk () =
    let o = Obs.create ~coverage:true () in
    ignore (random_sites ~t:o.Obs.sites rng : Site.t);
    Option.iter (fun t -> ignore (random_cov ~t rng : Coverage.t)) o.Obs.coverage;
    o
  in
  let dst = Obs.create () in
  let rs = ref [||] and rc = ref [] in
  for round = 1 to 3 do
    let src = mk () in
    Obs.merge dst src;
    rs := ref_site_merge !rs (Site.snapshot src.Obs.sites);
    (match src.Obs.coverage with
    | Some c -> ref_cov_merge rc (Coverage.snapshot c)
    | None -> ());
    let msg = Printf.sprintf "round %d" round in
    check_sites msg dst.Obs.sites !rs;
    match dst.Obs.coverage with
    | Some c -> check_cov msg c rc
    | None -> Alcotest.fail "merge dropped the coverage registry"
  done

(* A private session keeps at most 64 Icache entries and no spans,
   whatever it has run: 30 safe fuzz matrices at -j 1 and -j 4.  After
   every call, the runs and the hit/miss counts equal those of a session
   over a cache that is never trimmed, and -j 1 and -j 4 keep the same
   entries. *)
let test_private_cache_bounded () =
  let matrices =
    List.init 30 (fun i ->
        Mi_fuzz.Oracle.safe_jobs (Mi_fuzz.Gen.generate ~seed:(i + 1) ()))
  in
  let untrimmed = Harness.create ~jobs:1 ~cache:(Icache.create ()) () in
  let h1 = Harness.create ~jobs:1 () and h4 = Harness.create ~jobs:4 () in
  List.iteri
    (fun i jobs ->
      let want = Harness.run_jobs untrimmed jobs in
      let stats = Harness.cache_stats untrimmed in
      let check_session j h =
        let tag what = Printf.sprintf "matrix %d, -j %d: %s" (i + 1) j what in
        Alcotest.(check bool) (tag "runs") true (Harness.run_jobs h jobs = want);
        Alcotest.(check bool) (tag "cache stats") true
          (Harness.cache_stats h = stats);
        let size = Icache.size (Harness.cache h) in
        if size > 64 then Alcotest.failf "%s" (tag (Printf.sprintf "%d entries" size));
        Alcotest.(check int) (tag "trace events") 0
          (Mi_obs.Trace.event_count (Harness.obs h).Obs.trace)
      in
      check_session 1 h1;
      check_session 4 h4;
      Alcotest.(check (list string))
        (Printf.sprintf "matrix %d: surviving entries" (i + 1))
        (Icache.digests (Harness.cache h1))
        (Icache.digests (Harness.cache h4)))
    matrices;
  Alcotest.(check bool) "the untrimmed cache outgrew the bound" true
    (Icache.size (Harness.cache untrimmed) > 64)

(* ------------------------------------------------------------------ *)
(* 4. sorted-array counter lookup                                      *)
(* ------------------------------------------------------------------ *)

let test_counter_lookup () =
  let b = Lazy.force lbm in
  let h = Harness.create ~jobs:1 () in
  let r = Harness.expect_ok b (Harness.run h E.sb_opt b) in
  let alist = Harness.counters_alist r in
  Alcotest.(check bool) "has counters" true (alist <> []);
  (* binary search agrees with the association list on every key *)
  List.iter
    (fun (k, v) -> Alcotest.(check int) k v (Harness.counter r k))
    alist;
  Alcotest.(check int) "absent counter is 0" 0
    (Harness.counter r "no.such.counter");
  Alcotest.(check int) "absent (before first key) is 0" 0
    (Harness.counter r "");
  Alcotest.(check int) "absent (after last key) is 0" 0
    (Harness.counter r "zzzz.unknown")

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "reports byte-identical at -j 1/2/8" `Slow
            test_byte_identical_reports;
          Alcotest.test_case "undeclared lookup rejected" `Quick
            test_undeclared_lookup;
        ] );
      ( "cache",
        [
          Alcotest.test_case "exact hit/miss accounting" `Quick
            test_cache_accounting;
          Alcotest.test_case "disk cache across sessions" `Quick
            test_disk_cache_across_sessions;
          Alcotest.test_case "corrupted entries detected, never replayed"
            `Quick test_disk_cache_corruption;
          Alcotest.test_case "disk cache refuses another build" `Quick
            test_disk_cache_foreign_build;
          Alcotest.test_case "private cache bounded, no spans kept" `Quick
            test_private_cache_bounded;
        ] );
      ( "obs-merge",
        [
          Alcotest.test_case "associative" `Quick test_merge_associative;
          Alcotest.test_case "order-insensitive" `Quick
            test_merge_order_insensitive;
          Alcotest.test_case "self-merge rejected" `Quick
            test_merge_self_rejected;
        ] );
      ( "coverage-merge",
        [
          Alcotest.test_case "associative" `Quick
            test_coverage_merge_associative;
          Alcotest.test_case "order-insensitive" `Quick
            test_coverage_merge_order_insensitive;
          Alcotest.test_case "self-merge rejected" `Quick
            test_coverage_merge_self_rejected;
          Alcotest.test_case "Obs.merge carries coverage" `Quick
            test_obs_merge_carries_coverage;
        ] );
      ( "indexed-merge",
        [
          Alcotest.test_case "Site.merge equals rebuild-per-call" `Quick
            test_site_merge_matches_reference;
          Alcotest.test_case "Coverage.merge equals list scan" `Quick
            test_coverage_merge_matches_reference;
          Alcotest.test_case "Obs.merge into empty dst" `Quick
            test_obs_merge_into_empty_matches_reference;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "profile bytes identical at -j 1/4" `Slow
            test_profile_byte_identical;
        ] );
      ( "counters",
        [ Alcotest.test_case "sorted-array lookup" `Quick test_counter_lookup ]
      );
    ]
