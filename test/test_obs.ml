(* The observability layer: span balance and Chrome-trace export,
   deterministic metrics serialization, JSON round-trips, and per-site
   profile attribution on a known program. *)

open Mi_obs
module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Config = Mi_core.Config

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = Trace.create () in
  Alcotest.(check bool) "fresh tracer balanced" true (Trace.balanced tr);
  Trace.begin_span tr "outer";
  Trace.begin_span tr ~cat:"x" "inner";
  Alcotest.(check int) "two open spans" 2 (Trace.depth tr);
  Trace.end_span tr "inner";
  Trace.end_span tr "outer";
  Alcotest.(check bool) "balanced after close" true (Trace.balanced tr);
  Alcotest.(check int) "two complete events" 2 (Trace.event_count tr)

let test_span_mismatch_raises () =
  let tr = Trace.create () in
  Trace.begin_span tr "a";
  Alcotest.check_raises "wrong name"
    (Invalid_argument "end_span \"b\": innermost open span is \"a\"")
    (fun () -> Trace.end_span tr "b");
  Trace.end_span tr "a";
  Alcotest.check_raises "empty stack"
    (Invalid_argument "end_span \"a\": no open span") (fun () ->
      Trace.end_span tr "a")

let test_with_span_exception_safe () =
  let tr = Trace.create () in
  (try
     Trace.with_span tr "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "span closed despite exception" true
    (Trace.balanced tr);
  Alcotest.(check int) "event recorded" 1 (Trace.event_count tr)

(* An injected clock drives every timestamp: a fake clock that ticks
   one second per reading gives exactly-known starts and durations. *)
let test_injected_clock () =
  let now = ref 10.0 in
  let clock () =
    let t = !now in
    now := t +. 1.0;
    t
  in
  let tr = Trace.create ~clock () in
  Trace.with_span tr "outer" (fun () -> Trace.with_span tr "inner" ignore);
  let evs =
    match Option.bind (Json.member "traceEvents" (Trace.to_json tr)) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let ts_dur name =
    List.find_map
      (fun e ->
        match (Json.member "name" e, Json.member "ts" e, Json.member "dur" e) with
        | Some (Json.Str n), Some (Json.Float ts), Some (Json.Float d)
          when n = name ->
            Some (ts, d)
        | _ -> None)
      evs
  in
  (* readings: epoch 10, outer start 11, inner start 12, inner end 13,
     outer end 14 *)
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "outer" (Some (1e6, 3e6)) (ts_dur "outer");
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "inner" (Some (2e6, 1e6)) (ts_dur "inner")

(* Tracers on the default clock share one process-wide epoch: a span
   recorded by a tracer created after another tracer's span ended starts
   after that span once the two are merged. *)
let test_merged_timeline () =
  let first = Trace.create () in
  Trace.with_span first "first" (fun () -> Mi_support.Mclock.sleep 0.002);
  let second = Trace.create () in
  Trace.with_span second "second" ignore;
  Trace.merge first second;
  let span name =
    List.find_map
      (fun e ->
        match (Json.member "name" e, Json.member "ts" e, Json.member "dur" e) with
        | Some (Json.Str n), Some (Json.Float ts), Some (Json.Float d)
          when n = name ->
            Some (ts, d)
        | _ -> None)
      (Option.get
         (Option.bind
            (Json.member "traceEvents" (Trace.to_json first))
            Json.to_list))
  in
  match (span "first", span "second") with
  | Some (ts1, dur1), Some (ts2, _) ->
      if ts2 < ts1 +. dur1 then
        Alcotest.failf "second span starts at %.0f us, first ends at %.0f us"
          ts2 (ts1 +. dur1)
  | _ -> Alcotest.fail "merged trace lacks a span"

(* A pipeline run must leave a well-formed Chrome trace with at least
   one span per pass that ran. *)
let test_trace_json_wellformed () =
  let obs = Obs.create () in
  let setup = Harness.with_config Config.softbound Harness.baseline in
  let _ =
    Harness.run_sources ~obs setup
      [ Bench.src "t" "int main(void) { return 0; }" ]
  in
  Alcotest.(check bool) "tracer balanced after run" true
    (Trace.balanced obs.Obs.trace);
  let doc = Json.of_string (Trace.to_string obs.Obs.trace) in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let names =
    List.filter_map
      (fun e ->
        match Json.member "name" e with Some (Json.Str s) -> Some s | _ -> None)
      events
  in
  List.iter
    (fun pass ->
      Alcotest.(check bool) ("span for pass " ^ pass) true
        (List.mem pass names))
    [ "simplifycfg"; "mem2reg"; "instcombine"; "dce" ];
  Alcotest.(check bool) "instrument span present" true
    (List.exists
       (fun n -> String.length n >= 11 && String.sub n 0 11 = "instrument:")
       names)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "b";
  Metrics.incr ~by:2 m "a";
  Metrics.incr m "b";
  Metrics.set_gauge m "g" 7;
  Metrics.observe m "h" 3;
  Metrics.observe m "h" 100;
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a", 2); ("b", 2) ]
    (Metrics.counters_alist m);
  Alcotest.(check int) "gauge" 7 (Metrics.gauge m "g");
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "histogram count" 2 h.Metrics.count;
      Alcotest.(check int) "histogram sum" 103 h.Metrics.sum

(* the fault-tolerance counters (harness.job_failed, harness.job_retried,
   icache.corrupt, fault.injected) are plain counters: they add across
   Metrics.merge, so per-worker contexts aggregate correctly and the
   merged totals stay -j independent *)
let test_fault_counters_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  let names =
    [
      "harness.job_failed"; "harness.job_retried"; "icache.corrupt";
      "fault.injected";
    ]
  in
  List.iter (fun n -> Metrics.incr ~by:2 a n) names;
  List.iter (fun n -> Metrics.incr ~by:3 b n) names;
  Metrics.incr b "fault.injected";
  Metrics.merge a b;
  List.iter
    (fun n ->
      let expect = if n = "fault.injected" then 6 else 5 in
      Alcotest.(check int) n expect (Metrics.counter a n))
    names;
  (* a context that never saw a fault contributes nothing *)
  let c = Metrics.create () in
  Metrics.merge a c;
  Alcotest.(check int) "merge with empty is identity" 5
    (Metrics.counter a "harness.job_failed")

(* the first registration of a name fixes its kind; a second use under a
   different kind is a programming error the registry rejects instead of
   silently keeping two metrics under one name *)
let test_metrics_kind_collision () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument
       "Metrics: \"x\" is already registered as a counter (wanted gauge)")
    (fun () -> Metrics.set_gauge m "x" 1);
  Alcotest.check_raises "counter reused as histogram"
    (Invalid_argument
       "Metrics: \"x\" is already registered as a counter (wanted histogram)")
    (fun () -> Metrics.observe m "x" 1);
  Metrics.set_gauge m "g" 1;
  Alcotest.check_raises "gauge reused as counter"
    (Invalid_argument
       "Metrics: \"g\" is already registered as a gauge (wanted counter)")
    (fun () -> Metrics.incr m "g");
  Metrics.observe m "h" 2;
  Alcotest.check_raises "histogram reused as gauge"
    (Invalid_argument
       "Metrics: \"h\" is already registered as a histogram (wanted gauge)")
    (fun () -> Metrics.set_gauge m "h" 3);
  (* same-kind re-use stays legal and cheap *)
  Metrics.incr m "x";
  Metrics.set_gauge m "g" 9;
  Metrics.observe m "h" 4;
  Alcotest.(check int) "counter still counts" 2 (Metrics.counter m "x");
  Alcotest.(check int) "gauge still sets" 9 (Metrics.gauge m "g")

(* Counter handles: resolved once, created on the first bump *)
let test_handle_absent_until_bumped () =
  let m = Metrics.create () in
  let h = Metrics.handle m "rt.checks" in
  Alcotest.(check (list (pair string int)))
    "no entry before the first bump" [] (Metrics.counters_alist m);
  Metrics.bump h;
  Metrics.bump h;
  Alcotest.(check (list (pair string int)))
    "created by the first bump"
    [ ("rt.checks", 2) ]
    (Metrics.counters_alist m)

let test_handle_equals_incr () =
  (* the same bumps through [incr] and through handles taken before and
     after the counter exists give the same registry *)
  let by_name = Metrics.create () and by_handle = Metrics.create () in
  let early = Metrics.handle by_handle "a" in
  for i = 1 to 10 do
    Metrics.incr by_name "a";
    if i mod 2 = 0 then Metrics.bump early else Metrics.incr by_handle "a"
  done;
  let late = Metrics.handle by_handle "a" in
  Metrics.bump late;
  Metrics.incr by_name "a";
  Metrics.bump early;
  Metrics.incr by_name "a";
  Alcotest.(check string)
    "same serialization" (Metrics.to_string by_name)
    (Metrics.to_string by_handle);
  Alcotest.(check int) "all bumps counted" 12 (Metrics.counter by_handle "a");
  (* a handle keeps the registry's kind check *)
  Metrics.set_gauge by_handle "g" 1;
  Alcotest.check_raises "handle on a gauge"
    (Invalid_argument
       "Metrics: \"g\" is already registered as a gauge (wanted counter)")
    (fun () -> Metrics.bump (Metrics.handle by_handle "g"))

let test_handle_merge () =
  let src = Metrics.create () and dst = Metrics.create () in
  let h = Metrics.handle src "sb.checks" in
  Metrics.bump h;
  Metrics.bump h;
  Metrics.merge dst src;
  Alcotest.(check int) "merge sees handle bumps" 2 (Metrics.counter dst "sb.checks");
  Metrics.bump h;
  Metrics.merge dst src;
  Alcotest.(check int) "and later ones" 5 (Metrics.counter dst "sb.checks");
  Alcotest.(check int) "source keeps its own count" 3
    (Metrics.counter src "sb.checks")

let test_labeled_canonical () =
  Alcotest.(check string)
    "label keys sorted" "c{a=\"1\",b=\"2\"}"
    (Metrics.labeled "c" [ ("b", "2"); ("a", "1") ])

(* Two identical benchmark runs must serialize to byte-identical
   metrics — the determinism contract of the ISSUE. *)
let bench_for_determinism () =
  Bench.mk "obs_det" ~suite:Bench.CPU2006 ~descr:"determinism probe"
    [
      Bench.src "det"
        {|
long *a;
int main(void) {
  long i;
  long s = 0;
  a = (long *)malloc(32 * sizeof(long));
  for (i = 0; i < 32; i++) a[i] = i * 3;
  for (i = 0; i < 32; i++) s += a[i];
  print_int(s);
  print_newline();
  return 0;
}
|};
    ]

let run_once setup =
  let obs = Obs.create () in
  let r = Harness.run_sources ~obs setup (bench_for_determinism ()).sources in
  (r, obs)

let test_metrics_deterministic () =
  let setup = Harness.with_config Config.softbound Harness.baseline in
  let _, obs1 = run_once setup in
  let _, obs2 = run_once setup in
  let s1 = Metrics.to_string obs1.Obs.metrics in
  let s2 = Metrics.to_string obs2.Obs.metrics in
  Alcotest.(check string) "byte-identical metrics" s1 s2;
  (* and the serialized form itself is valid JSON *)
  ignore (Json.of_string s1)

let test_state_counters_deterministic () =
  let _, obs = run_once (Harness.with_config Config.lowfat Harness.baseline) in
  let alist = Metrics.counters_alist obs.Obs.metrics in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) alist in
  Alcotest.(check bool) "counters_alist sorted" true (alist = sorted)

(* ------------------------------------------------------------------ *)
(* Per-site profile                                                    *)
(* ------------------------------------------------------------------ *)

(* Every executed check carries its site id, so the per-site hit sum
   must equal the runtime's own check counters exactly. *)
let test_site_attribution () =
  let r, _ =
    run_once (Harness.with_config Config.softbound Harness.baseline)
  in
  let hits = Site.total_hits r.Harness.profile in
  Alcotest.(check bool) "checks executed" true
    (Harness.counter r "sb.checks" > 0);
  Alcotest.(check int) "site hits equal sb.checks"
    (Harness.counter r "sb.checks")
    hits;
  List.iter
    (fun (s : Site.snapshot) ->
      Alcotest.(check string) "approach recorded" "softbound" s.Site.sn_approach)
    r.Harness.profile

let test_site_attribution_lowfat () =
  let r, _ = run_once (Harness.with_config Config.lowfat Harness.baseline) in
  let hits = Site.total_hits r.Harness.profile in
  let expected =
    Harness.counter r "lf.checks" + Harness.counter r "lf.inv_checks"
  in
  Alcotest.(check int) "site hits equal lf.checks + lf.inv_checks" expected
    hits

let test_site_top_ordering () =
  let r, _ =
    run_once (Harness.with_config Config.softbound Harness.baseline)
  in
  let top = Site.top ~n:5 r.Harness.profile in
  let cycles = List.map (fun s -> s.Site.sn_cycles) top in
  Alcotest.(check bool) "top sorted by cycles desc" true
    (List.sort (fun a b -> compare b a) cycles = cycles);
  let rendered = Site.render ~n:5 r.Harness.profile in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions hottest function" true
    (contains rendered "main")

(* ------------------------------------------------------------------ *)
(* Coverage maps                                                       *)
(* ------------------------------------------------------------------ *)

let diamond = [| [| 1; 2 |]; [| 3 |]; [| 3 |]; [||] |]

let test_coverage_counting () =
  let t = Coverage.create () in
  let f = Coverage.register_fn t ~name:"f" ~succ:diamond in
  Coverage.enter f 0;
  Coverage.transition f ~src:0 ~dst:1;
  Coverage.transition f ~src:1 ~dst:3;
  Coverage.enter f 0;
  Coverage.transition f ~src:0 ~dst:1;
  Coverage.transition f ~src:1 ~dst:3;
  match Coverage.snapshot t with
  | [ s ] ->
      Alcotest.(check string) "function name" "f" s.Coverage.cv_func;
      Alcotest.(check bool) "block hits" true
        (s.Coverage.cv_block_hits = [| 2; 2; 0; 2 |]);
      (* flat edge layout: 0->1, 0->2, 1->3, 2->3 *)
      Alcotest.(check bool) "edge hits" true
        (s.Coverage.cv_edge_hits = [| 2; 0; 2; 0 |]);
      let tt = Coverage.totals t in
      Alcotest.(check int) "blocks total" 4 tt.Coverage.tt_blocks;
      Alcotest.(check int) "blocks hit" 3 tt.Coverage.tt_blocks_hit;
      Alcotest.(check int) "edges total" 4 tt.Coverage.tt_edges;
      Alcotest.(check int) "edges hit" 2 tt.Coverage.tt_edges_hit;
      Alcotest.(check int) "functions hit" 1 tt.Coverage.tt_functions_hit
  | l -> Alcotest.failf "expected one function, got %d" (List.length l)

(* re-registering the same (name, geometry) accumulates into the same
   counters; a different geometry under the same name gets its own entry *)
let test_coverage_keying () =
  let t = Coverage.create () in
  let f1 = Coverage.register_fn t ~name:"f" ~succ:diamond in
  Coverage.enter f1 0;
  let f2 = Coverage.register_fn t ~name:"f" ~succ:diamond in
  Coverage.enter f2 0;
  let g = Coverage.register_fn t ~name:"f" ~succ:[| [||] |] in
  Coverage.enter g 0;
  match Coverage.snapshot t with
  | [ a; b ] ->
      (* sorted by (name, geometry): the 1-block variant sorts first *)
      Alcotest.(check bool) "small geometry" true (a.Coverage.cv_block_hits = [| 1 |]);
      Alcotest.(check int) "accumulated entries" 2 b.Coverage.cv_block_hits.(0)
  | l -> Alcotest.failf "expected two entries, got %d" (List.length l)

(* an edge outside the registered geometry is ignored, never counted *)
let test_coverage_unknown_edge () =
  let t = Coverage.create () in
  let f = Coverage.register_fn t ~name:"f" ~succ:diamond in
  Coverage.enter f 0;
  Coverage.transition f ~src:3 ~dst:0;
  match Coverage.snapshot t with
  | [ s ] ->
      Alcotest.(check bool) "no edge recorded" true
        (Array.for_all (fun h -> h = 0) s.Coverage.cv_edge_hits)
  | _ -> Alcotest.fail "expected one function"

(* snapshots survive the JSON round trip exactly *)
let test_coverage_json_roundtrip () =
  let t = Coverage.create () in
  let f = Coverage.register_fn t ~name:"f" ~succ:diamond in
  Coverage.enter f 0;
  Coverage.transition f ~src:0 ~dst:2;
  List.iter
    (fun (s : Coverage.snapshot) ->
      let s' = Coverage.snapshot_of_json (Coverage.snapshot_to_json s) in
      Alcotest.(check bool) "snapshot round-trips" true (s = s'))
    (Coverage.snapshot t)

(* ------------------------------------------------------------------ *)
(* Trace metadata (worker labeling in about:tracing)                   *)
(* ------------------------------------------------------------------ *)

let test_trace_thread_metadata () =
  let tr = Trace.create () in
  Trace.with_span tr "on-main" (fun () -> ());
  Trace.set_thread tr ~tid:2 ~name:"worker-1";
  Trace.with_span tr "on-worker" (fun () -> ());
  let doc = Json.of_string (Trace.to_string tr) in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field e k = Json.member k e in
  let meta name =
    List.filter
      (fun e -> field e "ph" = Some (Json.Str "M")
                && field e "name" = Some (Json.Str name))
      events
  in
  Alcotest.(check int) "one process_name event" 1
    (List.length (meta "process_name"));
  let thread_names =
    List.filter_map
      (fun e ->
        match (field e "tid", Option.bind (field e "args") (Json.member "name")) with
        | Some (Json.Int tid), Some (Json.Str n) -> Some (tid, n)
        | _ -> None)
      (meta "thread_name")
  in
  Alcotest.(check bool) "main thread labeled" true
    (List.mem (1, "main") thread_names);
  Alcotest.(check bool) "worker thread labeled" true
    (List.mem (2, "worker-1") thread_names);
  (* the X events carry the tid current at span end *)
  let tid_of name =
    List.find_map
      (fun e ->
        if field e "ph" = Some (Json.Str "X")
           && field e "name" = Some (Json.Str name)
        then field e "tid"
        else None)
      events
  in
  Alcotest.(check bool) "main span on tid 1" true
    (tid_of "on-main" = Some (Json.Int 1));
  Alcotest.(check bool) "worker span on tid 2" true
    (tid_of "on-worker" = Some (Json.Int 2))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5 ]);
        ("c", Json.Str "quote \" slash \\ newline \n tab \t");
        ("d", Json.Obj []);
        ("neg", Json.Int (-7));
      ]
  in
  Alcotest.(check bool) "round-trip" true (Json.of_string (Json.to_string v) = v)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | _ -> Alcotest.failf "accepted malformed %S" s
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "\"unterminated"; "01" ]

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "mismatch raises" `Quick test_span_mismatch_raises;
          Alcotest.test_case "injected clock" `Quick test_injected_clock;
          Alcotest.test_case "with_span exception-safe" `Quick
            test_with_span_exception_safe;
          Alcotest.test_case "trace JSON well-formed" `Quick
            test_trace_json_wellformed;
          Alcotest.test_case "thread metadata events" `Quick
            test_trace_thread_metadata;
          Alcotest.test_case "merged timeline" `Quick test_merged_timeline;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "fault counters merge" `Quick
            test_fault_counters_merge;
          Alcotest.test_case "kind collision rejected" `Quick
            test_metrics_kind_collision;
          Alcotest.test_case "labeled canonical" `Quick test_labeled_canonical;
          Alcotest.test_case "handle absent until bumped" `Quick
            test_handle_absent_until_bumped;
          Alcotest.test_case "handle bump equals incr" `Quick
            test_handle_equals_incr;
          Alcotest.test_case "merge sees handle bumps" `Quick
            test_handle_merge;
          Alcotest.test_case "deterministic serialization" `Quick
            test_metrics_deterministic;
          Alcotest.test_case "counters_alist sorted" `Quick
            test_state_counters_deterministic;
        ] );
      ( "sites",
        [
          Alcotest.test_case "softbound attribution" `Quick
            test_site_attribution;
          Alcotest.test_case "lowfat attribution" `Quick
            test_site_attribution_lowfat;
          Alcotest.test_case "top ordering + render" `Quick
            test_site_top_ordering;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "block/edge counting" `Quick
            test_coverage_counting;
          Alcotest.test_case "keyed by (name, geometry)" `Quick
            test_coverage_keying;
          Alcotest.test_case "unknown edge ignored" `Quick
            test_coverage_unknown_edge;
          Alcotest.test_case "snapshot JSON round-trip" `Quick
            test_coverage_json_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
    ]
