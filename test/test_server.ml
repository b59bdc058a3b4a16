(* mi-serve daemon: protocol round trips, batch-harness byte-identity,
   bounded-queue backpressure, supervisor restarts after injected worker
   crashes (also under retries), request-scoped deadlines, injected
   hangs classified as in a batch session, per-tenant circuit breaking, the
   fixed-window latency record, and the clean-drain shutdown invariant
   (accepted = answered). *)

module Server = Mi_server.Server
module Proto = Mi_server.Proto
module Fault = Mi_faultkit.Fault
module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Corpus = Mi_bench_kit.Safety_corpus
module Json = Mi_obs.Json
module Mclock = Mi_support.Mclock
module Config = Mi_core.Config
module Experiments = Mi_bench_kit.Experiments
module Oracle = Mi_fuzz.Oracle

let tiny_bench name value =
  Bench.mk ~suite:Bench.CPU2000 ~descr:"server test program" name
    [
      Bench.src "m"
        (Printf.sprintf
           "int main(void) { long a[4]; a[1] = %d; print_int(a[1]); return \
            0; }"
           value);
    ]

let broken =
  Bench.mk ~suite:Bench.CPU2000 ~descr:"does not compile" "broken"
    [ Bench.src "m" "int main(void) { this is not minic }" ]

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mi-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

(* boot an in-process server, hand the test a connected client, always
   drain and join *)
let with_server ?(configure = fun c -> c) f =
  let socket = fresh_socket () in
  let cfg = configure (Server.default_cfg ~socket) in
  let server = Domain.spawn (fun () -> Server.run cfg) in
  let rec connect attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempt < 100 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Mclock.sleep 0.05;
        connect (attempt + 1)
  in
  let fd = connect 0 in
  let result =
    Fun.protect
      (fun () -> f fd)
      ~finally:(fun () ->
        (try
           Proto.write_frame fd
             (Json.to_string
                (Proto.request_to_json (Proto.Shutdown { id = 999_999 })));
           (* drain until EOF so the server can flush and exit *)
           while Proto.read_frame fd <> None do
             ()
           done
         with Unix.Unix_error _ | Proto.Bad_frame _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ()))
  in
  let fin = Domain.join server in
  (result, fin)

let send fd req =
  Proto.write_frame fd (Json.to_string (Proto.request_to_json req))

let recv fd =
  match Proto.read_frame fd with
  | Some payload -> Proto.reply_of_string payload
  | None -> Alcotest.fail "unexpected EOF from server"

let run_req ~id ?(tenant = "t0") ?timeout_ms setup bench =
  Proto.Run { id; tenant; setup; bench; timeout_ms }

(* {1 Protocol basics} *)

let test_ping_stats_error () =
  let (), _fin =
    with_server (fun fd ->
        send fd (Proto.Ping { id = 1 });
        (match recv fd with
        | Proto.R_pong { id = 1 } -> ()
        | _ -> Alcotest.fail "expected pong");
        send fd (Proto.Stats { id = 2 });
        (match recv fd with
        | Proto.R_stats { id = 2; stats } -> (
            match Json.member "queue_cap" stats with
            | Some (Json.Int _) -> ()
            | _ -> Alcotest.fail "stats lacks queue_cap")
        | _ -> Alcotest.fail "expected stats");
        (* a malformed request is answered, not dropped *)
        Proto.write_frame fd "{\"op\":\"run\",\"id\":3}";
        match recv fd with
        | Proto.R_error { id = 3; _ } -> ()
        | _ -> Alcotest.fail "expected error reply")
  in
  ()

(* every setup a registered experiment declares, the oracle's variants
   and the SoftBound policy knobs no experiment varies come back from
   the wire under the setup key they were sent with *)
let test_setups_round_trip () =
  let bench = tiny_bench "rt" 1 in
  let sb_policies =
    List.map
      (fun cfg -> Harness.with_config cfg Harness.baseline)
      [
        { Config.softbound with sb_inttoptr_wide = false };
        { Config.softbound with sb_wrapper_checks = true };
        { Config.lowfat with mode = Config.Noop };
      ]
  in
  let setups =
    List.concat_map
      (fun e -> List.map fst (Experiments.jobs e Mi_bench_kit.Suite.all))
      (Experiments.all ())
    @ List.map snd (Oracle.variants @ Oracle.mutant_variants)
    @ sb_policies
  in
  let keys = List.sort_uniq compare (List.map Harness.setup_key setups) in
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        ("matrix has " ^ prefix) true
        (List.exists (String.starts_with ~prefix) keys))
    [
      "lowfat+nostack/"; "lowfat+noglobals/"; "softbound+sz0null/";
      "softbound+i2pnull/"; "softbound+wrapchecks/"; "lowfat+noop/";
    ];
  List.iter
    (fun s ->
      let frame = Json.to_string (Proto.request_to_json (run_req ~id:1 s bench)) in
      match Proto.request_of_string frame with
      | Ok (Proto.Run { setup; _ }) ->
          Alcotest.(check string)
            "setup key after the round trip" (Harness.setup_key s)
            (Harness.setup_key setup)
      | Ok _ -> Alcotest.fail "decoded another request"
      | Error (_, msg) -> Alcotest.failf "%s: %s" (Harness.setup_key s) msg)
    setups

(* the drive's default tags come from the checker registry *)
let test_drive_default_variants () =
  Alcotest.(check (list string))
    "O0, then O3 per checker"
    [ "O0"; "O3+sb"; "O3+lf"; "O3+tp" ]
    Mi_server.Drive.default_variants

(* a config the registry cannot read is a typed error for that request,
   never an exception: an unknown approach, an unknown token, a token
   of another approach, and the object form older clients sent *)
let test_bad_config_typed () =
  let request config =
    match
      Proto.request_to_json
        (run_req ~id:5 Harness.baseline (tiny_bench "bad" 1))
    with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "setup", Json.Obj setup ->
                   ( "setup",
                     Json.Obj
                       (List.map
                          (function
                            | "config", _ -> ("config", config) | kv -> kv)
                          setup) )
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "a run request is an object"
  in
  List.iter
    (fun config ->
      let what = Json.to_string config in
      match Proto.request_of_string (Json.to_string (request config)) with
      | Error (id, _) -> Alcotest.(check int) (what ^ ": request id") 5 id
      | Ok _ -> Alcotest.failf "%s was accepted" what)
    [
      Json.Str "asan"; Json.Str "softbound+turbo"; Json.Str "softbound+nostack";
      Json.Str "";
      Json.Obj
        [
          ("approach", Json.Str "softbound"); ("domopt", Json.Bool true);
          ("mode", Json.Str "full");
        ];
    ]

(* {1 Byte-identity with the batch harness} *)

let test_run_matches_batch () =
  let setup = Corpus.setup "softbound" in
  let bench = tiny_bench "ident" 42 in
  let server_json, fin =
    with_server (fun fd ->
        send fd (run_req ~id:1 setup bench);
        match recv fd with
        | Proto.R_ok { id = 1; result } -> Json.to_string result
        | _ -> Alcotest.fail "expected ok")
  in
  let h = Harness.create ~jobs:1 () in
  let batch =
    match Harness.run h setup bench with
    | Ok r -> Json.to_string (Proto.run_to_json r)
    | Error e -> Alcotest.failf "batch run failed: %s" e.Harness.reason
  in
  Alcotest.(check string) "server result = batch result" batch server_json;
  Alcotest.(check int) "one accepted" 1 fin.Server.f_accepted;
  Alcotest.(check int) "one completed" 1 fin.Server.f_completed

(* the batch harness's result for every [(id, _, setup, bench)] request,
   against the server's replies in the same order *)
let check_against_batch reqs replies =
  let h = Harness.create ~jobs:1 () in
  List.iter2
    (fun (id, _, setup, bench) reply ->
      match Harness.run h setup bench with
      | Ok r ->
          Alcotest.(check string)
            (Printf.sprintf "reply %d = batch result" id)
            (Json.to_string (Proto.run_to_json r))
            reply
      | Error e -> Alcotest.failf "batch run failed: %s" e.Harness.reason)
    reqs replies

(* {1 Request-scoped sessions: replies do not depend on what ran before} *)

(* Compiles and cache hits, two tenants, two approaches, one after the
   other: every reply is still the batch harness's result, and [stats]
   counts the two tenant names. *)
let test_tenant_trace_bounded () =
  let reqs =
    List.mapi
      (fun i (tenant, approach, value) ->
        (i + 1, tenant, Corpus.setup approach, tiny_bench "bounded" value))
      [
        ("t0", "softbound", 1); ("t0", "softbound", 1); ("t0", "lowfat", 2);
        ("t1", "softbound", 1); ("t1", "lowfat", 3); ("t0", "softbound", 4);
      ]
  in
  let (replies, tenants), _fin =
    with_server (fun fd ->
        let replies =
          List.map
            (fun (id, tenant, setup, bench) ->
              send fd (run_req ~id ~tenant setup bench);
              match recv fd with
              | Proto.R_ok { id = id'; result } when id' = id ->
                  Json.to_string result
              | _ -> Alcotest.fail "expected ok")
            reqs
        in
        send fd (Proto.Stats { id = 100 });
        match recv fd with
        | Proto.R_stats { id = 100; stats } -> (
            match Json.member "tenants" stats with
            | Some (Json.Int n) -> (replies, n)
            | _ -> Alcotest.fail "stats lacks tenants")
        | _ -> Alcotest.fail "expected stats")
  in
  Alcotest.(check int) "two tenants admitted" 2 tenants;
  check_against_batch reqs replies

(* Requests of one tenant run concurrently (no per-tenant lock): with
   two workers and everything pipelined, every reply is still the batch
   harness's result. *)
let test_one_tenant_two_workers () =
  let reqs =
    List.mapi
      (fun i (approach, value) ->
        (i + 1, "t0", Corpus.setup approach, tiny_bench "shared" value))
      [
        ("softbound", 1); ("lowfat", 1); ("temporal", 1); ("softbound", 2);
        ("softbound", 1); ("lowfat", 3); ("temporal", 2); ("lowfat", 1);
      ]
  in
  let configure c = { c with Server.workers = 2 } in
  let replies, fin =
    with_server ~configure (fun fd ->
        List.iter
          (fun (id, tenant, setup, bench) ->
            send fd (run_req ~id ~tenant setup bench))
          reqs;
        let got = Hashtbl.create 8 in
        while Hashtbl.length got < List.length reqs do
          match recv fd with
          | Proto.R_ok { id; result } ->
              Hashtbl.replace got id (Json.to_string result)
          | _ -> Alcotest.fail "expected ok replies"
        done;
        List.map (fun (id, _, _, _) -> Hashtbl.find got id) reqs)
  in
  Alcotest.(check int) "all completed" (List.length reqs)
    fin.Server.f_completed;
  check_against_batch reqs replies

(* {1 Backpressure: bounded queue, typed overload, no drops} *)

let test_overload_typed_and_recoverable () =
  let setup = Corpus.setup "softbound" in
  let benches = Array.init 6 (fun i -> tiny_bench "burst" (100 + i)) in
  let configure c =
    {
      c with
      Server.workers = 1;
      queue_cap = 1;
      faults =
        (match Fault.parse "hang=burst:0.3" with
        | Ok f -> f
        | Error m -> invalid_arg m);
    }
  in
  let (overloaded, answered), fin =
    with_server ~configure (fun fd ->
        (* burst everything at once: one in flight, one queued, the rest
           must bounce with the typed overload reply *)
        Array.iteri (fun i b -> send fd (run_req ~id:(i + 1) setup b)) benches;
        let overloaded = ref 0 and answered = ref 0 in
        while !answered < Array.length benches do
          match recv fd with
          | Proto.R_overloaded { id; queue; capacity } ->
              incr overloaded;
              Alcotest.(check int) "capacity echoed" 1 capacity;
              Alcotest.(check bool) "queue at bound" true (queue >= 1);
              Mclock.sleep 0.05;
              send fd (run_req ~id setup benches.(id - 1))
          | Proto.R_ok _ -> incr answered
          | _ -> Alcotest.fail "unexpected reply under load"
        done;
        (!overloaded, !answered))
  in
  Alcotest.(check bool) "overload replies observed" true (overloaded > 0);
  Alcotest.(check int) "every request eventually answered" 6 answered;
  Alcotest.(check int) "accepted = completed" fin.Server.f_accepted
    fin.Server.f_completed;
  Alcotest.(check bool) "admission rejects counted" true
    (fin.Server.f_rejected >= overloaded)

(* {1 Supervisor: injected worker crash, restart, zero drops} *)

let test_crash_restart_zero_drops () =
  let setup = Corpus.setup "softbound" in
  let victim = tiny_bench "victim" 5 in
  let bystander = tiny_bench "bystander" 6 in
  let configure c =
    {
      c with
      Server.workers = 2;
      faults =
        (match Fault.parse "crash=victim" with
        | Ok f -> f
        | Error m -> invalid_arg m);
    }
  in
  let replies, fin =
    with_server ~configure (fun fd ->
        send fd (run_req ~id:1 setup victim);
        send fd (run_req ~id:2 setup bystander);
        let got = Hashtbl.create 2 in
        while Hashtbl.length got < 2 do
          match recv fd with
          | Proto.R_ok { id; result } ->
              Hashtbl.replace got id (Json.to_string result)
          | _ -> Alcotest.fail "expected ok replies despite the crash"
        done;
        got)
  in
  Alcotest.(check int) "both answered" 2 (Hashtbl.length replies);
  Alcotest.(check int) "supervisor restarted the crashed worker" 1
    fin.Server.f_restarts;
  Alcotest.(check int) "zero dropped: accepted = completed" fin.Server.f_accepted
    fin.Server.f_completed

(* {1 Per-request deadlines} *)

let test_request_deadline () =
  let setup = Corpus.setup "softbound" in
  let slow = tiny_bench "slowpoke" 1 in
  let configure c =
    {
      c with
      Server.faults =
        (match Fault.parse "hang=slowpoke:30" with
        | Ok f -> f
        | Error m -> invalid_arg m);
    }
  in
  let (), _fin =
    with_server ~configure (fun fd ->
        send fd (run_req ~id:1 ~timeout_ms:100 setup slow);
        match recv fd with
        | Proto.R_failed { id = 1; kind = "timeout"; _ } -> ()
        | Proto.R_failed { kind; _ } ->
            Alcotest.failf "expected timeout, got %s" kind
        | _ -> Alcotest.fail "expected a failed reply")
  in
  ()

let plan spec =
  match Fault.parse spec with Ok f -> f | Error m -> invalid_arg m

(* The one-job failure of a batch session: what mi-experiments
   records for the same job under the same plan and budget. *)
let batch_failure ~faults ~budget setup bench =
  let h = Harness.create ~jobs:1 ~faults ~job_timeout:budget () in
  match Harness.run h setup bench with
  | Ok _ -> Alcotest.fail "expected the batch job to fail"
  | Error _ -> List.hd (Harness.failures h)

(* A hang is the session's to stall and classify, so a request fails
   with the batch harness's timeout kind and reason; a hang shorter
   than the budget stalls, then runs to the batch result. *)
let test_hang_same_as_batch () =
  let setup = Corpus.setup "softbound" in
  let slow = tiny_bench "slowpoke" 1 in
  let long = plan "hang=slowpoke:30" in
  let jf = batch_failure ~faults:long ~budget:0.1 setup slow in
  let (), _ =
    with_server
      ~configure:(fun c -> { c with Server.faults = long })
      (fun fd ->
        send fd (run_req ~id:1 ~timeout_ms:100 setup slow);
        match recv fd with
        | Proto.R_failed { id = 1; kind; reason; _ } ->
            Alcotest.(check string) "kind as in a batch session"
              (Harness.kind_name jf.Harness.jf_kind) kind;
            Alcotest.(check string) "kind" "timeout" kind;
            Alcotest.(check string) "reason as in a batch session"
              jf.Harness.jf_reason reason
        | _ -> Alcotest.fail "expected a failed reply")
  in
  let short = plan "hang=slowpoke:0.05" in
  let reply, fin =
    with_server
      ~configure:(fun c -> { c with Server.faults = short })
      (fun fd ->
        send fd (run_req ~id:1 ~timeout_ms:30_000 setup slow);
        match recv fd with
        | Proto.R_ok { id = 1; result } -> Json.to_string result
        | _ -> Alcotest.fail "a hang shorter than the budget must run")
  in
  Alcotest.(check int) "completed" 1 fin.Server.f_completed;
  check_against_batch [ (1, "t0", setup, slow) ] [ reply ]

(* Under [retries = 1] the session retries the injected crash before
   recording it; the worker still dies once per matching request, and
   the requeued rerun, immune, answers ok. *)
let test_crash_under_retries () =
  let setup = Corpus.setup "softbound" in
  let reqs =
    List.map
      (fun (id, b) -> (id, "t0", setup, b))
      [
        (1, tiny_bench "victim-a" 5);
        (2, tiny_bench "bystander" 6);
        (3, tiny_bench "victim-b" 7);
      ]
  in
  let configure c =
    { c with Server.workers = 2; retries = 1; faults = plan "crash=victim" }
  in
  let replies, fin =
    with_server ~configure (fun fd ->
        List.iter
          (fun (id, tenant, setup, bench) ->
            send fd (run_req ~id ~tenant setup bench))
          reqs;
        let got = Hashtbl.create 4 in
        while Hashtbl.length got < List.length reqs do
          match recv fd with
          | Proto.R_ok { id; result } ->
              Hashtbl.replace got id (Json.to_string result)
          | _ -> Alcotest.fail "expected ok replies despite the crashes"
        done;
        List.map (fun (id, _, _, _) -> Hashtbl.find got id) reqs)
  in
  Alcotest.(check int) "one restart per matching request" 2
    fin.Server.f_restarts;
  Alcotest.(check int) "nothing failed" 0 fin.Server.f_failed;
  check_against_batch reqs replies

(* A request's own deadline lives and dies with its session: after a
   request of a tenant times out under a tiny [timeout_ms], the same
   program from the same tenant without one runs to completion under
   the daemon default. *)
let test_timeout_does_not_leak () =
  let setup = Corpus.setup "softbound" in
  let long_loop =
    Bench.mk ~suite:Bench.CPU2000 ~descr:"a few million steps" "longloop"
      [
        Bench.src "m"
          "int main(void) { long a[4]; long i; a[0] = 0; for (i = 0; i < \
           300000; i = i + 1) { a[i % 4] = a[i % 4] + i; } print_int(a[0]); \
           return 0; }";
      ]
  in
  let configure c = { c with Server.job_timeout = Some 60. } in
  let (), fin =
    with_server ~configure (fun fd ->
        send fd (run_req ~id:1 ~timeout_ms:1 setup long_loop);
        (match recv fd with
        | Proto.R_failed { id = 1; kind = "timeout"; _ } -> ()
        | Proto.R_failed { kind; reason; _ } ->
            Alcotest.failf "expected timeout, got %s: %s" kind reason
        | _ -> Alcotest.fail "expected a failed reply");
        send fd (run_req ~id:2 setup long_loop);
        match recv fd with
        | Proto.R_ok { id = 2; _ } -> ()
        | Proto.R_failed { kind; reason; _ } ->
            Alcotest.failf "second request failed (%s): %s" kind reason
        | _ -> Alcotest.fail "expected the second request to succeed")
  in
  Alcotest.(check int) "one failed, one completed" 1 fin.Server.f_completed

(* {1 Circuit breaker: degraded per (tenant, approach), others serve} *)

let test_breaker_degrades_per_tenant_approach () =
  let sb = Corpus.setup "softbound" in
  let lf = Corpus.setup "lowfat" in
  let fine = tiny_bench "fine" 3 in
  let configure c = { c with Server.trip = 2 } in
  let (), fin =
    with_server ~configure (fun fd ->
        (* two consecutive compile failures trip softbound for t0 *)
        send fd (run_req ~id:1 ~tenant:"t0" sb broken);
        send fd (run_req ~id:2 ~tenant:"t0" sb broken);
        (match (recv fd, recv fd) with
        | Proto.R_failed _, Proto.R_failed _ -> ()
        | _ -> Alcotest.fail "expected two failed replies");
        send fd (run_req ~id:3 ~tenant:"t0" sb fine);
        (match recv fd with
        | Proto.R_degraded { id = 3; approach = "softbound"; _ } -> ()
        | _ -> Alcotest.fail "expected softbound@t0 to be degraded");
        (* the same tenant's other approach still serves *)
        send fd (run_req ~id:4 ~tenant:"t0" lf fine);
        (match recv fd with
        | Proto.R_ok { id = 4; _ } -> ()
        | _ -> Alcotest.fail "lowfat@t0 should still serve");
        (* and another tenant's softbound is unaffected *)
        send fd (run_req ~id:5 ~tenant:"t1" sb fine);
        (* a success resets the breaker only per tenant *)
        match recv fd with
        | Proto.R_ok { id = 5; _ } -> ()
        | _ -> Alcotest.fail "softbound@t1 should still serve")
  in
  Alcotest.(check int) "one degraded reply" 1 fin.Server.f_degraded;
  Alcotest.(check int) "accounting: accepted = ok + failed + degraded"
    fin.Server.f_accepted
    (fin.Server.f_completed + fin.Server.f_failed + fin.Server.f_degraded)

(* With two workers, requests of one (tenant, approach) run at once and
   settle in completion order.  When all of them crash the order does
   not matter: each reply is a crash or, once the breaker has tripped,
   degraded; at least [trip] of them ran; and the breaker ends open. *)
let test_breaker_two_workers () =
  let sb = Corpus.setup "softbound" in
  let lf = Corpus.setup "lowfat" in
  let fine = tiny_bench "fine" 3 in
  let configure c = { c with Server.workers = 2; trip = 2 } in
  let n = 4 in
  let crashed, fin =
    with_server ~configure (fun fd ->
        for id = 1 to n do
          send fd (run_req ~id ~tenant:"t0" sb broken)
        done;
        let crashed = ref 0 in
        for _ = 1 to n do
          match recv fd with
          | Proto.R_failed { kind = "crash"; _ } -> incr crashed
          | Proto.R_degraded { approach = "softbound"; _ } -> ()
          | _ -> Alcotest.fail "expected crash or degraded replies"
        done;
        send fd (run_req ~id:(n + 1) ~tenant:"t0" sb fine);
        (match recv fd with
        | Proto.R_degraded { id; _ } when id = n + 1 -> ()
        | _ -> Alcotest.fail "expected softbound@t0 to stay degraded");
        send fd (run_req ~id:(n + 2) ~tenant:"t0" lf fine);
        (match recv fd with
        | Proto.R_ok { id; _ } when id = n + 2 -> ()
        | _ -> Alcotest.fail "lowfat@t0 should still serve");
        !crashed)
  in
  Alcotest.(check bool) "at least trip crashes ran" true (crashed >= 2);
  Alcotest.(check int) "failed = crashes" crashed fin.Server.f_failed;
  Alcotest.(check int) "degraded = the rest" (n + 1 - crashed)
    fin.Server.f_degraded;
  Alcotest.(check int) "accounting: accepted = ok + failed + degraded"
    fin.Server.f_accepted
    (fin.Server.f_completed + fin.Server.f_failed + fin.Server.f_degraded)

(* {1 Stats: the fixed-window latency record} *)

let test_latency_window () =
  let module L = Server.Latency in
  let l = L.create () in
  Alcotest.(check (float 0.)) "empty p50" 0. (L.percentile (L.sorted l) 0.5);
  (* below the window the percentiles are those of every sample *)
  let xs = List.init 1000 (fun i -> Float.of_int ((i * 7919) mod 1000)) in
  List.iter (L.add l) xs;
  let all = Array.of_list (List.sort compare xs) in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%g exact" (p *. 100.))
        all.(Float.to_int (999. *. p))
        (L.percentile (L.sorted l) p))
    [ 0.; 0.5; 0.99; 1. ];
  (* past the window the oldest samples fall out; count and max cover
     every sample *)
  let l = L.create () in
  let k = 3 in
  L.add l 1e6;
  for i = 1 to L.window + k - 1 do
    L.add l (Float.of_int i)
  done;
  let s = L.sorted l in
  Alcotest.(check int) "window size" L.window (Array.length s);
  Alcotest.(check (float 0.)) "oldest gone" (Float.of_int k) s.(0);
  Alcotest.(check (float 0.))
    "newest kept" (Float.of_int (L.window + k - 1)) s.(L.window - 1);
  Alcotest.(check (float 0.)) "p50 of the window"
    (Float.of_int (k + ((L.window - 1) / 2)))
    (L.percentile s 0.5);
  Alcotest.(check int) "count" (L.window + k) l.L.count;
  Alcotest.(check (float 0.)) "max" 1e6 l.L.max

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping, stats, error" `Quick test_ping_stats_error;
          Alcotest.test_case "declared setups round-trip" `Quick
            test_setups_round_trip;
          Alcotest.test_case "bad config typed" `Quick test_bad_config_typed;
          Alcotest.test_case "drive default variants" `Quick
            test_drive_default_variants;
        ] );
      ( "identity",
        [
          Alcotest.test_case "server run = batch run" `Slow
            test_run_matches_batch;
          Alcotest.test_case "tenant traces bounded, replies unchanged" `Slow
            test_tenant_trace_bounded;
          Alcotest.test_case "one tenant, two workers" `Slow
            test_one_tenant_two_workers;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "typed overload, then served" `Slow
            test_overload_typed_and_recoverable;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash, restart, zero drops" `Slow
            test_crash_restart_zero_drops;
          Alcotest.test_case "per-request deadline" `Slow test_request_deadline;
          Alcotest.test_case "per-request timeout does not leak" `Slow
            test_timeout_does_not_leak;
          Alcotest.test_case "hang: batch kind and reason, or the run" `Slow
            test_hang_same_as_batch;
          Alcotest.test_case "crash under retries: one restart each" `Slow
            test_crash_under_retries;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "circuit breaker per tenant+approach" `Slow
            test_breaker_degrades_per_tenant_approach;
          Alcotest.test_case "breaker with two workers" `Slow
            test_breaker_two_workers;
        ] );
      ( "stats",
        [ Alcotest.test_case "latency window, percentiles" `Quick
            test_latency_window ] );
    ]
