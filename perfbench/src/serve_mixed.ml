(** serve-mixed: [mi-serve --workers 1] as its own process, driven open
    loop at one fixed rate by this single-threaded client over two
    connections and two tenants.  About half the requests are fresh
    generated programs, which miss the shared instrumentation cache and
    need compile plus execute; the other half repeat an earlier job under
    the other tenant or as a [/generic] variant, which hit the cache and
    only execute.  It is the only workload with arrival queueing and the
    cache hit path. *)

open Common
module Bench = Mi_bench_kit.Bench
module Gen = Mi_fuzz.Gen
module Oracle = Mi_fuzz.Oracle
module Proto = Mi_server.Proto
module Rng = Mi_support.Rng

(** Requests per second.  One worker serves 110-150 requests/s of this
    mix when they are all sent at once (2-core host), but its tenant
    sessions grow with every request, and at 50/s a 1000-request window
    already builds a backlog on some seeds (median latency 14-390 ms over
    four seeds).  25/s keeps the queue short for the whole window. *)
let rate = 25.

(* Three requests in five are fresh, so that the median latency lies
   among the cache misses rather than on the edge between misses and
   hits.  A repeat only names a job sent at least this many requests
   earlier, so with no backlog its original has been served and the
   repeat hits. *)
let repeat_distance = 16

let fresh_tags =
  [ "O3+sb"; "O3+lf"; "O3+tp"; "O3+sb+checkopt"; "O3+lf+checkopt" ]

let overhead_name = function
  | "O3+sb" -> "sb"
  | "O3+lf" -> "lf"
  | "O3+tp" -> "tp"
  | "O3+sb+checkopt" -> "sb_opt"
  | "O3+lf+checkopt" -> "lf_opt"
  | t -> invalid_arg t

type req = {
  gid : int;  (** request id, 1-based *)
  due : float;  (** send time, seconds after the window opens *)
  tenant : string;
  tag : string;  (** oracle tag of the fresh job this request runs or repeats *)
  setup : H.setup;
  bench : Bench.t;
  fresh : bool;
}

let other_tenant = function "t0" -> "t1" | _ -> "t0"

(** The request sequence of one workload seed. *)
let gen_requests ?(span = Span.untimed) ~seed ~n () : req array =
  let rng = Rng.create (seed * 7919 + 17) in
  let fresh = ref [] (* (index, req), newest first *) in
  let nfresh = ref 0 in
  Array.init n (fun i ->
      let gid = i + 1 and due = float i /. rate in
      let eligible = List.filter (fun (j, _) -> j <= i - repeat_distance) !fresh in
      if eligible = [] || i mod 5 < 3 then begin
        incr nfresh;
        let p =
          span.run "Gen.generate" (fun () ->
              Gen.generate ~seed:((seed * 100_003) + 50_000 + !nfresh) ())
        in
        let tag = List.nth fresh_tags (Rng.int rng (List.length fresh_tags)) in
        let r =
          { gid; due; tenant = (if Rng.bool rng then "t0" else "t1"); tag;
            setup = Oracle.variant_setup tag; bench = Oracle.safe_bench p;
            fresh = true }
        in
        fresh := (i, r) :: !fresh;
        r
      end
      else begin
        let _, o = List.nth eligible (Rng.int rng (List.length eligible)) in
        if Rng.bool rng then
          { o with gid; due; tenant = other_tenant o.tenant; fresh = false }
        else
          { o with gid; due; setup = { o.setup with dispatch = H.Generic };
                   fresh = false }
      end)

let frame_of (r : req) =
  Proto.request_frame
    (Proto.Run { id = r.gid; tenant = r.tenant; setup = r.setup;
                 bench = r.bench; timeout_ms = None })

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; conns : Unix.file_descr array }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      close_quietly fd;
      None

let stop_process pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(** Start the daemon and wait until it answers [ping] on both client
    connections, retrying connect with sleeps of at most 1 ms. *)
let start ~exe ~socket : daemon =
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe
          [| exe; "--socket"; socket; "--workers"; "1"; "--queue"; "4096" |]
          null null null)
  in
  try
    let deadline = Mclock.deadline 60. in
    let rec attach () =
      if Mclock.expired deadline then failwith "mi-serve did not become ready";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "mi-serve exited during start-up");
      match connect socket with
      | Some fd -> fd
      | None ->
          Unix.sleepf 0.001;
          attach ()
    in
    let conns = [| attach (); attach () |] in
    Array.iteri
      (fun i fd ->
        Proto.write_frame fd
          (Json.to_string (Proto.request_to_json (Proto.Ping { id = i + 1 })));
        match Option.map Proto.reply_of_string (Proto.read_frame fd) with
        | Some (Proto.R_pong _) -> ()
        | _ -> failwith "mi-serve did not answer ping")
      conns;
    { pid; socket; conns }
  with e ->
    stop_process pid;
    raise e

let ask fd req =
  Proto.write_frame fd (Json.to_string (Proto.request_to_json req));
  Option.map Proto.reply_of_string (Proto.read_frame fd)

(** Ask for a clean shutdown; kill the daemon if it does not exit within
    10 s.  Always reaps it. *)
let stop (d : daemon) =
  (try ignore (ask d.conns.(0) (Proto.Shutdown { id = 0 }))
   with Unix.Unix_error _ | Proto.Bad_frame _ -> ());
  Array.iter close_quietly d.conns;
  let deadline = Mclock.deadline 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Mclock.expired deadline -> stop_process d.pid
    | 0, _ ->
        Unix.sleepf 0.001;
        wait ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  try Sys.remove d.socket with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Open-loop drive                                                     *)
(* ------------------------------------------------------------------ *)

type inputs = {
  reqs : req array;
  frames : string array;
  encode_s : float;  (** time spent encoding the request frames *)
  daemon : daemon;
}

let prepare ~exe ~socket ~seed ~n =
  let reqs = gen_requests ~seed ~n () in
  let t = Mclock.now () in
  let frames = Array.map frame_of reqs in
  let encode_s = Mclock.now () -. t in
  { reqs; frames; encode_s; daemon = start ~exe ~socket }

type window = {
  start : float;
  sent : float array;  (** actual send times *)
  replied : float array;  (** reply arrival times; [nan] when none *)
  replies : Proto.reply option array;
  decode_s : float;
  last : float;
}

let drive (inp : inputs) : window =
  let n = Array.length inp.reqs in
  let conns = inp.daemon.conns in
  let sent = Array.make n nan
  and replied = Array.make n nan
  and replies = Array.make n None in
  let bufs = Array.make (Array.length conns) "" in
  let chunk = Bytes.create 65536 in
  let decode_s = ref 0. in
  let got = ref 0 and next = ref 0 in
  let start = Mclock.now () in
  let give_up = start +. (float n /. rate) +. 120. in
  let closed = ref false in
  while !got < n && (not !closed) && Mclock.now () < give_up do
    let now = Mclock.now () in
    while !next < n && start +. inp.reqs.(!next).due <= now do
      let f = inp.frames.(!next) in
      Proto.write_all conns.(!next mod 2) f 0 (String.length f);
      sent.(!next) <- Mclock.now ();
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0. (start +. inp.reqs.(!next).due -. Mclock.now ())
      else 0.05
    in
    let ready, _, _ =
      try Unix.select (Array.to_list conns) [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let c = if fd = conns.(0) then 0 else 1 in
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then closed := true
        else begin
          let at = Mclock.now () in
          let frames, rest = Proto.pop_frames (bufs.(c) ^ Bytes.sub_string chunk 0 k) in
          bufs.(c) <- rest;
          List.iter
            (fun payload ->
              let t = Mclock.now () in
              let r = Proto.reply_of_string payload in
              decode_s := !decode_s +. (Mclock.now () -. t);
              let id = Proto.reply_id r in
              if id >= 1 && id <= n && replies.(id - 1) = None then begin
                replies.(id - 1) <- Some r;
                replied.(id - 1) <- at;
                incr got
              end)
            frames
        end)
      ready
  done;
  let last = Array.fold_left (fun a x -> if Float.is_nan x then a else Float.max a x) start replied in
  { start; sent; replied; replies; decode_s = !decode_s; last }

(* ------------------------------------------------------------------ *)
(* Verification and metrics                                            *)
(* ------------------------------------------------------------------ *)

let job_key (r : req) = (H.setup_key r.setup, r.bench.Bench.name)

(** Recompute each distinct job, and the [-O3] baseline of each fresh
    program, in one local batch session; returns a lookup by job key. *)
let local_batch (reqs : req array) =
  let seen = Hashtbl.create 1024 in
  let jobs = ref [] in
  let add setup (b : Bench.t) =
    let k = (H.setup_key setup, b.name) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      jobs := (setup, b) :: !jobs
    end
  in
  Array.iter
    (fun r ->
      add r.setup r.bench;
      if r.fresh then add (Oracle.variant_setup "O3") r.bench)
    reqs;
  let jobs = List.rev !jobs in
  let h = H.create ~jobs:1 () in
  let results = H.run_jobs h jobs in
  let tbl = Hashtbl.create 1024 in
  List.iter2
    (fun (s, (b : Bench.t)) res -> Hashtbl.replace tbl (H.setup_key s, b.name) res)
    jobs results;
  tbl

(* Which requests succeeded: answered ok, byte-identical to the batch
   harness.  A failure both sides agree on, or a refused or missing
   reply, is a failed operation; any disagreement is a wrong result. *)
let verify v (reqs : req array) (w : window) local =
  Array.map
    (fun r ->
      let what = Printf.sprintf "request %d (%s %s)" r.gid r.bench.Bench.name r.tag in
      let wrong why = fail v (what ^ ": " ^ why); false in
      let failed why = failed_op v (what ^ ": " ^ why); false in
      match (w.replies.(r.gid - 1), Hashtbl.find local (job_key r)) with
      | None, _ -> failed "no reply"
      | Some (Proto.R_ok { result; _ }), Ok run ->
          String.equal (Json.to_string result) (Json.to_string (Proto.run_to_json run))
          || wrong "reply differs from the batch harness"
      | Some (Proto.R_ok _), Error _ -> wrong "batch harness failed where the server succeeded"
      | Some (Proto.R_failed { reason; _ }), Error e when String.equal reason e.H.reason ->
          failed reason
      | Some (Proto.R_failed { reason; _ }), _ -> wrong ("server failed differently: " ^ reason)
      | Some (Proto.R_overloaded _), _ -> failed "overloaded"
      | Some (Proto.R_degraded _), _ -> failed "degraded"
      | Some (Proto.R_error { reason; _ }), _ -> failed ("error: " ^ reason)
      | Some _, _ -> wrong "unexpected reply")
    reqs

let overheads (reqs : req array) ok local =
  let ratios = Hashtbl.create 8 in
  Array.iteri
    (fun i r ->
      if r.fresh && ok.(i) then
        match
          ( Hashtbl.find local (job_key r),
            Hashtbl.find local (H.setup_key (Oracle.variant_setup "O3"), r.bench.Bench.name) )
        with
        | Ok run, Ok base ->
            let name = overhead_name r.tag in
            Hashtbl.replace ratios name
              ((float run.H.cycles /. float base.H.cycles)
               :: Option.value ~default:[] (Hashtbl.find_opt ratios name))
        | _ -> ())
    reqs;
  List.map
    (fun tag ->
      let name = overhead_name tag in
      m ("overhead_" ^ name) "x"
        (geomean (Option.value ~default:[] (Hashtbl.find_opt ratios name))))
    fresh_tags

let stat_float stats path =
  let rec go j = function
    | [] -> ( match j with Json.Float f -> f | Json.Int n -> float n | _ -> nan)
    | k :: rest -> (
        match Json.member k j with Some x -> go x rest | None -> nan)
  in
  go stats path

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

(* The daemon runs each request through its tenant's harness session
   over one shared cache, in arrival order.  The replay does the same,
   once through harness sessions and once through the replica, so that
   the layer split can be read off the replica's spans. *)
let per_tenant create =
  let sessions = Hashtbl.create 2 in
  fun tenant ->
    match Hashtbl.find_opt sessions tenant with
    | Some s -> s
    | None ->
        let s = create () in
        Hashtbl.replace sessions tenant s;
        s

let replay_harness (reqs : req array) =
  let cache = Mi_bench_kit.Icache.create () in
  let session = per_tenant (fun () -> H.create ~jobs:1 ~cache ()) in
  let c = counts () in
  let t0 = Mclock.now () in
  let digests =
    Array.map
      (fun r ->
        let res = H.run (session r.tenant) r.setup r.bench in
        add_result c r.setup res;
        Result.map digest res)
      reqs
  in
  (Mclock.now () -. t0, digests, c, Mi_bench_kit.Icache.stats cache)

let replay_traced v ~seed ~n (reqs : req array) (w : window) =
  let sp = Span.create () in
  let r = Replica.create sp in
  let session = per_tenant (fun () -> Mi_obs.Obs.create ()) in
  let c = counts () in
  let t0 = Mclock.now () in
  ignore
    (gen_requests ~span:(Span.in_layer sp "fuzz.gen")
       ~seed ~n ());
  let digests =
    Array.mapi
      (fun i q ->
        Span.set_item sp i;
        Span.with_ sp ~layer:"item" "request" (fun () ->
            match Replica.run_job ~session:(session q.tenant) r q.setup q.bench with
            | run ->
                add_run c q.setup run;
                Span.with_ sp ~layer:"judge" "compare" (fun () ->
                    match w.replies.(i) with
                    | Some (Proto.R_ok { result; _ })
                      when not
                             (String.equal (Json.to_string result)
                                (Json.to_string (Proto.run_to_json run))) ->
                        fail v
                          (Printf.sprintf "serve-mixed replay: request %d differs from the reply" (i + 1))
                    | _ -> ());
                Ok (digest run)
            | exception e ->
                Error { H.bench = q.bench.Bench.name; reason = Printexc.to_string e }))
      reqs
  in
  (sp, r, c, digests, Mclock.now () -. t0)

let run ~trace ~seed (inp : inputs) : result * float =
  let v = verdicts () in
  let n = Array.length inp.reqs in
  let w, daemon_cpu, stats, rss =
    Fun.protect
      ~finally:(fun () -> stop inp.daemon)
      (fun () ->
        let cpu0 = proc_cpu_s inp.daemon.pid in
        let w = drive inp in
        let daemon_cpu = proc_cpu_s inp.daemon.pid -. cpu0 in
        let stats =
          match ask inp.daemon.conns.(0) (Proto.Stats { id = 0 }) with
          | Some (Proto.R_stats { stats; _ }) -> stats
          | _ -> failwith "mi-serve did not answer stats"
        in
        (w, daemon_cpu, stats, vm_hwm_mb (string_of_int inp.daemon.pid)))
  in
  let local = local_batch inp.reqs in
  let ok = verify v inp.reqs w local in
  let n_ok = Array.fold_left (fun a b -> if b then a + 1 else a) 0 ok in
  let window = w.last -. w.start in
  (* a request that failed or got no reply misses any latency limit *)
  let lat =
    Array.mapi
      (fun i r -> if ok.(i) then w.replied.(i) -. (w.start +. r.due) else infinity)
      inp.reqs
  in
  let ms x = x *. 1000. in
  let served = Array.of_list (List.filter Float.is_finite (Array.to_list lat)) in
  let metrics =
    if not trace then
      m "items_per_s" "1/s" (float n_ok /. daemon_cpu) :: overheads inp.reqs ok local
    else begin
      let hwall, hdigests, hc, hcache = replay_harness inp.reqs in
      Gc.compact ();
      let sp, r, c, digests, wall = replay_traced v ~seed ~n inp.reqs w in
      Array.iteri
        (fun i d ->
          if d <> hdigests.(i) then
            fail v (Printf.sprintf "serve-mixed replay: request %d differs from the harness path" (i + 1)))
        digests;
      compare_counts v ~what:"serve-mixed replay" hc c;
      if Replica.cache_stats r <> hcache then
        fail v "serve-mixed replay: icache hits/misses differ from the harness sessions";
      let gen_s =
        Option.value ~default:0. (List.assoc_opt "fuzz.gen" (Span.self_by_layer sp))
      in
      let server_p50 = stat_float stats [ "latency_ms"; "p50" ] in
      let client = Array.mapi (fun i t -> t -. w.sent.(i)) w.replied in
      let late = Array.mapi (fun i (r : req) -> w.sent.(i) -. (w.start +. r.due)) inp.reqs in
      let hits = stat_float stats [ "cache"; "hits" ]
      and misses = stat_float stats [ "cache"; "misses" ] in
      layer_metrics sp c ~src_bytes:r.Replica.src_bytes ~wall ~untraced:(hwall +. gen_s)
      @ [
          m "icache.hits" "count" hits;
          m "icache.misses" "count" misses;
          m "icache.hit_ratio" "ratio" (hits /. (hits +. misses));
          m "fuzz.findings" "count" 0.; m "fuzz.missed" "count" 0.;
          m "fuzz.cells" "count" 0.;
          m "serve.server_p50_ms" "ms" server_p50;
          m "serve.server_p99_ms" "ms" (stat_float stats [ "latency_ms"; "p99" ]);
          m "serve.wire_ms_p50" "ms" (ms (percentile client 0.5) -. server_p50);
          m "serve.late_ms_p99" "ms" (ms (percentile late 0.99));
          m "serve.lat_p50_ms" "ms" (ms (percentile lat 0.5));
          m "serve.lat_p95_ms" "ms" (ms (percentile lat 0.95));
          m "serve.lat_p99_ms" "ms" (ms (percentile lat 0.99));
          m "serve.daemon_cpu_s" "s" daemon_cpu;
          m "serve.rejected" "count" (stat_float stats [ "rejected" ]);
          m "proto.encode_s" "s" inp.encode_s;
          m "proto.decode_s" "s" w.decode_s;
        ]
      @ item_quarters served
    end
  in
  ( {
      correct = v.wrong = 0;
      attempted = n;
      failed = n - n_ok;
      metrics;
      errors = errors v;
      extra =
        [ ("slowest",
           (* the ten slowest requests: the samples beyond serve.lat_p99_ms *)
           let idx = Array.init n Fun.id in
           Array.sort (fun a b -> compare lat.(b) lat.(a)) idx;
           Json.List
             (List.init (min 10 n) (fun k ->
                  let i = idx.(k) in
                  Json.Obj
                    [ ("id", Json.Int (i + 1));
                      ("ms", Json.Float (ms lat.(i)));
                      ("late_ms", Json.Float (ms (w.sent.(i) -. (w.start +. inp.reqs.(i).due))));
                      ("fresh", Json.Bool inp.reqs.(i).fresh);
                      ("tag", Json.Str inp.reqs.(i).tag) ])));
          ("lat_ms",
           Json.Obj
             (List.map
                (fun p -> (Printf.sprintf "p%g" (p *. 100.), Json.Float (ms (percentile lat p))))
                [ 0.5; 0.9; 0.95; 0.99 ]));
          ("fresh", Json.Int (Array.fold_left (fun a r -> if r.fresh then a + 1 else a) 0 inp.reqs));
          ("window_s", Json.Float window);
          ("daemon_cpu_s", Json.Float daemon_cpu);
          ("latency_ms_quarters",
           Json.List (Array.to_list (Array.map (fun x -> Json.Float (ms x)) (quarter_means served))));
          ("server_stats", stats) ];
    },
    rss )
