(** The [mi-serve] daemon: compile/instrument/run as a service.

    One process serves many tenants over a Unix-domain socket speaking
    {!Proto}.  The moving parts:

    - {b Event loop} (main domain): non-blocking [Unix.select] over the
      listening socket, every client connection and a self-pipe the
      workers tickle; parses frames, answers [ping]/[stats]/[shutdown]
      inline and admits [run] requests into the queue.
    - {b Bounded queue}: admission control happens at frame-parse time —
      a full queue yields an immediate typed [overloaded] reply and the
      request is {e not} accepted.  Nothing ever queues without bound,
      and an accepted request is never dropped.
    - {b Worker pool}: [workers] domains pop jobs and run each one in
      its own one-job {!Mi_bench_kit.Harness.t} session over the one
      shared content-addressed instrumentation cache.  The session lives
      as long as the request: it carries the request's deadline and the
      chaos plan, holds at most its one failure, and is dropped with its
      metrics and trace once the reply is posted, so the daemon's memory
      does not grow with the requests it has served.  Every deadline,
      injected hang and failure kind is the session's: the server only
      turns the session's typed failure into a reply.  Requests of one
      tenant run concurrently like any others.
    - {b Supervisor}: when a request's session fails with an injected
      crash ([--inject crash=SUBSTR]), its worker domain dies for real —
      the job is requeued at the front first, the event loop reaps the
      dead domain, restarts the slot and counts it.  The rerun's session
      gets the plan without its job clauses, so it makes progress.
      Queue intact, zero requests dropped.
    - {b Degraded modes}: a corrupted cache entry is quarantined and
      recomputed by the cache itself; a tenant approach that keeps
      failing trips a circuit breaker and answers [degraded] while every
      other approach keeps serving.  A tenant is nothing but its
      breakers: one consecutive-failure count per (tenant, approach).

    Determinism: per-request results are {!Proto.run_to_json} documents,
    byte-identical to the batch harness on the same job, whatever the
    schedule: a request's session shares nothing with other requests but
    the cache, whose entries are the same bytes however often they are
    computed. *)

module Harness = Mi_bench_kit.Harness
module Icache = Mi_bench_kit.Icache
module Bench = Mi_bench_kit.Bench
module Fault = Mi_faultkit.Fault
module Json = Mi_obs.Json
module Mclock = Mi_support.Mclock

type cfg = {
  socket : string;
  workers : int;
  queue_cap : int;  (** admission bound: queued (not in-flight) requests *)
  cache : Icache.t;
      (** the instrumentation cache every request's session shares;
          whoever opens it on disk applies the plan's [corrupt-cache=]
          clause ([mi-serve] does, once, before {!run}) *)
  faults : Fault.t;
      (** chaos plan, handed to every request's session: check/VM
          clauses apply to the run, and [crash=]/[hang=] clauses match
          the session's ["<setup_key>/<bench>"] on a request's first
          attempt.  The server never reads [corrupt-cache=]. *)
  job_timeout : float option;
      (** per-request budget in seconds when a request names none *)
  retries : int;  (** harness-level retries inside a request's session *)
  trip : int;
      (** consecutive crashes (compile failures included) that trip a
          tenant's approach *)
  verbose : bool;
}

let default_cfg ~socket =
  {
    socket;
    workers = 2;
    queue_cap = 16;
    cache = Icache.create ();
    faults = Fault.none;
    job_timeout = None;
    retries = 0;
    trip = 3;
    verbose = false;
  }

(** Final accounting, also printed on clean shutdown. *)
type final = {
  f_accepted : int;
  f_rejected : int;
  f_completed : int;
  f_failed : int;
  f_degraded : int;
  f_restarts : int;
  f_cache : Icache.stats;
}

(* ------------------------------------------------------------------ *)
(* Shared state                                                        *)
(* ------------------------------------------------------------------ *)

type job = {
  j_id : int;
  j_conn : int;
  j_tenant : string;
  j_setup : Harness.setup;
  j_bench : Bench.t;
  j_timeout_ms : int option;
  j_admitted : float;  (* Mclock.now at admission, for latency *)
  mutable j_crashed : bool;  (* an injected crash already killed a worker *)
}

(** Request latencies in ms, admission to reply: a fixed window of the
    latest samples plus the total count and the running max, so the
    record does not grow with the requests served.  Percentiles are
    exact while at most [window] requests have been served. *)
module Latency = struct
  type t = { ring : float array; mutable count : int; mutable max : float }

  let window = 4096
  let create () = { ring = Array.make window 0.; count = 0; max = 0. }

  let add l ms =
    l.ring.(l.count mod Array.length l.ring) <- ms;
    l.count <- l.count + 1;
    if ms > l.max then l.max <- ms

  (** The samples in the window, sorted ascending (a copy). *)
  let sorted l =
    let a = Array.sub l.ring 0 (min l.count (Array.length l.ring)) in
    Array.sort compare a;
    a

  (** Nearest-rank-below [p]-quantile of an ascending array; 0 when
      empty. *)
  let percentile sorted p =
    match Array.length sorted with
    | 0 -> 0.
    | n -> sorted.(Float.to_int (Float.of_int (n - 1) *. p))
end

type t = {
  cfg : cfg;
  tenants : (string, unit) Hashtbl.t;  (* names admitted, for [stats] *)
  breakers : (string * string, int) Hashtbl.t;
      (* (tenant, approach) -> consecutive crashes; open at [cfg.trip] *)
  tenants_lock : Mutex.t;  (* guards [tenants] and [breakers] *)
  q : job Queue.t;
  mutable requeued : job list;  (* crash-requeued: served first, no cap *)
  q_lock : Mutex.t;
  q_cond : Condition.t;
  halt : bool Atomic.t;  (* workers: stop once the queue is dry *)
  in_flight : int Atomic.t;
  mutable outbox : (int * string) list;  (* (conn id, frame), newest first *)
  out_lock : Mutex.t;
  wake_w : Unix.file_descr;
  dead : bool Atomic.t array;  (* per-slot: worker domain exited *)
  accepted : int Atomic.t;
  rejected : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  degraded : int Atomic.t;
  restarts : int Atomic.t;
  lat_lock : Mutex.t;
  latencies : Latency.t;
}

let effective_timeout t (job : job) =
  match job.j_timeout_ms with
  | Some ms -> Some (Float.of_int ms /. 1000.)
  | None -> t.cfg.job_timeout

let queue_depth_unlocked t = Queue.length t.q + List.length t.requeued

(* wake the event loop from a worker; a full pipe already wakes it *)
let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* [None] only when halting with a dry queue. *)
let take_job t =
  Mutex.lock t.q_lock;
  let rec go () =
    match t.requeued with
    | j :: rest ->
        t.requeued <- rest;
        Some j
    | [] ->
        if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
        else if Atomic.get t.halt then None
        else begin
          Condition.wait t.q_cond t.q_lock;
          go ()
        end
  in
  let j = go () in
  (* in_flight moves under q_lock so "queue empty && nothing in flight"
     is a consistent drain test for the event loop *)
  (match j with Some _ -> Atomic.incr t.in_flight | None -> ());
  Mutex.unlock t.q_lock;
  j

(* put a crash-requeued job back at the front: it was already admitted,
   so it bypasses the admission bound — zero drops by construction *)
let requeue t job =
  Mutex.lock t.q_lock;
  t.requeued <- job :: t.requeued;
  Atomic.decr t.in_flight;
  Condition.signal t.q_cond;
  Mutex.unlock t.q_lock

let post_reply t (job : job) reply =
  let frame = Proto.reply_frame reply in
  Mutex.lock t.out_lock;
  t.outbox <- (job.j_conn, frame) :: t.outbox;
  Mutex.unlock t.out_lock;
  let ms = (Mclock.now () -. job.j_admitted) *. 1000. in
  Mutex.protect t.lat_lock (fun () -> Latency.add t.latencies ms)

(* consecutive crashes of a (tenant, approach); [cfg.trip] opens it *)
let breaker t key =
  Mutex.protect t.tenants_lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.breakers key))

(* a crash counts towards the trip, a success resets the count; an open
   breaker stays open.  Requests of one tenant run concurrently and are
   checked against the breaker when they start but settle when they
   finish, so "consecutive" is in completion order: a request that
   passed the check before the trip still runs and is answered, and a
   success finishing between two crashes resets the count even if it
   started after them. *)
let settle t key ~crashed =
  Mutex.protect t.tenants_lock (fun () ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.breakers key) in
      if n < t.cfg.trip then
        if crashed then Hashtbl.replace t.breakers key (n + 1)
        else Hashtbl.remove t.breakers key)

(* The request's reply, or [None] when its session failed with an
   injected crash: the worker must then die. *)
let execute t (job : job) : Proto.reply option =
  let key =
    Option.map
      (fun c -> (job.j_tenant, c.Mi_core.Config.approach))
      job.j_setup.Harness.config
  in
  match key with
  | Some ((_, a) as k) when breaker t k >= t.cfg.trip ->
      Atomic.incr t.degraded;
      Some
        (Proto.R_degraded
           {
             id = job.j_id;
             approach = a;
             reason =
               Printf.sprintf
                 "approach disabled for this tenant after %d consecutive \
                  failures"
                 t.cfg.trip;
           })
  | _ -> (
      (* a request rerun after an injected crash runs immune: the chaos
         already hit it, and the restarted worker must make progress *)
      let faults =
        if job.j_crashed then { t.cfg.faults with Fault.jobs = [] }
        else t.cfg.faults
      in
      let h =
        Harness.create ~jobs:1 ~cache:t.cfg.cache ~faults
          ?job_timeout:(effective_timeout t job) ~retries:t.cfg.retries ()
      in
      match Harness.run h job.j_setup job.j_bench with
      | Ok r ->
          Option.iter (settle t ~crashed:false) key;
          Atomic.incr t.completed;
          Some (Proto.R_ok { id = job.j_id; result = Proto.run_to_json r })
      | Error _ -> (
          (* a one-job session records exactly the failure of its [Error] *)
          let jf = List.hd (Harness.failures h) in
          match jf.Harness.jf_kind with
          | Harness.Injected -> None
          | kind ->
              Atomic.incr t.failed;
              (* breaker: only crashes (compile failures among them)
                 count — timeouts are not the checker's fault *)
              if kind = Harness.Crash then
                Option.iter (settle t ~crashed:true) key;
              Some
                (Proto.R_failed
                   {
                     id = job.j_id;
                     kind = Harness.kind_name kind;
                     reason = jf.Harness.jf_reason;
                     retries = jf.Harness.jf_retries;
                   })))

let rec worker_loop t slot =
  match take_job t with
  | None -> ()
  | Some job -> (
      let reply =
        try execute t job
        with exn ->
          (* last-resort containment: a worker domain only ever dies on
             purpose (an injected crash, below) *)
          Atomic.incr t.failed;
          Some
            (Proto.R_failed
               {
                 id = job.j_id;
                 kind = "crash";
                 reason = Printexc.to_string exn;
                 retries = 0;
               })
      in
      match reply with
      | None ->
          (* injected worker crash: requeue the request, then die for
             real — the supervisor restarts this slot *)
          job.j_crashed <- true;
          requeue t job;
          Atomic.set t.dead.(slot) true;
          wake t
      | Some reply ->
          post_reply t job reply;
          Mutex.lock t.q_lock;
          Atomic.decr t.in_flight;
          Mutex.unlock t.q_lock;
          wake t;
          worker_loop t slot)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_json t =
  let cs = Icache.stats t.cfg.cache in
  let count, max_ms, lats =
    Mutex.protect t.lat_lock (fun () ->
        let l = t.latencies in
        (l.Latency.count, l.Latency.max, Latency.sorted l))
  in
  Mutex.lock t.q_lock;
  let depth = queue_depth_unlocked t in
  Mutex.unlock t.q_lock;
  let tenants =
    Mutex.protect t.tenants_lock (fun () -> Hashtbl.length t.tenants)
  in
  Json.Obj
    [
      ("accepted", Json.Int (Atomic.get t.accepted));
      ("rejected", Json.Int (Atomic.get t.rejected));
      ("completed", Json.Int (Atomic.get t.completed));
      ("failed", Json.Int (Atomic.get t.failed));
      ("degraded", Json.Int (Atomic.get t.degraded));
      ("restarts", Json.Int (Atomic.get t.restarts));
      ("queue_depth", Json.Int depth);
      ("in_flight", Json.Int (Atomic.get t.in_flight));
      ("workers", Json.Int t.cfg.workers);
      ("queue_cap", Json.Int t.cfg.queue_cap);
      ("tenants", Json.Int tenants);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int cs.Icache.hits);
            ("misses", Json.Int cs.Icache.misses);
            ("corrupt", Json.Int cs.Icache.corrupt);
          ] );
      ( "latency_ms",
        Json.Obj
          [
            ("count", Json.Int count);
            ("p50", Json.Float (Latency.percentile lats 0.5));
            ("p99", Json.Float (Latency.percentile lats 0.99));
            ("max", Json.Float max_ms);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  mutable c_in : string;  (* unparsed stream bytes *)
  mutable c_out : string;  (* unsent reply bytes *)
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run (cfg : cfg) : final =
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      tenants = Hashtbl.create 16;
      breakers = Hashtbl.create 16;
      tenants_lock = Mutex.create ();
      q = Queue.create ();
      requeued = [];
      q_lock = Mutex.create ();
      q_cond = Condition.create ();
      halt = Atomic.make false;
      in_flight = Atomic.make 0;
      outbox = [];
      out_lock = Mutex.create ();
      wake_w;
      dead = Array.init cfg.workers (fun _ -> Atomic.make false);
      accepted = Atomic.make 0;
      rejected = Atomic.make 0;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      degraded = Atomic.make 0;
      restarts = Atomic.make 0;
      lat_lock = Mutex.create ();
      latencies = Latency.create ();
    }
  in
  let handles =
    Array.init cfg.workers (fun slot ->
        Domain.spawn (fun () -> worker_loop t slot))
  in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_conn = ref 0 in
  let stopping = ref false in
  let running = ref true in
  let drop_conn c =
    close_quietly c.c_fd;
    Hashtbl.remove conns c.c_id
  in
  let handle_frame c payload =
    let out reply = c.c_out <- c.c_out ^ Proto.reply_frame reply in
    match Proto.request_of_string payload with
    | Error (id, reason) -> out (Proto.R_error { id; reason })
    | Ok (Proto.Ping { id }) -> out (Proto.R_pong { id })
    | Ok (Proto.Stats { id }) -> out (Proto.R_stats { id; stats = stats_json t })
    | Ok (Proto.Shutdown { id }) ->
        out (Proto.R_bye { id });
        stopping := true
    | Ok (Proto.Run { id; tenant; setup; bench; timeout_ms }) ->
        if !stopping then
          out (Proto.R_error { id; reason = "server is shutting down" })
        else begin
          Mutex.lock t.q_lock;
          let depth = queue_depth_unlocked t in
          if depth >= t.cfg.queue_cap then begin
            Mutex.unlock t.q_lock;
            Atomic.incr t.rejected;
            out
              (Proto.R_overloaded
                 { id; queue = depth; capacity = t.cfg.queue_cap })
          end
          else begin
            Queue.push
              {
                j_id = id;
                j_conn = c.c_id;
                j_tenant = tenant;
                j_setup = setup;
                j_bench = bench;
                j_timeout_ms = timeout_ms;
                j_admitted = Mclock.now ();
                j_crashed = false;
              }
              t.q;
            Atomic.incr t.accepted;
            Condition.signal t.q_cond;
            Mutex.unlock t.q_lock;
            Mutex.protect t.tenants_lock (fun () ->
                Hashtbl.replace t.tenants tenant ())
          end
        end
  in
  let buf = Bytes.create 65536 in
  while !running do
    (* supervise: reap dead worker domains, restart their slot with the
       queue untouched *)
    Array.iteri
      (fun slot dead ->
        if Atomic.get dead then begin
          Domain.join handles.(slot);
          Atomic.set dead false;
          Atomic.incr t.restarts;
          if cfg.verbose then
            Printf.eprintf "[mi-serve] worker %d crashed; restarting\n%!" slot;
          handles.(slot) <- Domain.spawn (fun () -> worker_loop t slot)
        end)
      t.dead;
    (* route finished replies to their connections *)
    let pending =
      Mutex.lock t.out_lock;
      let p = t.outbox in
      t.outbox <- [];
      Mutex.unlock t.out_lock;
      List.rev p
    in
    List.iter
      (fun (cid, frame) ->
        match Hashtbl.find_opt conns cid with
        | Some c -> c.c_out <- c.c_out ^ frame
        | None -> () (* client hung up before its reply *))
      pending;
    let rset =
      listen_fd :: wake_r :: Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) conns []
    in
    let wset =
      Hashtbl.fold
        (fun _ c acc -> if c.c_out <> "" then c.c_fd :: acc else acc)
        conns []
    in
    let readable, writable, _ =
      match Unix.select rset wset [] 0.05 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let conn_of_fd fd =
      Hashtbl.fold
        (fun _ c acc -> if c.c_fd = fd then Some c else acc)
        conns None
    in
    (* flush pending replies *)
    List.iter
      (fun fd ->
        match conn_of_fd fd with
        | Some c when c.c_out <> "" -> (
            match
              Unix.write_substring c.c_fd c.c_out 0 (String.length c.c_out)
            with
            | n -> c.c_out <- String.sub c.c_out n (String.length c.c_out - n)
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
            | exception Unix.Unix_error (Unix.EPIPE, _, _) -> drop_conn c)
        | _ -> ())
      writable;
    (* accept / read *)
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          match Unix.accept ~cloexec:true listen_fd with
          | cfd, _ ->
              Unix.set_nonblock cfd;
              incr next_conn;
              Hashtbl.replace conns !next_conn
                { c_id = !next_conn; c_fd = cfd; c_in = ""; c_out = "" }
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              ()
        end
        else if fd = wake_r then begin
          let rec drain () =
            match Unix.read wake_r buf 0 (Bytes.length buf) with
            | 0 -> ()
            | _ -> drain ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
          in
          drain ()
        end
        else
          match conn_of_fd fd with
          | None -> ()
          | Some c -> (
              match Unix.read c.c_fd buf 0 (Bytes.length buf) with
              | 0 -> drop_conn c
              | n -> (
                  c.c_in <- c.c_in ^ Bytes.sub_string buf 0 n;
                  match Proto.pop_frames c.c_in with
                  | frames, rest ->
                      c.c_in <- rest;
                      List.iter (handle_frame c) frames
                  | exception Proto.Bad_frame _ ->
                      (* framing desync is unrecoverable *)
                      drop_conn c)
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  drop_conn c))
      readable;
    (* clean shutdown: everything accepted has been served and flushed *)
    if !stopping then begin
      Mutex.lock t.q_lock;
      let drained =
        queue_depth_unlocked t = 0 && Atomic.get t.in_flight = 0
      in
      Mutex.unlock t.q_lock;
      Mutex.lock t.out_lock;
      let outbox_empty = t.outbox = [] in
      Mutex.unlock t.out_lock;
      let flushed =
        Hashtbl.fold (fun _ c acc -> acc && c.c_out = "") conns true
      in
      if drained && outbox_empty && flushed then running := false
    end
  done;
  Atomic.set t.halt true;
  Mutex.lock t.q_lock;
  Condition.broadcast t.q_cond;
  Mutex.unlock t.q_lock;
  Array.iter Domain.join handles;
  Hashtbl.iter (fun _ c -> close_quietly c.c_fd) conns;
  close_quietly listen_fd;
  close_quietly wake_r;
  close_quietly t.wake_w;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let fin =
    {
      f_accepted = Atomic.get t.accepted;
      f_rejected = Atomic.get t.rejected;
      f_completed = Atomic.get t.completed;
      f_failed = Atomic.get t.failed;
      f_degraded = Atomic.get t.degraded;
      f_restarts = Atomic.get t.restarts;
      f_cache = Icache.stats t.cfg.cache;
    }
  in
  if cfg.verbose then
    Printf.eprintf
      "[mi-serve] accepted=%d rejected=%d ok=%d failed=%d degraded=%d \
       restarts=%d cache-corrupt=%d\n\
       %!"
      fin.f_accepted fin.f_rejected fin.f_completed fin.f_failed
      fin.f_degraded fin.f_restarts fin.f_cache.Icache.corrupt;
  fin

let final_line fin =
  Printf.sprintf
    "server: accepted=%d rejected=%d ok=%d failed=%d degraded=%d restarts=%d \
     cache-hits=%d cache-misses=%d cache-corrupt=%d"
    fin.f_accepted fin.f_rejected fin.f_completed fin.f_failed fin.f_degraded
    fin.f_restarts fin.f_cache.Icache.hits fin.f_cache.Icache.misses
    fin.f_cache.Icache.corrupt
