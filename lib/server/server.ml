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
    - {b Worker pool}: [workers] domains pop jobs and run them through
      per-tenant {!Mi_bench_kit.Harness.t} sessions that all share one
      content-addressed instrumentation cache.
    - {b Supervisor}: an injected worker crash ([--inject crash=SUBSTR])
      kills the worker domain for real — the job is requeued at the
      front first, the event loop reaps the dead domain, restarts the
      slot and counts it.  Queue intact, zero requests dropped.
    - {b Degraded modes}: a corrupted cache entry is quarantined and
      recomputed by the cache itself; a tenant approach that keeps
      failing trips a circuit breaker and answers [degraded] while every
      other approach keeps serving.

    Determinism: per-request results are {!Proto.run_to_json} documents,
    byte-identical to the batch harness on the same job.  Tenant
    sessions aggregate observability in completion order, but every
    merge ({!Mi_obs}) is commutative and associative, so final counter
    values are schedule-independent; only trace event order is not. *)

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
  cache_dir : string option;  (** persist the shared instrumentation cache *)
  faults : Fault.t;
      (** chaos plan: [crash=]/[hang=] clauses fire in server workers
          (matched against ["tenant/<setup_key>/<bench>"]),
          [corrupt-cache=] is applied to the shared cache at startup,
          and check/VM clauses flow into every tenant session *)
  job_timeout : float option;  (** default per-request budget, seconds *)
  retries : int;  (** harness-level retries inside tenant sessions *)
  retry_backoff_ms : int;
  trip : int;  (** consecutive failures that trip a tenant's breaker *)
  verbose : bool;
}

let default_cfg ~socket =
  {
    socket;
    workers = 2;
    queue_cap = 16;
    cache_dir = None;
    faults = Fault.none;
    job_timeout = None;
    retries = 0;
    retry_backoff_ms = 250;
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
  mutable j_crashes : int;  (* injected worker crashes already suffered *)
}

type tenant = {
  tn_h : Harness.t;
  tn_lock : Mutex.t;  (* serializes runs (and set_job_timeout) *)
  tn_breaker : (string, int) Hashtbl.t;  (* approach -> consecutive fails *)
  tn_disabled : (string, string) Hashtbl.t;  (* approach -> reason *)
}

type t = {
  cfg : cfg;
  cache : Icache.t;
  tenants : (string, tenant) Hashtbl.t;
  tenants_lock : Mutex.t;
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
  mutable latencies : float list;  (* ms, admission to reply *)
}

let job_desc (job : job) =
  job.j_tenant ^ "/"
  ^ Harness.setup_key job.j_setup
  ^ "/" ^ job.j_bench.Bench.name

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
  Mutex.lock t.lat_lock;
  t.latencies <- ms :: t.latencies;
  Mutex.unlock t.lat_lock

let get_tenant t name =
  Mutex.lock t.tenants_lock;
  let tn =
    match Hashtbl.find_opt t.tenants name with
    | Some tn -> tn
    | None ->
        (* job chaos is the server's business and the cache was
           corrupted once at startup — tenant sessions get the plan
           minus both, over the shared cache *)
        let faults = { t.cfg.faults with Fault.jobs = []; cache = None } in
        let h =
          Harness.create ~jobs:1 ~cache:t.cache ~faults
            ?job_timeout:t.cfg.job_timeout ~retries:t.cfg.retries
            ~retry_backoff_ms:t.cfg.retry_backoff_ms ()
        in
        let tn =
          {
            tn_h = h;
            tn_lock = Mutex.create ();
            tn_breaker = Hashtbl.create 7;
            tn_disabled = Hashtbl.create 7;
          }
        in
        Hashtbl.replace t.tenants name tn;
        tn
  in
  Mutex.unlock t.tenants_lock;
  tn

let failure_kind_name = function
  | Harness.Crash -> "crash"
  | Harness.Timeout -> "timeout"
  | Harness.Injected -> "injected"

(* the failure the run just recorded, if any (compile/link errors yield
   an [Error] without a job_failure entry) *)
let fresh_failure h ~before =
  let fs = Harness.failures h in
  if List.length fs > before then
    match List.rev fs with f :: _ -> Some f | [] -> None
  else None

let execute t (job : job) : Proto.reply =
  let tn = get_tenant t job.j_tenant in
  let approach =
    Option.map
      (fun c -> c.Mi_core.Config.approach)
      job.j_setup.Harness.config
  in
  Mutex.lock tn.tn_lock;
  let reply =
    match approach with
    | Some a when Hashtbl.mem tn.tn_disabled a ->
        Atomic.incr t.degraded;
        Proto.R_degraded
          { id = job.j_id; approach = a; reason = Hashtbl.find tn.tn_disabled a }
    | _ -> (
        Harness.set_job_timeout tn.tn_h (effective_timeout t job);
        let before = List.length (Harness.failures tn.tn_h) in
        match Harness.run tn.tn_h job.j_setup job.j_bench with
        | Ok r ->
            Option.iter (fun a -> Hashtbl.remove tn.tn_breaker a) approach;
            Atomic.incr t.completed;
            Proto.R_ok { id = job.j_id; result = Proto.run_to_json r }
        | Error e ->
            Atomic.incr t.failed;
            let kind, retries =
              match fresh_failure tn.tn_h ~before with
              | Some jf ->
                  (failure_kind_name jf.Harness.jf_kind, jf.Harness.jf_retries)
              | None -> ("error", 0)
            in
            (* breaker: only genuine crashes and compile failures count —
               timeouts and injected chaos are not the checker's fault *)
            (match (approach, kind) with
            | Some a, ("crash" | "error") ->
                let n =
                  (match Hashtbl.find_opt tn.tn_breaker a with
                  | Some n -> n
                  | None -> 0)
                  + 1
                in
                Hashtbl.replace tn.tn_breaker a n;
                if n >= t.cfg.trip then
                  Hashtbl.replace tn.tn_disabled a
                    (Printf.sprintf
                       "approach disabled for this tenant after %d \
                        consecutive failures"
                       n)
            | _ -> ());
            Proto.R_failed
              { id = job.j_id; kind; reason = e.Harness.reason; retries })
  in
  (* nothing reads a tenant's spans: drop the request's, so the daemon's
     memory does not grow with the requests it has served *)
  Mi_obs.Trace.clear (Harness.obs tn.tn_h).Mi_obs.Obs.trace;
  Mutex.unlock tn.tn_lock;
  reply

let rec worker_loop t slot =
  match take_job t with
  | None -> ()
  | Some job -> (
      let fault =
        (* a job retried after an injected crash runs immune: the chaos
           already hit it, and the restarted worker must make progress *)
        if job.j_crashes = 0 then Fault.job_fault_for t.cfg.faults (job_desc job)
        else None
      in
      match fault with
      | Some (Fault.Crash_job _) ->
          (* injected worker crash: requeue the request, then die for
             real — the supervisor restarts this slot *)
          job.j_crashes <- 1;
          requeue t job;
          Atomic.set t.dead.(slot) true;
          wake t
      | fault ->
          let timed_out_in_hang =
            match fault with
            | Some (Fault.Hang_job (_, secs)) ->
                let budget = effective_timeout t job in
                let stall =
                  match budget with
                  | Some b -> Float.min secs b
                  | None -> secs
                in
                Mclock.sleep stall;
                (match budget with Some b -> secs >= b | None -> false)
            | _ -> false
          in
          let reply =
            if timed_out_in_hang then begin
              Atomic.incr t.failed;
              Proto.R_failed
                {
                  id = job.j_id;
                  kind = "timeout";
                  reason =
                    (match effective_timeout t job with
                    | Some b ->
                        Printf.sprintf "wall-clock budget exceeded (%gs)" b
                    | None -> "wall-clock budget exceeded");
                  retries = 0;
                }
            end
            else
              try execute t job
              with exn ->
                (* last-resort containment: a worker domain only ever
                   dies on purpose (injected crash above) *)
                Atomic.incr t.failed;
                Proto.R_failed
                  {
                    id = job.j_id;
                    kind = "crash";
                    reason = Printexc.to_string exn;
                    retries = 0;
                  }
          in
          post_reply t job reply;
          Mutex.lock t.q_lock;
          Atomic.decr t.in_flight;
          Mutex.unlock t.q_lock;
          wake t;
          worker_loop t slot)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      let idx = Float.to_int (Float.of_int (n - 1) *. p) in
      sorted.(idx)

let stats_json t =
  let cs = Icache.stats t.cache in
  Mutex.lock t.lat_lock;
  let lats = Array.of_list t.latencies in
  Mutex.unlock t.lat_lock;
  Array.sort compare lats;
  Mutex.lock t.q_lock;
  let depth = queue_depth_unlocked t in
  Mutex.unlock t.q_lock;
  Mutex.lock t.tenants_lock;
  let tenants = Hashtbl.length t.tenants in
  (* read without the tenants' locks: a count, not a snapshot *)
  let trace_events =
    Hashtbl.fold
      (fun _ tn n ->
        n + Mi_obs.Trace.event_count (Harness.obs tn.tn_h).Mi_obs.Obs.trace)
      t.tenants 0
  in
  Mutex.unlock t.tenants_lock;
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
      ("trace_events", Json.Int trace_events);
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
            ("count", Json.Int (Array.length lats));
            ("p50", Json.Float (percentile lats 0.5));
            ("p99", Json.Float (percentile lats 0.99));
            ( "max",
              Json.Float
                (if Array.length lats = 0 then 0.
                 else lats.(Array.length lats - 1)) );
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
  let cache = Icache.create ?dir:cfg.cache_dir () in
  (* chaos: corrupt the persisted cache once, at startup — entries are
     quarantined and recomputed on first access *)
  (match cfg.faults.Fault.cache with
  | Some how -> ignore (Icache.corrupt cache how : int)
  | None -> ());
  let t =
    {
      cfg;
      cache;
      tenants = Hashtbl.create 16;
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
      latencies = [];
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
                j_crashes = 0;
              }
              t.q;
            Atomic.incr t.accepted;
            Condition.signal t.q_cond;
            Mutex.unlock t.q_lock
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
      f_cache = Icache.stats t.cache;
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
