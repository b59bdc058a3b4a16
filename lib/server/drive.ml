(** Load generator and differential verifier for {!Server}.

    [mi-serve --drive] replays a fuzz-generated job matrix against a
    running daemon over [conns] concurrent connections, each pipelining
    a burst of requests, then recomputes every job through a local batch
    {!Mi_bench_kit.Harness.t} and asserts the server's results are
    byte-identical ({!Proto.run_to_json} documents compared as strings).

    Overload handling is part of the exercise: bursts are sized to
    overflow the server's bounded queue, the typed [overloaded] reply is
    retried with a small backoff, and the drive fails if any accepted
    request went unanswered — "zero dropped" is an assertion, not a
    hope.  The greppable summary lines ([drive: ...] and [server: ...])
    are what the CI chaos gate checks. *)

module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Fault = Mi_faultkit.Fault
module Json = Mi_obs.Json
module Mclock = Mi_support.Mclock
module Gen = Mi_fuzz.Gen
module Oracle = Mi_fuzz.Oracle

type cfg = {
  d_socket : string;
  d_seeds : int * int;  (** inclusive block of generator seeds *)
  d_variants : string list;  (** oracle tags, e.g. ["O0"; "O3+sb"] *)
  d_conns : int;  (** concurrent client connections (domains) *)
  d_burst : int;  (** pipelined requests per connection *)
  d_tenants : int;  (** requests spread over this many tenant names *)
  d_faults : Fault.t;
      (** the server's chaos plan — check/VM clauses are replayed in the
          local verification harness so both sides compute the same
          function; job and cache clauses are the server's to absorb *)
  d_timeout_ms : int option;  (** per-request deadline sent to the server *)
  d_verify_jobs : int;  (** [-j] of the local verification harness *)
  d_shutdown : bool;  (** send [shutdown] when done *)
}

(** [O0] and one [O3+ns] tag per registered checker, in registry order *)
let default_variants = "O0" :: List.map fst Oracle.checker_variants

let default_cfg ~socket =
  {
    d_socket = socket;
    d_seeds = (1, 25);
    d_variants = default_variants;
    d_conns = 4;
    d_burst = 4;
    d_tenants = 2;
    d_faults = Fault.none;
    d_timeout_ms = None;
    d_verify_jobs = Harness.default_jobs ();
    d_shutdown = false;
  }

type outcome = {
  o_jobs : int;
  o_ok : int;
  o_failed : int;
  o_degraded : int;
  o_errors : int;  (** protocol-level error replies *)
  o_dropped : int;  (** accepted requests that never got a reply *)
  o_mismatches : int;  (** replies that differ from the batch harness *)
  o_overload_retries : int;
  o_stats : Json.t option;  (** the server's final [stats] document *)
}

let clean o =
  o.o_dropped = 0 && o.o_mismatches = 0 && o.o_errors = 0 && o.o_jobs > 0

(* ------------------------------------------------------------------ *)
(* Job matrix                                                          *)
(* ------------------------------------------------------------------ *)

type djob = {
  dj_seed : int;
  dj_tag : string;
  dj_tenant : string;
  dj_setup : Harness.setup;
  dj_bench : Bench.t;
}

let jobs_of cfg : djob array =
  let lo, hi = cfg.d_seeds in
  let tenants = max 1 cfg.d_tenants in
  let rec go seed acc =
    if seed > hi then List.rev acc
    else
      let prog = Gen.generate ~seed () in
      let bench = Oracle.safe_bench prog in
      let tenant = Printf.sprintf "t%d" (seed mod tenants) in
      let js =
        List.map
          (fun tag ->
            {
              dj_seed = seed;
              dj_tag = tag;
              dj_tenant = tenant;
              dj_setup = Oracle.variant_setup tag;
              dj_bench = bench;
            })
          cfg.d_variants
      in
      go (seed + 1) (List.rev_append js acc)
  in
  Array.of_list (go lo [])

(* ------------------------------------------------------------------ *)
(* Client connections                                                  *)
(* ------------------------------------------------------------------ *)

let connect_retry path =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempt < 100 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Mclock.sleep 0.05;
        go (attempt + 1)
  in
  go 0

(* request ids are 1-based global job indices *)
let request_of cfg gid (j : djob) =
  Proto.Run
    {
      id = gid;
      tenant = j.dj_tenant;
      setup = j.dj_setup;
      bench = j.dj_bench;
      timeout_ms = cfg.d_timeout_ms;
    }

type conn_result = {
  cr_replies : (int * Proto.reply) list;
  cr_overload_retries : int;
  cr_dropped : int;
}

(* drive one connection's slice: keep [burst] requests pipelined, retry
   overloaded ones, collect terminal replies *)
let run_conn cfg (slice : (int * djob) array) : conn_result =
  let n = Array.length slice in
  if n = 0 then { cr_replies = []; cr_overload_retries = 0; cr_dropped = 0 }
  else begin
    let fd = connect_retry cfg.d_socket in
    let frames = Hashtbl.create n in
    Array.iter
      (fun (gid, j) ->
        Hashtbl.replace frames gid (Proto.request_frame (request_of cfg gid j)))
      slice;
    let results = Hashtbl.create n in
    let pending = Hashtbl.create cfg.d_burst in
    let next = ref 0 in
    let retries = ref 0 in
    let send gid =
      let f = Hashtbl.find frames gid in
      let rec all pos len =
        if len > 0 then begin
          let k = Unix.write_substring fd f pos len in
          all (pos + k) (len - k)
        end
      in
      all 0 (String.length f)
    in
    (try
       while Hashtbl.length results < n do
         while !next < n && Hashtbl.length pending < max 1 cfg.d_burst do
           let gid, _ = slice.(!next) in
           Hashtbl.replace pending gid ();
           send gid;
           incr next
         done;
         match Proto.read_frame fd with
         | None -> raise Exit (* server went away: remainder is dropped *)
         | Some payload -> (
             match Proto.reply_of_string payload with
             | Proto.R_overloaded { id; _ } ->
                 (* not accepted — back off briefly and resubmit *)
                 incr retries;
                 Mclock.sleep 0.02;
                 send id
             | r ->
                 let id = Proto.reply_id r in
                 Hashtbl.remove pending id;
                 Hashtbl.replace results id r)
       done
     with Exit | Unix.Unix_error _ | Proto.Bad_frame _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    {
      cr_replies =
        Array.to_list slice
        |> List.filter_map (fun (gid, _) ->
               Option.map (fun r -> (gid, r)) (Hashtbl.find_opt results gid));
      cr_overload_retries = !retries;
      cr_dropped = n - Hashtbl.length results;
    }
  end

(* ------------------------------------------------------------------ *)
(* Differential verification                                           *)
(* ------------------------------------------------------------------ *)

(* compute every job locally, in one batch session suffering the same
   compile/VM faults (job chaos stays on the server side, and the
   session's own in-memory cache has nothing to corrupt) *)
let local_results cfg (jobs : djob array) =
  let faults = { cfg.d_faults with Fault.jobs = [] } in
  let h =
    Harness.create ~jobs:cfg.d_verify_jobs ~faults
      ?job_timeout:
        (Option.map (fun ms -> Float.of_int ms /. 1000.) cfg.d_timeout_ms)
      ()
  in
  Harness.run_jobs h
    (Array.to_list (Array.map (fun j -> (j.dj_setup, j.dj_bench)) jobs))

(* [Some detail] when the server's reply disagrees with the batch run *)
let compare_one (j : djob) (reply : Proto.reply)
    (local : (Harness.run, Harness.error) result) : string option =
  match (reply, local) with
  | Proto.R_ok { result; _ }, Ok r ->
      let server = Json.to_string result in
      let batch = Json.to_string (Proto.run_to_json r) in
      if String.equal server batch then None
      else
        Some
          (Printf.sprintf "seed %d %s: server %s / batch %s" j.dj_seed j.dj_tag
             server batch)
  | Proto.R_failed { reason; _ }, Error e ->
      if String.equal reason e.Harness.reason then None
      else
        Some
          (Printf.sprintf "seed %d %s: server failed %S / batch failed %S"
             j.dj_seed j.dj_tag reason e.Harness.reason)
  | Proto.R_ok _, Error e ->
      Some
        (Printf.sprintf "seed %d %s: server ok / batch failed %S" j.dj_seed
           j.dj_tag e.Harness.reason)
  | Proto.R_failed { reason; _ }, Ok _ ->
      Some
        (Printf.sprintf "seed %d %s: server failed %S / batch ok" j.dj_seed
           j.dj_tag reason)
  | (Proto.R_degraded _ | Proto.R_error _), _ ->
      None (* counted separately, not a determinism question *)
  | _ ->
      Some (Printf.sprintf "seed %d %s: unexpected reply" j.dj_seed j.dj_tag)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let int_stat stats name =
  match Option.bind stats (Json.member name) with
  | Some (Json.Int n) -> n
  | _ -> -1

let run (cfg : cfg) : outcome =
  let jobs = jobs_of cfg in
  let n = Array.length jobs in
  let conns = max 1 cfg.d_conns in
  (* round-robin slices: every connection mixes tenants and variants *)
  let slices =
    Array.init conns (fun c ->
        Array.of_list
          (List.filter_map
             (fun i -> if i mod conns = c then Some (i + 1, jobs.(i)) else None)
             (List.init n Fun.id)))
  in
  let handles =
    Array.map (fun s -> Domain.spawn (fun () -> run_conn cfg s)) slices
  in
  let crs = Array.map Domain.join handles in
  let replies = Hashtbl.create n in
  Array.iter
    (fun cr -> List.iter (fun (gid, r) -> Hashtbl.replace replies gid r) cr.cr_replies)
    crs;
  let overload_retries =
    Array.fold_left (fun a cr -> a + cr.cr_overload_retries) 0 crs
  in
  let dropped = Array.fold_left (fun a cr -> a + cr.cr_dropped) 0 crs in
  (* final server stats (and optional shutdown) on a fresh connection *)
  let stats =
    match connect_retry cfg.d_socket with
    | fd ->
        let ask req =
          Proto.write_frame fd (Json.to_string (Proto.request_to_json req));
          Option.map Proto.reply_of_string (Proto.read_frame fd)
        in
        let stats =
          match ask (Proto.Stats { id = 1 }) with
          | Some (Proto.R_stats { stats; _ }) -> Some stats
          | _ -> None
        in
        if cfg.d_shutdown then
          ignore (ask (Proto.Shutdown { id = 2 }) : Proto.reply option);
        (try Unix.close fd with Unix.Unix_error _ -> ());
        stats
    | exception Unix.Unix_error _ -> None
  in
  (* recompute everything through the batch harness and diff *)
  let local = Array.of_list (local_results cfg jobs) in
  let ok = ref 0
  and failed = ref 0
  and degraded = ref 0
  and errors = ref 0
  and mismatches = ref 0 in
  Array.iteri
    (fun i j ->
      match Hashtbl.find_opt replies (i + 1) with
      | None -> ()
      | Some r -> (
          (match r with
          | Proto.R_ok _ -> incr ok
          | Proto.R_failed _ -> incr failed
          | Proto.R_degraded _ -> incr degraded
          | Proto.R_error _ -> incr errors
          | _ -> incr errors);
          match compare_one j r local.(i) with
          | None -> ()
          | Some detail ->
              incr mismatches;
              if !mismatches <= 5 then
                Printf.eprintf "[drive] mismatch: %s\n%!" detail))
    jobs;
  let o =
    {
      o_jobs = n;
      o_ok = !ok;
      o_failed = !failed;
      o_degraded = !degraded;
      o_errors = !errors;
      o_dropped = dropped;
      o_mismatches = !mismatches;
      o_overload_retries = overload_retries;
      o_stats = stats;
    }
  in
  o

(** The [drive:] and [server:] summary lines of a run, which
    [mi-serve --drive] prints and the CI gate reads.  Their
    [overload-retries] and [rejected] counts depend on timing. *)
let summary o =
  let stat = int_stat o.o_stats in
  let cache = int_stat (Option.bind o.o_stats (Json.member "cache")) in
  Printf.sprintf
    "drive: jobs=%d ok=%d failed=%d degraded=%d errors=%d dropped=%d \
     mismatches=%d overload-retries=%d\n\
     server: accepted=%d rejected=%d ok=%d failed=%d degraded=%d restarts=%d \
     cache-hits=%d cache-misses=%d cache-corrupt=%d\n"
    o.o_jobs o.o_ok o.o_failed o.o_degraded o.o_errors o.o_dropped
    o.o_mismatches o.o_overload_retries (stat "accepted") (stat "rejected")
    (stat "completed") (stat "failed") (stat "degraded") (stat "restarts")
    (cache "hits") (cache "misses") (cache "corrupt")
