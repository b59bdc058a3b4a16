(** Experiment harness: compile, instrument, link, run, collect — and
    scale.

    One [setup] fixes everything the paper varies: the instrumentation
    configuration (or none, for the baseline), the optimization level,
    the extension point where the instrumentation runs, and the MiniC
    lowering mode (for the Figure 7 compiler-version experiment).

    A {!t} session owns the machinery that makes many runs cheap: an
    observability context that aggregates every run, an instrumentation
    cache ({!Icache}) that skips re-compiling identical setups, and a
    fixed-size pool of OCaml 5 domains ({!run_jobs}) that shards a
    (setup x benchmark) job matrix.  Every worker runs against a private
    {!Mi_obs.Obs} context; contexts are merged into the session in job
    order, and the VM is deterministic, so parallel results are
    byte-identical to sequential ones. *)

module Config = Mi_core.Config
module Pipeline = Mi_passes.Pipeline
module Obs = Mi_obs.Obs
module Fault = Mi_faultkit.Fault

(** How the VM dispatches runtime-intrinsic calls: [Fast] (the default)
    lets the loader fuse check calls into superinstructions; [Generic]
    forces every call through the boxed builtin path
    ({!Mi_vm.State.t.fast_dispatch}).  Execution-only — like [seed], it
    never affects compilation, so both variants share one
    instrumentation-cache entry. *)
type dispatch = Fast | Generic

type setup = {
  config : Config.t option;  (** [None]: uninstrumented baseline *)
  level : Pipeline.level;
  ep : Pipeline.extension_point;
  lowering : Mi_minic.Lower.mode;
  seed : int;
  dispatch : dispatch;
}

let baseline =
  {
    config = None;
    level = Pipeline.O3;
    ep = Pipeline.VectorizerStart;
    lowering = Mi_minic.Lower.default_mode;
    seed = 42;
    dispatch = Fast;
  }

let with_config c s = { s with config = Some c }

(** Canonical setup description: injective over every field, so it
    doubles as a job key. *)
let setup_key (s : setup) =
  Printf.sprintf "%s/%s/%s/%s/seed=%d%s"
    (match s.config with None -> "base" | Some c -> Config.to_string c)
    (Pipeline.level_name s.level) (Pipeline.ep_name s.ep)
    (if s.lowering.Mi_minic.Lower.ptr_mem_as_i64 then "i64ptr" else "std")
    s.seed
    (* suffix only in the non-default case, so every pre-existing key
       (goldens, cache dirs) is unchanged *)
    (match s.dispatch with Fast -> "" | Generic -> "/generic")

type run = {
  outcome : Mi_vm.Interp.outcome;
  cycles : int;
  steps : int;
  output : string;
  counters : (string * int) array;  (** sorted by name — use {!counter} *)
  static_stats : Mi_core.Instrument.mod_stats list;
      (** per instrumented translation unit *)
  program_instrs : int;  (** static instruction count after everything *)
  profile : Mi_obs.Site.snapshot list;
      (** per-check-site attribution ({!Mi_obs.Site}); empty when the
          setup is uninstrumented *)
  coverage : Mi_obs.Coverage.snapshot list;
      (** per-function block/edge coverage; empty unless the obs context
          carries a coverage registry ([Obs.create ~coverage:true]) *)
}

(* counters are sorted by State.counters_alist; binary search replaces
   the former List.assoc_opt linear scan per report row *)
let counter (r : run) key =
  let a = r.counters in
  let rec go lo hi =
    if lo >= hi then 0
    else begin
      let mid = (lo + hi) / 2 in
      let k, v = a.(mid) in
      let c = String.compare key k in
      if c = 0 then v else if c < 0 then go lo mid else go (mid + 1) hi
    end
  in
  go 0 (Array.length a)

let counters_alist (r : run) = Array.to_list r.counters

(* ------------------------------------------------------------------ *)
(* Stage memo                                                          *)
(* ------------------------------------------------------------------ *)

(* Every variant of a program lowers each unit the same way and runs the
   same pipeline prefix up to its extension point ({!Pipeline.prefix}).
   Within one job matrix such a stage — the lowering, or the module
   after a prefix phase — is computed once when several jobs need it,
   and each job forks the rest of its compile from a copy of the
   deepest stage it shares.  Stored modules are never mutated:
   consumers take an {!Mi_mir.Irmod.copy}. *)
type stage_state =
  | Unclaimed
  | Computing
  | Settled of (Mi_mir.Irmod.t, exn) result

type stage = {
  st_key : string;
  mutable st_uses : int;  (** jobs that have not yet released it *)
  mutable st_state : stage_state;
}

(* The memo of one session: shared stages, and the Icache keys whose
   lookup-or-compile some job is running (see [with_turn]). *)
type memo = {
  lock : Mutex.t;
  cond : Condition.t;  (** broadcast when a stage settles or a turn ends *)
  stages : (string, stage) Hashtbl.t;
  turns : (string, unit) Hashtbl.t;
}

(* The snapshot of shared stage [st]: computed with [get] by the first
   job to claim it, awaited by the others.  A failure is stored and
   re-raised to every consumer.  [get] never waits on another stage, so
   no job holds one claim while waiting for another. *)
let claim memo st get =
  let rec settle () =
    match st.st_state with
    | Computing ->
        Condition.wait memo.cond memo.lock;
        settle ()
    | Unclaimed ->
        st.st_state <- Computing;
        None
    | Settled r -> Some r
  in
  let r =
    match Mutex.protect memo.lock settle with
    | Some r -> r
    | None ->
        let r = try Ok (get ()) with e -> Error e in
        Mutex.protect memo.lock (fun () ->
            st.st_state <- Settled r;
            Condition.broadcast memo.cond);
        r
  in
  match r with Ok m -> m | Error e -> raise e

(* The memo key of a unit's lowering: everything [Lower.compile] reads.
   The key of the stage after prefix phase [k] appends the ids of phases
   [0..k], so variants share exactly the stages they have in common. *)
let stage_keys (setup : setup) (s : Bench.source) =
  let mode = Option.value ~default:setup.lowering s.mode_override in
  let lowered =
    Digest.to_hex
      (Digest.string
         (String.concat "\000"
            [
              s.src_name;
              string_of_bool mode.Mi_minic.Lower.ptr_mem_as_i64;
              s.code;
            ]))
  in
  let _, phased =
    List.fold_left_map
      (fun k (ph : Pipeline.phase) ->
        let k = k ^ "/" ^ ph.id in
        (k, k))
      lowered
      (Pipeline.prefix setup.level setup.ep)
  in
  lowered :: phased

(* ------------------------------------------------------------------ *)
(* Compile and execute phases                                          *)
(* ------------------------------------------------------------------ *)

(* Lower + instrument + optimize every translation unit.  Returns the
   modules (with their instrumented flags) and per-unit static stats.
   All sites registered during this phase land in [obs.sites].
   [stages] holds, per unit, the shared stages of its chain (lowering,
   then each prefix phase; [None] where this job alone needs the
   stage), resolved through [memo]; unshared stages run in place. *)
let compile ?(faults = Fault.none) ?memo ?(stages = []) ~obs
    (setup : setup) (sources : Bench.source list) :
    (Mi_mir.Irmod.t * bool) list * Mi_core.Instrument.mod_stats list =
  let tracer = obs.Obs.trace in
  let stats = ref [] in
  let phases = Pipeline.prefix setup.level setup.ep in
  (* the unit's module at [setup.ep], private to this job; work is
     composed lazily, so nothing runs below a stage another job has
     already computed *)
  let fork chain ~lower =
    let rec from j get phases =
      let get =
        match (memo, if j < Array.length chain then chain.(j) else None) with
        | Some memo, Some st ->
            let snap = claim memo st get in
            fun () -> Mi_mir.Irmod.copy snap
        | _ -> get
      in
      match phases with
      | [] -> get ()
      | ph :: rest ->
          from (j + 1)
            (fun () ->
              let m = get () in
              Pipeline.run_phase ~tracer ph m;
              m)
            rest
    in
    from 0 lower phases
  in
  let modules =
    Mi_obs.Trace.with_span tracer ~cat:"harness" "compile" (fun () ->
        List.mapi
          (fun i (s : Bench.source) ->
            let mode = Option.value ~default:setup.lowering s.mode_override in
            let chain = Option.value ~default:[||] (List.nth_opt stages i) in
            let m =
              fork chain ~lower:(fun () ->
                  Mi_obs.Trace.with_span tracer ~cat:"harness"
                    ("lower:" ^ s.src_name)
                    (fun () ->
                      Mi_minic.Lower.compile ~mode ~name:s.src_name s.code))
            in
            let instrument =
              match setup.config with
              | Some cfg when s.instrument ->
                  Some
                    (fun m ->
                      let st = Mi_core.Instrument.run ~obs ~faults cfg m in
                      stats := st :: !stats)
              | _ -> None
            in
            Pipeline.resume ~level:setup.level ?instrument ~ep:setup.ep
              ~tracer m;
            (m, s.instrument))
          sources)
  in
  (modules, List.rev !stats)

(* Load the compiled modules into a fresh VM with the configured runtime
   and execute.  Reads the modules but never mutates them, so cached
   modules can be shared across runs and domains. *)
let execute ?(faults = Fault.none) ?deadline ~obs (setup : setup)
    (modules : (Mi_mir.Irmod.t * bool) list)
    ~(static_stats : Mi_core.Instrument.mod_stats list) : run =
  let tracer = obs.Obs.trace in
  let st =
    Mi_vm.State.create ~seed:setup.seed ~metrics:obs.Obs.metrics
      ~sites:obs.Obs.sites ?coverage:obs.Obs.coverage ()
  in
  (* must precede [Interp.load]: fusion is a load-time decision *)
  (match setup.dispatch with
  | Fast -> ()
  | Generic -> st.Mi_vm.State.fast_dispatch <- false);
  Mi_vm.Inject.install faults st;
  Option.iter
    (fun (at, budget) -> Mi_vm.Inject.arm_deadline st ~deadline:at ~budget)
    deadline;
  Mi_vm.Builtins.install st;
  let alloc_global =
    match setup.config with
    | Some cfg -> Mi_runtimes.Runtimes.install cfg ~modules st
    | None -> None
  in
  let img =
    Mi_obs.Trace.with_span tracer ~cat:"harness" "load" (fun () ->
        Mi_vm.Interp.load ?alloc_global st (List.map fst modules))
  in
  let program_instrs =
    Mi_mir.Irmod.instr_count (Mi_vm.Interp.merged_module img)
  in
  let res =
    Mi_obs.Trace.with_span tracer ~cat:"harness" "execute" (fun () ->
        Mi_vm.Interp.run st img)
  in
  {
    outcome = res.outcome;
    cycles = res.cycles;
    steps = res.steps;
    output = res.output;
    (* runtime counters only: the registry also holds compile-phase
       [static.*] counters, which a cached run legitimately skips —
       static data belongs to [static_stats] *)
    counters =
      Array.of_list
        (List.filter
           (fun (k, _) -> not (String.starts_with ~prefix:"static." k))
           res.counters);
    static_stats;
    program_instrs;
    profile = Mi_obs.Site.snapshot obs.Obs.sites;
    coverage =
      (match obs.Obs.coverage with
      | None -> []
      | Some c -> Mi_obs.Coverage.snapshot c);
  }

(** Compile the translation units under [setup], link, execute.  Every
    run carries an observability context ({!Mi_obs.Obs}); pass [obs] to
    share one across runs (e.g. to export a trace spanning compile and
    execute, or to accumulate metrics).  This entry point never consults
    a cache — sessions do ({!run}, {!run_jobs}). *)
let run_sources ?(obs = Obs.create ()) ?(faults = Fault.none) (setup : setup)
    (sources : Bench.source list) : run =
  let modules, stats = compile ~faults ~obs setup sources in
  execute ~faults ~obs setup modules ~static_stats:stats

(** Normalized execution time (cycles / baseline cycles), the y-axis of
    Figures 9-13. *)
let overhead ~(baseline : run) (r : run) : float =
  float_of_int r.cycles /. float_of_int baseline.cycles

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error = { bench : string; reason : string }

exception Benchmark_failed of string * string

let () =
  Printexc.register_printer (function
    | Benchmark_failed (b, msg) ->
        Some (Printf.sprintf "Benchmark_failed(%s: %s)" b msg)
    | _ -> None)

(** Enforce the classic strictness contract on a completed run: the
    program must exit normally and match its expected output. *)
let check_run (b : Bench.t) (r : run) : (run, error) result =
  match r.outcome with
  | Mi_vm.Interp.Trapped msg -> Error { bench = b.name; reason = "trap: " ^ msg }
  | Mi_vm.Interp.Exhausted budget ->
      Error
        {
          bench = b.name;
          reason =
            Printf.sprintf "resource exhaustion: fuel budget of %d spent"
              budget;
        }
  | Mi_vm.Interp.Safety_violation { checker; reason } ->
      Error
        {
          bench = b.name;
          reason = Printf.sprintf "%s violation: %s" checker reason;
        }
  | Mi_vm.Interp.Exited _ -> (
      match b.expect_output with
      | Some expected when expected <> r.output ->
          Error
            {
              bench = b.name;
              reason =
                Printf.sprintf "output mismatch: expected %S, got %S"
                  expected r.output;
            }
      | _ -> Ok r)

(** Unwrap a strict result, raising {!Benchmark_failed} on any error —
    including a run that completed with a violation, trap or output
    mismatch. *)
let expect_ok (b : Bench.t) (res : (run, error) result) : run =
  match Result.bind res (check_run b) with
  | Ok r -> r
  | Error e -> raise (Benchmark_failed (e.bench, e.reason))

(* ------------------------------------------------------------------ *)
(* Sessions: obs + cache + worker pool                                 *)
(* ------------------------------------------------------------------ *)

type failure_kind =
  | Crash  (** the worker raised (a bug, or an un-typed injected fault) *)
  | Timeout  (** the per-job wall-clock budget ran out *)
  | Injected  (** an injected crash from the fault plan *)

type job_failure = {
  jf_setup : string;  (** {!setup_key} of the failed job *)
  jf_bench : string;
  jf_kind : failure_kind;
  jf_reason : string;
  jf_retries : int;  (** retries consumed before giving up *)
}

type t = {
  s_obs : Obs.t;
  s_cache : Icache.t;
  s_own_cache : bool;
      (** [s_cache] was created with the session: it is stamped and
          trimmed to {!private_cache_keep} entries after each call *)
  mutable s_calls : int;  (** {!run_jobs} calls so far *)
  s_jobs : int;
  s_faults : Fault.t;
  s_job_timeout : float option;
  s_retries : int;
  mutable s_failures : job_failure list;  (** newest first; see {!failures} *)
  mutable s_corrupt_seen : int;
      (** cache corruptions already folded into the session metrics *)
  s_memo : memo;  (** shared compile stages of the running matrix *)
}

type cache_stats = Icache.stats = { hits : int; misses : int; corrupt : int }

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* The entries a session keeps in the cache it created, after each
   {!run_jobs} call.  A private session only hits across calls when it
   cycles through a fixed job list; the largest such cycle is
   [bench/main.exe --vm-steps] with 40 keys (20 suite programs x 2
   setups).  Reuse inside one call does not depend on the bound: nothing
   is dropped while a matrix runs. *)
let private_cache_keep = 64

let create ?jobs ?cache ?obs ?(faults = Fault.none) ?job_timeout
    ?(retries = 0) () =
  {
    s_obs = (match obs with Some o -> o | None -> Obs.create ());
    s_cache = (match cache with Some c -> c | None -> Icache.create ());
    s_own_cache = Option.is_none cache;
    s_calls = 0;
    s_jobs =
      (match jobs with Some j -> max 1 j | None -> default_jobs ());
    s_faults = faults;
    s_job_timeout = job_timeout;
    s_retries = max 0 retries;
    s_failures = [];
    s_corrupt_seen = 0;
    s_memo =
      {
        lock = Mutex.create ();
        cond = Condition.create ();
        stages = Hashtbl.create 64;
        turns = Hashtbl.create 16;
      };
  }

let obs t = t.s_obs
let jobs t = t.s_jobs
let cache t = t.s_cache
let cache_stats t = Icache.stats t.s_cache

let memo_size t =
  let m = t.s_memo in
  Mutex.protect m.lock (fun () ->
      Hashtbl.length m.stages + Hashtbl.length m.turns)

(* The k-th (0-based) retry backoff in milliseconds: 10ms doubling,
   clamped at 250ms so a deep retry budget cannot sleep unboundedly
   (2^k grows past any useful delay within a dozen retries).  Pure, so
   the session metric can account sleeps exactly without measuring
   them. *)
let backoff_ms k = min 250 (10 * (1 lsl min k 20))

(* total backoff consumed by a job that went through [retries] retries *)
let backoff_total_ms retries =
  let rec go k acc = if k >= retries then acc else go (k + 1) (acc + backoff_ms k) in
  go 0 0

let failures t = List.rev t.s_failures

let kind_name = function
  | Crash -> "crash"
  | Timeout -> "timeout"
  | Injected -> "injected"

(** Deterministic plain-text manifest of every job failure, in job
    order; [""] when nothing failed. *)
let failure_manifest t =
  match failures t with
  | [] -> ""
  | fs ->
      let tbl =
        Mi_support.Table.create
          ~aligns:[ Mi_support.Table.Left; Left; Left; Right; Left ]
          [ "setup"; "benchmark"; "cause"; "retries"; "reason" ]
      in
      List.iter
        (fun f ->
          Mi_support.Table.add_row tbl
            [
              f.jf_setup;
              f.jf_bench;
              kind_name f.jf_kind;
              string_of_int f.jf_retries;
              f.jf_reason;
            ])
        fs;
      Mi_support.Table.render tbl

(* Everything the compile phase depends on, as cache-key content; the
   seed only affects execution and is deliberately left out. *)
let compile_key (setup : setup) (sources : Bench.source list) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (match setup.config with None -> "base" | Some c -> Config.to_string c);
  Buffer.add_string b
    (Printf.sprintf "\n%s/%s\n" (Pipeline.level_name setup.level)
       (Pipeline.ep_name setup.ep));
  List.iter
    (fun (s : Bench.source) ->
      let mode = Option.value ~default:setup.lowering s.mode_override in
      Buffer.add_string b
        (Printf.sprintf "--unit %s instrument=%b i64ptr=%b\n" s.src_name
           s.instrument mode.Mi_minic.Lower.ptr_mem_as_i64);
      Buffer.add_string b s.code;
      Buffer.add_char b '\n')
    sources;
  Buffer.contents b

let cache_key t (setup : setup) (b : Bench.t) =
  (* a mutated compile must never alias the unmutated entry *)
  match Fault.compile_sig t.s_faults with
  | "" -> compile_key setup b.sources
  | sig_ -> compile_key setup b.sources ^ "\n--faults " ^ sig_ ^ "\n"

(* One job's part in the matrix's compile sharing. *)
type plan = {
  p_key : string;  (** the job's Icache key *)
  p_stamp : (int * int) option;
      (** (call number, job index): when the session owns its cache, the
          recency this job gives the entry it reads or writes *)
  p_turn : bool;  (** another job of the matrix has the same key *)
  mutable p_stages : stage option array list;
      (** per unit, its shared stages; [[]] once released *)
}

(* Count every key's consumers over the (distinct) jobs up front.  A
   stage only one job needs is never stored; a one-job matrix computes
   no stage keys at all. *)
let plan_jobs t (jobs : (setup * Bench.t) array) : plan array =
  let keys = Array.map (fun (setup, b) -> cache_key t setup b) jobs in
  let stamp i = if t.s_own_cache then Some (t.s_calls, i) else None in
  if Array.length jobs < 2 then
    Array.mapi
      (fun i k ->
        { p_key = k; p_stamp = stamp i; p_turn = false; p_stages = [] })
      keys
  else begin
    let chains =
      Array.map
        (fun (setup, (b : Bench.t)) -> List.map (stage_keys setup) b.sources)
        jobs
    in
    (* Icache keys and stage keys (hex digests) cannot collide *)
    let uses = Hashtbl.create 256 in
    let count k =
      Hashtbl.replace uses k
        (1 + Option.value ~default:0 (Hashtbl.find_opt uses k))
    in
    Array.iter count keys;
    Array.iter (List.iter (List.iter count)) chains;
    let shared k = Hashtbl.find uses k > 1 in
    let memo = t.s_memo in
    let stage k =
      if not (shared k) then None
      else begin
        let st =
          match Hashtbl.find_opt memo.stages k with
          | Some st -> st
          | None ->
              let st = { st_key = k; st_uses = 0; st_state = Unclaimed } in
              Hashtbl.add memo.stages k st;
              st
        in
        st.st_uses <- st.st_uses + 1;
        Some st
      end
    in
    Mutex.protect memo.lock (fun () ->
        Array.mapi
          (fun i k ->
            {
              p_key = k;
              p_stamp = stamp i;
              p_turn = shared k;
              p_stages =
                List.map
                  (fun chain -> Array.of_list (List.map stage chain))
                  chains.(i);
            })
          keys)
  end

(* A job gives up its stages once it has its modules (or has failed for
   good); the last consumer of a stage drops it from the memo. *)
let release t (p : plan) =
  match p.p_stages with
  | [] -> ()
  | stages ->
      p.p_stages <- [];
      let memo = t.s_memo in
      Mutex.protect memo.lock (fun () ->
          List.iter
            (Array.iter
               (Option.iter (fun st ->
                    st.st_uses <- st.st_uses - 1;
                    if st.st_uses = 0 then
                      Hashtbl.remove memo.stages st.st_key)))
            stages)

(* Jobs of one matrix with the same Icache key (they differ only in seed
   or dispatch) take turns at its lookup-or-compile: the first to get
   there compiles, the others hit, at every -j as at -j 1 — so cache
   counts and compile spans do not depend on scheduling. *)
let with_turn t (p : plan) f =
  if not p.p_turn then f ()
  else begin
    let memo = t.s_memo in
    Mutex.protect memo.lock (fun () ->
        while Hashtbl.mem memo.turns p.p_key do
          Condition.wait memo.cond memo.lock
        done;
        Hashtbl.replace memo.turns p.p_key ());
    Fun.protect f ~finally:(fun () ->
        Mutex.protect memo.lock (fun () ->
            Hashtbl.remove memo.turns p.p_key;
            Condition.broadcast memo.cond))
  end

(* One cache-aware run on a private (freshly created) obs context.  The
   context MUST be empty: a cache hit replays the cached site registry
   from id 0, which is what the site ids embedded in the cached modules
   refer to. *)
let run_cached ?deadline t ~obs (p : plan) (setup : setup) (b : Bench.t) :
    run =
  let modules, stats =
    with_turn t p (fun () ->
        match Icache.find ?stamp:p.p_stamp t.s_cache p.p_key with
        | Some e ->
            List.iter
              (Mi_obs.Site.register_info obs.Obs.sites)
              e.Icache.e_sites;
            (e.Icache.e_modules, e.Icache.e_stats)
        | None ->
            let modules, stats =
              compile ~faults:t.s_faults ~memo:t.s_memo ~stages:p.p_stages
                ~obs setup b.sources
            in
            Icache.add ?stamp:p.p_stamp t.s_cache p.p_key
              {
                Icache.e_modules = modules;
                e_stats = stats;
                e_sites = Mi_obs.Site.infos obs.Obs.sites;
              };
            (modules, stats))
  in
  release t p;
  Mi_obs.Trace.with_span obs.Obs.trace ~cat:"benchmark"
    ("benchmark:" ^ b.name)
    (fun () ->
      execute ~faults:t.s_faults ?deadline ~obs setup modules
        ~static_stats:stats)

(** Shard [jobs] across the session's worker domains.  Duplicate jobs
    (same {!setup_key} and benchmark) are executed once and share their
    run.  Results are returned in input order; every worker used a
    private obs context, and the contexts are merged into the session's
    in (deduplicated) job order — never in completion order — so the
    returned runs and the session context are byte-identical no matter
    how many domains ran, or how the scheduler interleaved them. *)
(* One attempt of one job, on a fresh obs context.  Injected job faults
   fire first: a crash raises before any work; a hang stalls, capped at
   the job's budget.  A hang at least as long as the budget is a
   timeout, decided from the two numbers rather than from a clock read
   after the stall; a shorter one runs the job on what is left of its
   budget.  [wid] is the worker index, used only for trace thread
   labels. *)
let attempt_job t ~job_desc ~wid plan (setup : setup) (b : Bench.t) :
    Obs.t * run =
  let deadline =
    Option.map
      (fun budget -> (Mi_support.Mclock.deadline budget, budget))
      t.s_job_timeout
  in
  (match Fault.job_fault_for t.s_faults job_desc with
  | Some (Fault.Crash_job _) -> raise (Fault.Injected_crash job_desc)
  | Some (Fault.Hang_job (_, secs)) -> (
      match t.s_job_timeout with
      | Some budget when secs >= budget ->
          Mi_support.Mclock.sleep budget;
          raise (Fault.Job_timeout budget)
      | _ -> Mi_support.Mclock.sleep secs)
  | None -> ());
  (* records what the session records: coverage, and spans *)
  let obs =
    Obs.create
      ~coverage:(Option.is_some t.s_obs.Obs.coverage)
      ~trace:(Mi_obs.Trace.recording t.s_obs.Obs.trace)
      ()
  in
  Mi_obs.Trace.set_thread obs.Obs.trace ~tid:(wid + 1)
    ~name:(if wid = 0 then "main" else Printf.sprintf "worker-%d" wid);
  (obs, run_cached ?deadline t ~obs plan setup b)

(* Classify an exception that escaped a job attempt.  Reasons must be
   deterministic (no measured times, no addresses): they feed the
   failure manifest, which is part of the byte-identical output. *)
let classify_failure ~setup_key ~bench ~retries e =
  let kind, reason =
    match e with
    | Fault.Injected_crash what -> (Injected, "injected crash: " ^ what)
    | Fault.Job_timeout budget ->
        (Timeout, Printf.sprintf "wall-clock budget exceeded (%gs)" budget)
    | Mi_minic.Lower.Compile_error msg -> (Crash, "compile error: " ^ msg)
    | Mi_vm.Interp.Link_error msg -> (Crash, "link error: " ^ msg)
    | e -> (Crash, Printexc.to_string e)
  in
  {
    jf_setup = setup_key;
    jf_bench = bench;
    jf_kind = kind;
    jf_reason = reason;
    jf_retries = retries;
  }

let run_jobs t (jobs : (setup * Bench.t) list) :
    (run, error) result list =
  let job_key (s, (b : Bench.t)) = (setup_key s, b.name) in
  (* distinct jobs, first-occurrence order *)
  let index = Hashtbl.create 64 in
  let distinct = ref [] in
  let n = ref 0 in
  List.iter
    (fun job ->
      let k = job_key job in
      if not (Hashtbl.mem index k) then begin
        Hashtbl.add index k !n;
        distinct := job :: !distinct;
        incr n
      end)
    jobs;
  let arr = Array.of_list (List.rev !distinct) in
  let n = Array.length arr in
  t.s_calls <- t.s_calls + 1;
  let plans = plan_jobs t arr in
  let unscheduled =
    {
      jf_setup = "";
      jf_bench = "";
      jf_kind = Crash;
      jf_reason = "job was not scheduled";
      jf_retries = 0;
    }
  in
  let out : (run, job_failure) result array = Array.make n (Error unscheduled) in
  (* obs of SUCCESSFUL attempts only: a failed attempt's partial context
     (half-registered sites, partial counters) would poison the merge
     and break -j determinism, so it is discarded with the attempt *)
  let obss : Obs.t option array = Array.make n None in
  let retried = Array.make n 0 in
  let next = Atomic.make 0 in
  let worker wid =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let setup, b = arr.(i) in
        let sk = setup_key setup in
        let job_desc = sk ^ "/" ^ b.Bench.name in
        (* bounded retry with exponential backoff; the try captures
           EVERYTHING, so no exception ever escapes the worker and the
           pool can neither orphan queued jobs nor hang Domain.join *)
        let rec attempt k =
          match attempt_job t ~job_desc ~wid plans.(i) setup b with
          | obs, r ->
              obss.(i) <- Some obs;
              retried.(i) <- k;
              out.(i) <- Ok r
          | exception e ->
              if k < t.s_retries then begin
                (* capped exponential backoff (see [backoff_ms]); the
                   slept total is accounted in harness.backoff_ms when
                   the job folds into the session *)
                Unix.sleepf (Float.of_int (backoff_ms k) /. 1000.);
                attempt (k + 1)
              end
              else
                out.(i) <-
                  Error
                    (classify_failure ~setup_key:sk ~bench:b.Bench.name
                       ~retries:k e)
        in
        attempt 0;
        loop ()
      end
    in
    loop ()
  in
  let workers = min t.s_jobs (max 1 n) in
  if workers <= 1 then worker 0
  else begin
    let domains =
      List.init (workers - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    (* even if the main-thread worker raises (it cannot, see above, but
       defence in depth), every spawned domain is still joined *)
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join domains)
      (fun () -> worker 0)
  end;
  (* failed jobs never got their modules: drop what they still hold *)
  Array.iter (release t) plans;
  (* fold per-job results into the session, strictly in job order *)
  Array.iteri
    (fun i res ->
      (match obss.(i) with Some o -> Obs.merge t.s_obs o | None -> ());
      (* backoff sleeps are accounted from the deterministic schedule,
         not measured: the metric stays byte-identical across -j *)
      let account_backoff retries =
        if retries > 0 then
          Mi_obs.Metrics.incr
            ~by:(backoff_total_ms retries)
            t.s_obs.Obs.metrics "harness.backoff_ms"
      in
      match res with
      | Ok _ ->
          if retried.(i) > 0 then begin
            Mi_obs.Metrics.incr ~by:retried.(i) t.s_obs.Obs.metrics
              "harness.job_retried";
            account_backoff retried.(i)
          end
      | Error f ->
          Mi_obs.Metrics.incr t.s_obs.Obs.metrics "harness.job_failed";
          if f.jf_retries > 0 then begin
            Mi_obs.Metrics.incr ~by:f.jf_retries t.s_obs.Obs.metrics
              "harness.job_retried";
            account_backoff f.jf_retries
          end;
          if f.jf_kind = Injected then
            Mi_obs.Metrics.incr ~by:(f.jf_retries + 1) t.s_obs.Obs.metrics
              "fault.injected";
          t.s_failures <- f :: t.s_failures)
    out;
  (* quarantined cache entries detected since the last sync *)
  let corrupt_now = (Icache.stats t.s_cache).corrupt in
  if corrupt_now > t.s_corrupt_seen then begin
    Mi_obs.Metrics.incr
      ~by:(corrupt_now - t.s_corrupt_seen)
      t.s_obs.Obs.metrics "icache.corrupt";
    t.s_corrupt_seen <- corrupt_now
  end;
  if t.s_own_cache then Icache.trim t.s_cache ~keep:private_cache_keep;
  List.map
    (fun job ->
      match out.(Hashtbl.find index (job_key job)) with
      | Ok r -> Ok r
      | Error f -> Error { bench = f.jf_bench; reason = f.jf_reason })
    jobs

(** The session entry point: one cache-aware run.  Errors are compile,
    link or internal failures; a safety violation or VM trap is an [Ok]
    run — inspect {!run.outcome} (or pass the result through
    {!expect_ok} for the strict behaviour). *)
let run t (setup : setup) (b : Bench.t) : (run, error) result =
  match run_jobs t [ (setup, b) ] with [ r ] -> r | _ -> assert false

let compile_jobs t jobs =
  let arr = Array.of_list jobs in
  let plans = plan_jobs t arr in
  let out =
    Array.mapi
      (fun i (setup, (b : Bench.t)) ->
        let p = plans.(i) in
        match
          compile ~faults:t.s_faults ~memo:t.s_memo ~stages:p.p_stages
            ~obs:(Obs.create ()) setup b.sources
        with
        | modules, _ ->
            release t p;
            Ok (List.map fst modules)
        | exception e ->
            Error { bench = b.name; reason = Printexc.to_string e })
      arr
  in
  Array.iter (release t) plans;
  Array.to_list out
