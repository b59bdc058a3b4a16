(** Experiment harness: compile, instrument, link, run, collect — and,
    through {!t} sessions, cache and parallelize.

    The classic per-call entry points ({!run_sources}, {!run_benchmark})
    still exist for one-off runs and for sharing a single observability
    context across heterogeneous work (as [memsafe] does).  Everything
    at experiment scale goes through a session: [create] one, submit a
    job matrix with {!run_jobs} (or single jobs with {!run}), and read
    the aggregated observability off {!obs}. *)

module Config = Mi_core.Config
module Pipeline = Mi_passes.Pipeline

(** {1 Setups} *)

(** How the VM dispatches runtime-intrinsic calls: [Fast] (the default)
    lets the loader fuse check calls into superinstructions; [Generic]
    forces every call through the boxed builtin path.  Execution-only —
    both variants share one instrumentation-cache entry, which is what
    makes the fast-path engine differentially testable at fuzzing
    scale. *)
type dispatch = Fast | Generic

(** One [setup] fixes everything the paper varies. *)
type setup = {
  config : Config.t option;  (** [None]: uninstrumented baseline *)
  level : Pipeline.level;
  ep : Pipeline.extension_point;
  lowering : Mi_minic.Lower.mode;
  seed : int;
  dispatch : dispatch;
      (** VM call dispatch; {!baseline} uses [Fast].  [Generic] appends
          ["/generic"] to {!setup_key} (default keys are unchanged). *)
}

val baseline : setup
(** Uninstrumented [-O3], the denominator of every overhead figure. *)

val with_config : Config.t -> setup -> setup

val setup_key : setup -> string
(** Canonical, injective description of a setup — the job key used for
    deduplication, deterministic merging and caching. *)

(** {1 Runs} *)

type run = {
  outcome : Mi_vm.Interp.outcome;
  cycles : int;
  steps : int;
  output : string;
  counters : (string * int) array;
      (** runtime counters sorted by name; query with {!counter} *)
  static_stats : Mi_core.Instrument.mod_stats list;
      (** per instrumented translation unit *)
  program_instrs : int;  (** static instruction count after everything *)
  profile : Mi_obs.Site.snapshot list;
      (** per-check-site attribution; empty when uninstrumented *)
  coverage : Mi_obs.Coverage.snapshot list;
      (** per-function block/edge coverage; empty unless the run's obs
          context carries a coverage registry
          ([Obs.create ~coverage:true]).  Recording is a pure side band:
          cycles, steps and counters are identical with and without
          it. *)
}

val counter : run -> string -> int
(** Binary search over the sorted counter array; 0 when absent. *)

val counters_alist : run -> (string * int) list
(** The counters as a sorted association list (a copy). *)

val overhead : baseline:run -> run -> float
(** Normalized execution time (cycles / baseline cycles), the y-axis of
    Figures 9-13. *)

(** {1 Errors} *)

type error = { bench : string; reason : string }

exception Benchmark_failed of string * string

val check_run : Bench.t -> run -> (run, error) result
(** [Ok] iff the run exited normally and matched the benchmark's
    expected output; otherwise an [Error] describing the violation,
    trap, or mismatch. *)

val expect_ok : Bench.t -> (run, error) result -> run
(** Unwrap a result strictly: raises {!Benchmark_failed} on [Error] and
    on completed runs that {!check_run} rejects. *)

(** {1 Job failures}

    A failed job never aborts a matrix: the worker captures the
    exception, classifies it, retries within the session's budget, and
    finally records a typed {!job_failure}.  The matrix always
    completes with partial results plus a deterministic failure
    manifest. *)

type failure_kind =
  | Crash  (** the worker raised (a bug, or an un-typed injected fault) *)
  | Timeout  (** the per-job wall-clock budget ran out *)
  | Injected  (** an injected crash from the fault plan *)

type job_failure = {
  jf_setup : string;  (** {!setup_key} of the failed job *)
  jf_bench : string;
  jf_kind : failure_kind;
  jf_reason : string;  (** deterministic — safe to diff across [-j] *)
  jf_retries : int;  (** retries consumed before giving up *)
}

(** {1 Sessions} *)

type t
(** A harness session: one aggregated observability context, one
    instrumentation cache, one worker pool.  Create it once and push
    every run of an experiment campaign through it. *)

val default_jobs : unit -> int
(** The recognized core count ([Domain.recommended_domain_count]). *)

val create :
  ?jobs:int ->
  ?cache_dir:string ->
  ?cache:Icache.t ->
  ?obs:Mi_obs.Obs.t ->
  ?faults:Mi_faultkit.Fault.t ->
  ?job_timeout:float ->
  ?retries:int ->
  ?retry_backoff_ms:int ->
  unit ->
  t
(** [jobs] is the worker-pool size (default {!default_jobs}; clamped to
    at least 1).  [cache_dir] additionally persists the instrumentation
    cache on disk, giving hits across processes.  [cache] makes the
    session use an existing instrumentation cache instead of creating
    its own — the sharing mechanism behind the server's per-tenant
    sessions over one content-addressed cache ([cache_dir] is ignored
    when given; the cache's own directory governs persistence).  [obs]
    is the session context every run's private context is merged into
    (a fresh one by default).

    [faults] is the fault plan every run of the session suffers: check
    mutations apply during instrumentation (and key the cache, so
    mutants never alias clean entries), VM faults install on every VM,
    job faults fire in {!run_jobs} workers, and a cache corruption is
    applied to the persisted cache right here, at session creation.
    [job_timeout] is a per-job budget in seconds on the monotonic
    timeline ({!Mi_support.Mclock}), enforced from the VM's poll hook;
    a job over budget fails with {!failure_kind.Timeout}.  [retries]
    (default 0) re-attempts a failed job with exponential backoff
    before recording a failure; each backoff sleep doubles from 10ms
    and is clamped to [retry_backoff_ms] (default 250), and the total
    slept is accounted — from the deterministic schedule, not measured
    — in the session's [harness.backoff_ms] counter. *)

val obs : t -> Mi_obs.Obs.t
(** The session context: metrics, check sites and trace events of every
    run so far, merged deterministically (in job order). *)

val jobs : t -> int

val cache : t -> Icache.t
(** The session's instrumentation cache — pass it to another session's
    [create ~cache] to share compiled modules across sessions. *)

val set_job_timeout : t -> float option -> unit
(** Replace the session's per-job budget.  Not synchronized: callers
    that share a session across domains (the server's per-tenant
    sessions) must serialize runs themselves. *)

type cache_stats = Icache.stats = { hits : int; misses : int; corrupt : int }

val cache_stats : t -> cache_stats
(** Exact instrumentation-cache accounting: one hit or miss is counted
    per executed job (deduplicated jobs consult the cache once).
    [corrupt] counts disk entries that failed verification and were
    quarantined — each was also a miss. *)

val failures : t -> job_failure list
(** Every job failure recorded by the session so far, in job order. *)

val failure_manifest : t -> string
(** Deterministic plain-text table of {!failures} (setup, benchmark,
    cause, retries, reason); [""] when nothing failed. *)

val failures_to_json : t -> Mi_obs.Json.t
(** {!failures} as a JSON list, same fields as the manifest. *)

val run : t -> setup -> Bench.t -> (run, error) result
(** The session entry point: one cache-aware run.  [Error] means the
    compile or link phase failed; a safety violation or VM trap is an
    [Ok] run — inspect {!run.outcome}, or compose with {!expect_ok} for
    the strict contract. *)

val run_jobs : t -> (setup * Bench.t) list -> (run, error) result list
(** Shard a job matrix across the session's domains.  Duplicate jobs run
    once and share their result; results come back in input order.
    Determinism guarantee: the runs and the session's merged context are
    byte-identical for every [jobs] setting, because each worker uses a
    private context, contexts merge in job order (never completion
    order), and the VM itself is deterministic.

    Compile sharing: each translation unit is lowered once per call,
    and each pipeline phase before an extension point runs once for
    all the jobs that reach it; every job forks its instrumentation
    and remaining passes from a copy of the deepest stage it shares
    (see DESIGN.md, "Compile path").  Jobs with the same Icache key
    take turns at its lookup-or-compile.  Outputs are byte-identical
    to compiling every job alone; only trace span counts differ.

    Containment guarantee: no exception escapes a worker — a crashing,
    hanging or injected-fault job is captured as a typed
    {!job_failure} (surfaced here as an [Error] and recorded in
    {!failures}), queued jobs still run, and every spawned domain is
    joined.  Only successful jobs' contexts are merged, so partial
    state from failed attempts can never skew the session metrics or
    the [-j] determinism. *)

val memo_size : t -> int
(** Compile stages (and same-key compile turns) the session currently
    holds; [0] whenever no {!run_jobs} call is running. *)

val compile_jobs :
  t -> (setup * Bench.t) list -> (Mi_mir.Irmod.t list, error) result list
(** The compile phase of {!run_jobs} alone: the jobs in order, each
    forking from the stages it shares with the others exactly as in a
    matrix, with the Icache neither read nor filled and nothing
    executed.  Compiling each job in a fresh session shares nothing, so
    both must yield the same modules — the check that no pass keeps
    state between runs. *)

(** {1 Classic per-call entry points} *)

val run_sources :
  ?obs:Mi_obs.Obs.t ->
  ?faults:Mi_faultkit.Fault.t ->
  ?budget:float ->
  setup ->
  Bench.source list ->
  run
(** Compile the translation units under [setup], link, execute — no
    session, no cache.  Pass [obs] to share one context across runs.
    [faults] applies the plan's check mutations and VM faults to this
    run; [budget] arms a wall-clock deadline (seconds) that raises
    {!Mi_faultkit.Fault.Job_timeout} when exceeded. *)

val run_benchmark : ?obs:Mi_obs.Obs.t -> setup -> Bench.t -> run
