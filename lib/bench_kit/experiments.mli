(** Self-registering registry of the paper's experiments.

    Each experiment declares the setups it runs on each benchmark and a
    reduce over the completed runs; {!run_reports} runs the deduplicated
    union of all selected experiments' (setup x benchmark) jobs through
    a {!Harness.t} session (parallel, cached) and reduces afterwards.
    Report output is byte-identical for every worker count. *)

module Config = Mi_core.Config

(** {1 Shared setups} *)

val opt_setup : Config.approach -> Harness.setup
(** The measured configuration of a registered approach: the dominance
    optimization where the checker supports it (§5.2), the plain basis
    otherwise. *)

val full_setup : Config.approach -> Harness.setup
(** The approach's basis configuration, without check elimination
    (appendix A.6). *)

val checkopt_setup : Config.approach -> Harness.setup
(** Every elimination pass the checker permits: dominance + static
    in-bounds + loop-invariant hoisting ({!Config.optimized_full}); the
    instrumenter's capability veto masks the passes the checker declares
    unsound. *)

val sb_opt : Harness.setup
(** SoftBound with the dominance optimization (§5.2). *)

val lf_opt : Harness.setup
(** Low-Fat Pointers with the dominance optimization (§5.2). *)

val sb_full : Harness.setup
(** SoftBound without check elimination (appendix A.6 basis). *)

val lf_full : Harness.setup
(** Low-Fat Pointers without check elimination (appendix A.6 basis). *)

(** {1 Reports} *)

type series = { label : string; points : (string * float) list }

type report = { title : string; text : string; series : series list }

val series_to_json : series -> Mi_obs.Json.t
val report_to_json : report -> Mi_obs.Json.t
val reports_to_json : report list -> Mi_obs.Json.t

val wide_fraction : Harness.run -> approach:Config.approach -> float
(** Fraction (in %) of executed checks that passed only thanks to wide
    bounds — the per-run datum behind Table 2. *)

(** {1 Registry} *)

type lookup = Harness.setup -> Bench.t -> Harness.run
(** Fetch one completed run by its job.  Raises
    {!Harness.Benchmark_failed} when the job's compile phase failed and
    [Invalid_argument] for a job the experiment did not declare; the
    returned run may still hold a violation or trap outcome — wrap with
    {!strict} for the ran-and-matched-output contract. *)

type t = {
  name : string;  (** canonical name, lowercase *)
  aliases : string list;  (** extra names accepted by {!find} *)
  descr : string;  (** one-line description, shown by [--list] *)
  setups : Bench.t -> Harness.setup list;
      (** every setup the reduce looks up on this benchmark *)
  reduce : lookup -> Bench.t list -> report;
}

val jobs : t -> Bench.t list -> (Harness.setup * Bench.t) list
(** The experiment's job matrix over [benchmarks], benchmark-major: each
    benchmark with each of its [setups], in order. *)

val register : t -> unit
(** Add an experiment to the registry.  Raises [Invalid_argument] on a
    duplicate name.  The built-in experiments register themselves at
    module initialization. *)

val all : unit -> t list
(** All registered experiments, in registration order. *)

val find : string -> t option
(** Look up by name or alias, case-insensitively. *)

val known_names : unit -> string list

val strict : lookup -> lookup
(** Wrap a lookup to also raise {!Harness.Benchmark_failed} on runs
    {!Harness.check_run} rejects (violation, trap, output mismatch). *)

val run_reports :
  ?benchmarks:Bench.t list ->
  ?keep_going:bool ->
  Harness.t ->
  t list ->
  (string * report) list
(** The generic driver loop: run the deduplicated union of the given
    experiments' job matrices ({!jobs}) through the session, then reduce
    each experiment.  Returns [(name, report)] in the order given.
    Benchmarks default to {!Suite.all}.  A reduce that looks up a job
    its experiment did not declare raises [Invalid_argument] naming the
    experiment, the setup key and the benchmark.

    With [keep_going] (default false), an experiment whose runs failed
    reduces to a stub ["<name> (incomplete)"] report instead of raising
    {!Harness.Benchmark_failed}: the matrix's surviving results are
    still reported, and the failures stay visible through
    {!Harness.failures} / {!Harness.failure_manifest}. *)
