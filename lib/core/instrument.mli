(** The MemInstrument module pass: discovers targets (Table 1),
    propagates witnesses, places checks and invariant-maintenance code
    for the configured approach. *)

open Mi_mir

type func_stats = {
  fname : string;
  checks_found : int;  (** check targets discovered *)
  checks_placed : int;
      (** after optimization and mode filtering; includes hoisted
          preheader checks *)
  checks_removed : int;  (** total over the three elimination passes *)
  checks_removed_dominance : int;  (** eliminated by dominance (§5.3) *)
  checks_removed_static : int;  (** proven in bounds and deleted *)
  checks_removed_hoisted : int;
      (** in-loop checks a widened preheader check stands for *)
  hoisted_checks_placed : int;  (** widened preheader checks emitted *)
  invariants_placed : int;  (** invariant-maintenance sites *)
  checks_mutated : int;
      (** checks deleted or weakened by an injected fault plan *)
}

type mod_stats = {
  per_func : func_stats list;
  total_checks_found : int;
  total_checks_placed : int;
  total_checks_removed : int;
  total_checks_removed_dominance : int;
  total_checks_removed_static : int;
  total_checks_removed_hoisted : int;
  total_hoisted_checks_placed : int;
  total_invariants : int;
  total_checks_mutated : int;
}

val run :
  ?obs:Mi_obs.Obs.t -> ?faults:Mi_faultkit.Fault.t -> Config.t -> Irmod.t ->
  mod_stats
(** Instrument every defined function of the module in place.  For
    SoftBound, a [__mi_global_init] constructor is added when global
    initializers contain pointers (their trie metadata must exist before
    [main] runs).  Returns the static statistics of §5.3.

    With [obs], every placed check registers a stable instrumentation
    site in [obs.sites] (its id rides on the check call as a trailing
    constant argument, read back by the runtimes), the whole pass runs
    under an ["instrument:<module>"] tracing span when [obs.trace]
    records, and the static
    statistics are absorbed into [obs.metrics] as [static.*] counters.

    With [faults], check mutations in the plan apply as checks are
    placed: a [Delete] mutation suppresses the check entirely (it is
    not placed, registers no site, and does not count in
    [checks_placed]); a [Weaken] mutation emits it with wide bounds so
    it can never report.  Mutations are matched by per-function check
    ordinal — the n-th (0-based) check in placement order, numbered
    before the mutation decision so ordinals are stable across plans.
    Mutated checks count in [checks_mutated] and, with [obs], in the
    ["static.checks_mutated"] counter (a compile-phase quantity, kept in
    the [static.] namespace so cache-hitting runs that skip the compile
    stay counter-identical to cache-missing ones).  This is the
    mutation-testing engine behind the safety-guarantee validation. *)

val instrument_func :
  ?faults:Mi_faultkit.Fault.t ->
  Config.t -> Mi_obs.Site.t -> Irmod.t -> Func.t -> func_stats
(** Instrument a single function (exposed for testing; [run] drives it). *)
