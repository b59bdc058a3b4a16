(** Deterministic fault-injection plans.

    A {!t} plan is plain data describing every fault a run should
    suffer; each layer of the stack consults it at its own injection
    point (check mutation in the instrumenter, VM faults in the
    interpreter, cache corruption where a command opens its disk cache,
    job crashes/hangs in the harness session).  Plans parse from the [--inject]
    command-line spec and render back canonically, and the same plan
    against the same inputs always produces the same faults. *)

type check_action =
  | Delete  (** do not emit the check at all *)
  | Weaken  (** emit it with wide bounds — it can never report *)

type check_mutation = {
  cm_action : check_action;
  cm_ordinal : int;
      (** the n-th (0-based) check placed in a function, in placement
          order of the unmutated run; [-1] is the wildcard — every
          check in the matched function(s) *)
  cm_func : string option;  (** restrict to one function; [None] = any *)
}

type vm_fault =
  | Wild_write of { at_step : int; addr : int; value : int }
      (** store 8 bytes behind the instrumentation's back at [at_step] *)
  | Fuel_cap of int  (** starve the fuel budget down to this many steps *)
  | Trap_at of int  (** raise a VM trap at the given step *)

type cache_corruption =
  | Truncate  (** cut every entry file in half *)
  | Bitflip  (** flip one byte in every entry's payload *)
  | Stale  (** move every entry under a digest it does not match *)

type job_fault =
  | Crash_job of string
      (** raise in the worker before the job runs; matched when the
          string occurs in ["<setup_key>/<bench>"] *)
  | Hang_job of string * float
      (** stall this many seconds before the job runs (same matching),
          capped at the job's budget: a hang at least as long as the
          budget fails the job with a timeout *)

(** Each clause has one reader. *)
type t = {
  checks : check_mutation list;  (** read by [Mi_core.Instrument] *)
  vm : vm_fault list;  (** read by [Mi_vm.Inject] *)
  cache : cache_corruption option;
      (** read where mi-experiments and mi-serve open their disk
          cache, once, through [Icache.corrupt] *)
  jobs : job_fault list;  (** read by the harness session's workers *)
}

val none : t
(** The empty plan: injects nothing. *)

val is_none : t -> bool

exception Injected_crash of string
(** Raised by the harness worker for a matching {!Crash_job}. *)

exception Job_timeout of float
(** Raised when a job exceeds its wall-clock budget (the payload is the
    budget in seconds, so the message is deterministic). *)

val check_mutation_for : t -> func:string -> ordinal:int -> check_action option
(** The action to apply to the check at [ordinal] in [func], if any. *)

val job_fault_for : t -> string -> job_fault option
(** First job fault whose substring matches the given job description. *)

val parse : string -> (t, string) result
(** Parse an [--inject] spec: comma-separated clauses
    [del-check=K[@FUNC]] (with [K] a 0-based ordinal or [*] for every
    check; the bare clause [del-check] is shorthand for [del-check=*]),
    [weaken-check=K[@FUNC]] (same forms),
    [wild-write=STEP:ADDR:VALUE], [fuel=N], [trap-at=STEP],
    [corrupt-cache=truncate|bitflip|stale], [crash=SUBSTR],
    [hang=SUBSTR:SECONDS]. *)

val to_string : t -> string
(** Canonical rendering; [parse (to_string p)] round-trips. *)

val compile_sig : t -> string
(** The part of the plan that changes what the compile phase produces —
    folded into the instrumentation-cache key so mutated modules never
    alias unmutated ones.  [""] when no check is mutated. *)
