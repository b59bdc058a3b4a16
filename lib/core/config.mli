(** Instrumentation configuration, mirroring the MemInstrument flags of
    the paper's artifact appendix (A.6).

    Approaches are open names resolved against a registry of bases
    populated by the checker schemes (see [Mi_core.Checker]); the two
    paper approaches plus the temporal checker register "softbound",
    "lowfat" and "temporal". *)

type approach = string
(** A registered checker name (e.g. ["softbound"], ["lowfat"],
    ["temporal"]). *)

type mode =
  | Full  (** witnesses + invariants + dereference checks *)
  | Geninvariants
      (** witnesses + invariants only — the "metadata" configuration of
          Figures 10/11 ([-mi-mode=geninvariants]) *)
  | Noop  (** leave the module untouched *)

type t = {
  approach : approach;
  mode : mode;
  opt_dominance : bool;
      (** dominance-based check elimination ([-mi-opt-dominance], §5.3) *)
  opt_hoist : bool;
      (** loop-invariant check hoisting with range widening: one widened
          preheader check replaces the per-iteration checks of a counted
          loop.  Sound only for checkers whose abort-on-failure
          semantics permit early abort (capability-vetoed). *)
  opt_static : bool;
      (** CHOP-style static in-bounds elimination: value-range
          propagation deletes checks provably inside their allocation
          (capability-vetoed). *)
  sb_size_zero_wide_upper : bool;
      (** wide upper bounds for size-less extern arrays
          ([-mi-sb-size-zero-wide-upper], §4.3) *)
  sb_inttoptr_wide : bool;
      (** wide instead of null bounds for int-to-pointer casts
          ([-mi-sb-inttoptr-wide-bounds], §4.4) *)
  sb_wrapper_checks : bool;
      (** safety checks inside libc wrappers; off by default for runtime
          comparability (§5.1.2) *)
  lf_stack : bool;  (** Low-Fat stack-variable protection *)
  lf_globals : bool;  (** Low-Fat global-variable protection *)
}

val softbound : t
(** The paper's SoftBound configuration basis. *)

val lowfat : t
(** The paper's Low-Fat Pointers configuration basis. *)

val temporal : t
(** The temporal lock-and-key configuration basis. *)

val register_basis : ?aliases:string list -> t -> unit
(** Register an approach's configuration basis under [t.approach].
    Called by [Mi_core.Checker.register]; raises [Invalid_argument] on a
    duplicate name. *)

val known_approaches : unit -> string list
(** Registered approach names, in registration order — narrowed by
    {!restrict_approaches} when a restriction is in force. *)

val restrict_approaches : string list -> unit
(** Narrow {!known_approaches} to the given names (resolving aliases) —
    the mechanism behind [mi-experiments --approach].  Lookups
    ({!find_approach}/{!of_approach}) stay total, so components pinned
    to a specific approach keep resolving.  Raises [Invalid_argument]
    on an unregistered name. *)

val find_approach : string -> t option
(** Alias-aware, case-insensitive lookup of a registered basis. *)

val of_approach : string -> t
(** Like {!find_approach} but raises [Invalid_argument] naming the known
    approaches when the name is not registered. *)

val optimized : t -> t
(** Enable the dominance-based check elimination (the "optimized"
    configurations of Figures 9-11). *)

val optimized_full : t -> t
(** Enable every check-elimination pass (dominance + hoisting + static)
    — the [checkelim] experiment's configuration.  Passes remain
    subject to the checker's capability veto. *)

val metadata_only : t -> t
(** Switch to [Geninvariants] (the "metadata" configurations of
    Figures 10/11). *)

val approach_name : approach -> string

val to_string : t -> string
(** The approach followed by one [+token] per field that differs from
    its default (["softbound+domopt"], ["lowfat+nostack"]); the
    [setup_key] of a harness job and the config on mi-serve's wire. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: [of_string (to_string c)] renders back to
    [to_string c].  An unregistered approach or an unknown token is an
    [Error] naming it. *)
