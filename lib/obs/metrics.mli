(** Metrics registry: counters, gauges and histograms in one namespace
    with deterministic (sorted, byte-stable) serialization.

    Static instrumentation statistics and dynamic VM statistics both
    land here — see {!Mi_vm.State} and {!Mi_core.Instrument}. *)

type t

val create : unit -> t

val labeled : string -> (string * string) list -> string
(** Canonical labeled-metric name: [name{k1="v1",k2="v2"}] with the
    label keys sorted. *)

(** The namespace is flat across kinds: the first registration of a
    name fixes whether it is a counter, a gauge or a histogram, and
    registering it again under a different kind raises
    [Invalid_argument] instead of silently keeping two unrelated
    metrics under one name. *)

(** {2 Counters} — monotonically increasing. *)

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int

type handle
(** A counter resolved once, for hot paths: {!bump} through a handle
    costs no name lookup.  The counter is created on the handle's first
    bump, so a handle that is never bumped leaves no entry behind. *)

val handle : t -> string -> handle

val bump : handle -> unit
(** [bump (handle t name)] is [incr t name]. *)

val counters_alist : t -> (string * int) list
(** All counters, sorted by name.  This is the only order the registry
    exposes; hash-table iteration order never leaks. *)

(** {2 Gauges} — last-write-wins values (e.g. [vm.cycles]). *)

val set_gauge : t -> string -> int -> unit
val gauge : t -> string -> int
val gauges_alist : t -> (string * int) list

(** {2 Histograms} — power-of-two buckets, deterministic. *)

val observe : t -> string -> int -> unit

type histogram_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
      (** (exclusive power-of-two upper bound, count), non-empty only *)
}

val histogram : t -> string -> histogram_snapshot option
val histograms_alist : t -> (string * histogram_snapshot) list

(** {2 Merging} *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: counters and histograms add,
    gauges take the maximum.  Every per-metric operation is associative
    and commutative, so merging per-worker registries in any grouping or
    order produces the same registry (the contract the parallel harness
    relies on).  Raises [Invalid_argument] when [dst == src]. *)

(** {2 Serialization} *)

val to_json : t -> Json.t
val to_string : t -> string
(** Byte-identical across identical runs. *)
