(** Deterministic per-function block/edge coverage maps.

    The VM registers each loaded function's control-flow geometry (its
    per-block successor lists) and gets back a {!fn} handle with dense
    hit-counter arrays; recording a block entry or an edge traversal is
    a couple of array operations, cheap enough to leave enabled on the
    hot path when a caller asks for coverage and entirely absent when it
    does not.

    Functions are keyed by a stable descriptor — name plus the full
    successor geometry — so re-registering the same function (another
    run in the same session) accumulates into the same counters, while
    a same-named function with a different CFG (another optimization
    level, another seed) gets its own entry.  {!merge} is associative
    and commutative over that keying, exactly like {!Metrics.merge}, so
    the parallel harness can merge per-worker registries in job order
    and produce byte-identical output for any [-j]. *)

type t
(** A coverage registry: a set of per-function counter maps. *)

type fn
(** Dense hit counters for one registered function.  Handles returned
    by {!register_fn} stay valid for the registry's lifetime. *)

val create : unit -> t

val register_fn : t -> name:string -> succ:int array array -> fn
(** [register_fn t ~name ~succ] registers (or re-finds) the function
    [name] whose block [i] has successors [succ.(i)].  Edge ids are the
    positions of a flat array laid out block by block in successor
    order, so the id assignment is a pure function of the geometry.
    The lookup goes through a (name, geometry) index hashed over the
    whole geometry: cost O(geometry), independent of the registry size. *)

val enter : fn -> int -> unit
(** Record entry into block [b] with no incoming edge (function
    entry). *)

val transition : fn -> src:int -> dst:int -> unit
(** Record the edge [src -> dst] and the entry into [dst].  An edge not
    present in the registered geometry is ignored. *)

val counters : fn -> int array * int array array * int array * int array
(** [(blocks, succ, ebase, edges)]: the live counter arrays of a
    registered function, for callers that must inline hit recording on
    an execution hot path (the VM's block-dispatch loop).  [blocks.(b)]
    counts entries into block [b]; the out-edges of block [s] are
    [succ.(s)], with flat counters at [edges.(ebase.(s) + k)] for the
    [k]th successor.  Callers may only index with block ids valid for
    the registered geometry and must treat [succ] and [ebase] as
    read-only; increments through this view are indistinguishable from
    {!enter}/{!transition}. *)

type snapshot = {
  cv_func : string;
  cv_succ : int array array;  (** registered geometry *)
  cv_block_hits : int array;  (** per-block hit counts *)
  cv_edge_hits : int array;  (** flat edge hit counts, geometry order *)
}

val snapshot : t -> snapshot list
(** All registered functions, sorted by (name, geometry) — a
    deterministic order for serialization. *)

val edges : snapshot -> (int * int * int) list
(** [(src, dst, hits)] triples of a snapshot, geometry order. *)

type totals = {
  tt_functions : int;
  tt_functions_hit : int;
  tt_blocks : int;
  tt_blocks_hit : int;
  tt_edges : int;
  tt_edges_hit : int;
}

val totals_of : snapshot list -> totals
val totals : t -> totals

val geometry_key : snapshot -> string
(** The stable textual descriptor a snapshot is keyed by: function name
    plus the full successor geometry.  Two snapshots compare equal under
    {!merge}'s keying iff their geometry keys are equal. *)

val cell_keys : snapshot -> string list
(** Compact, stable keys — ["<geometry-digest>:bN"] / [":eN"] — of the
    snapshot's {e hit} blocks and edges, sorted.  The digest is over
    {!geometry_key}, so any CFG change (another seed, another
    optimization level, a structural mutation) yields disjoint cells
    while re-running the identical program yields the identical set.
    These are the novelty currency of the coverage-guided fuzzer: a
    corpus entry stores the cells its reference run hit, and a candidate
    is admitted when it hits a cell no entry hit before. *)

val cells_of : snapshot list -> string list
(** Sorted, deduplicated union of {!cell_keys} over all snapshots. *)

val fingerprint : snapshot list -> string
(** Digest of {!cells_of} — a one-line coverage identity for corpus
    entry metadata and byte-identical replay checks. *)

val of_snapshots : snapshot list -> t
(** Rebuild a registry from snapshots (accumulating duplicates) — the
    load half of the persistent-profile round trip. *)

val merge : t -> t -> unit
(** [merge dst src] adds the counters of [src] into [dst]: functions
    with identical descriptors add element-wise, unmatched functions
    are copied over.  Associative and commutative up to snapshot order.
    Raises [Invalid_argument] when [dst == src].  Cost is O(|src|):
    [dst] finds each function through its persistent (name, geometry)
    index, never by scanning what it already holds. *)

val snapshot_to_json : snapshot -> Json.t
val to_json : t -> Json.t

val snapshot_of_json : Json.t -> snapshot
(** Raises [Invalid_argument] on a malformed or inconsistent document
    (hit-array lengths must match the geometry). *)
