(** Approach-independent check optimizations on instrumentation targets:
    dominance-based elimination (§5.3), static in-bounds elimination,
    and loop-invariant check hoisting with range widening.  See
    [optimize.ml] and DESIGN.md for the pass ordering and the soundness
    arguments; the per-checker capability veto lives in
    [Mi_core.Instrument]. *)

open Mi_mir

type stats = {
  before : int;  (** checks discovered *)
  after : int;  (** in-place checks surviving all passes *)
  removed_dominance : int;
  removed_static : int;
  removed_hoisted : int;
      (** in-loop checks replaced by a widened preheader check *)
}

val removed : stats -> int
(** Total checks removed or replaced: [before - after]. *)

type hoisted = {
  h_preheader : string;  (** label of the preheader block to emit into *)
  h_base : Value.t;  (** loop-invariant base pointer *)
  h_min_off : int;  (** smallest byte offset any iteration accesses *)
  h_span : int;  (** bytes covered: max offset + width - min offset *)
  h_access : Itarget.access;  (** [Astore] if any replaced check stored *)
  h_origin : Edit.anchor;  (** anchor of the first replaced check *)
  h_replaced : int;  (** how many in-loop checks it stands for *)
}
(** A widened preheader check summarizing every iteration's footprint
    of one loop-invariant base; the instrumenter emits it as an
    ordinary check of [h_span] bytes at [h_base + h_min_off]. *)

type result = {
  kept : Itarget.check list;  (** surviving checks, in discovery order *)
  hoisted : hoisted list;  (** widened preheader checks to emit *)
  stats : stats;
}

val dominance_eliminate : Func.t -> Itarget.check list -> Itarget.check list
(** Remove every check dominated by an equal-or-wider check on the same
    pointer SSA value — the elimination "frequently described in
    literature" that the paper measures removing 8–50% of checks.
    Implemented as an ancestor-stack sweep over the dominator-tree DFS
    preorder, O(n log n) per pointer group. *)

val run : Config.t -> Irmod.t -> Func.t -> Itarget.check list -> result
(** Apply the optimizations enabled by the configuration, in the order
    dominance -> static -> hoisting.  The module is needed for
    allocation sizes of globals (static pass). *)
