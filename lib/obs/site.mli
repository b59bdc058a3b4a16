(** Per-check-site profiling: stable ids for every check the
    instrumenter places, and dynamic hit / wide-hit / modeled-cycle
    attribution from the VM's check builtins. *)

type t
(** A site registry, shared between the instrumenter (which registers
    sites) and the VM state (which attributes executions). *)

val create : unit -> t

val register : t -> func:string -> construct:string -> approach:string -> int
(** Allocate the next site id (dense, registration order — stable for a
    deterministic instrumentation order). *)

val hit : t -> int -> wide:bool -> cycles:int -> unit
(** Attribute one executed check; unknown ids are ignored. *)

val count : t -> int

(** A site descriptor: the static, replayable part of a registration. *)
type info = {
  si_id : int;
  si_func : string;
  si_construct : string;
  si_approach : string;
}

val infos : t -> info list
(** All descriptors in registration order.  The instrumentation cache
    stores these so a cache hit can rebuild the registry the cached
    module's embedded site ids point into. *)

val register_info : t -> info -> unit
(** Append a descriptor verbatim (keeping its recorded id).  Replaying
    {!infos} in order into a fresh registry reproduces it exactly. *)

val merge : t -> t -> unit
(** [merge dst src]: sites with an identical descriptor add their cells,
    others are appended.  Associative and order-insensitive up to
    {!snapshot} order (the set of (descriptor, counts) pairs is the
    same under any merge order).  Raises when [dst == src].

    Amortised O(|src|): [dst] keeps a descriptor index across merges and
    indexes only the slots added by {!register}/{!register_info} since
    the previous merge, so no call does work proportional to [dst]. *)

type snapshot = {
  sn_id : int;
  sn_func : string;
  sn_construct : string;
  sn_approach : string;
  sn_hits : int;
  sn_wide : int;
  sn_cycles : int;
}

val snapshot : t -> snapshot list
(** All sites in id order. *)

val total_hits : snapshot list -> int
val total_cycles : snapshot list -> int

val top : ?n:int -> snapshot list -> snapshot list
(** Hottest sites by modeled cycles (deterministic total order). *)

val render : ?n:int -> snapshot list -> string
(** [perf annotate]-style "top-N hottest checks" table. *)

val snapshot_to_json : snapshot -> Json.t
val to_json : snapshot list -> Json.t
