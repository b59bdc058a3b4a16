(** Span tracer with Chrome [trace_event] JSON export.

    Spans nest (benchmark > pipeline > pass) and carry key/value
    arguments such as per-pass instruction-count deltas.  [to_json]
    produces a document loadable in [chrome://tracing] / Perfetto,
    including [ph = "M"] process/thread naming metadata. *)

type arg = Aint of int | Astr of string | Aflt of float

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;  (** microseconds since the tracer's epoch *)
  ev_dur : float;  (** microseconds *)
  ev_args : (string * arg) list;
  ev_tid : int;  (** thread id of the recording tracer *)
  ev_stack : string list;  (** enclosing span names, outermost first *)
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** A tracer on wall time ({!Mi_support.Mclock.now}) measured from one
    process-wide epoch, so the spans of tracers created at different
    times stay in order after {!merge}.  An injected [clock] (seconds)
    replaces it, with the epoch at its first reading. *)

val set_thread : t -> tid:int -> name:string -> unit
(** Label this tracer's events with [tid] and record the
    [thread_name] metadata mapping [tid] to [name].  The parallel
    harness calls this per worker so merged traces keep one labeled row
    per worker in [about:tracing]. *)

val begin_span : ?cat:string -> ?args:(string * arg) list -> t -> string -> unit

val end_span : ?args:(string * arg) list -> t -> string -> unit
(** Close the innermost open span; raises [Invalid_argument] if [name]
    does not match it (unbalanced begin/end).  [args] are appended to
    the span's arguments. *)

val with_span :
  ?cat:string -> ?args:(string * arg) list -> t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span closes even on exceptions. *)

val instant : ?cat:string -> ?args:(string * arg) list -> t -> string -> unit

val depth : t -> int
(** Number of currently open spans. *)

val balanced : t -> bool
(** No open spans remain. *)

val event_count : t -> int

val merge : t -> t -> unit
(** [merge dst src] appends the completed events of [src] (open spans
    are not copied) with their timestamps unchanged, and unions thread
    labels.  Tracers on the default clock share one epoch, so the merged
    spans keep their order in time.  Raises when [dst == src]. *)

val collapsed : t -> (string * int * float) list
(** Flamegraph-style collapsed stacks over completed spans: one
    [("a;b;c", count, total_us)] per distinct nesting path, sorted by
    path.  Counts are deterministic; the microsecond totals are not. *)

val to_json : t -> Json.t
val to_string : t -> string
val write_file : t -> string -> unit
