(** The observability context: one span tracer, one metrics registry,
    one check-site registry, and — when the caller opted in — one VM
    coverage registry, created per compile-and-run and threaded through
    compile -> optimize -> instrument -> execute.

    The harness creates one automatically when the caller does not care
    (so every {!Mi_bench_kit.Harness.run} carries a profile); the
    binaries create one explicitly to export traces and profiles.

    Coverage recording is opt-in ([~coverage:true]) because it is the
    one component with a hot-path cost: the VM records a block/edge hit
    on every block transition when the context carries a registry and
    pays nothing when it does not.  Span recording is opt-in too
    ([~trace:true]): only a trace export or a profile reads spans, and a
    long session would otherwise keep every one of them.  Without it
    [trace] is a tracer that records nothing ({!Trace.recording}). *)

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  sites : Site.t;
  mutable coverage : Coverage.t option;
}

let create ?(coverage = false) ?(trace = false) () =
  {
    trace = Trace.create ~record:trace ();
    metrics = Metrics.create ();
    sites = Site.create ();
    coverage = (if coverage then Some (Coverage.create ()) else None);
  }

(** [merge dst src] folds one context into another: counters and
    histograms add, gauges take the maximum, check sites with identical
    descriptors add their cells, coverage maps with identical
    geometries add their hit arrays, completed trace events are
    appended (when [dst] records spans).  Each component merge is
    associative and commutative (sites and coverage up to snapshot
    order), which is what lets the parallel harness give every worker
    a private context and still produce one deterministic aggregate:
    contexts are merged in job order, not completion order.  A [src] that recorded coverage turns
    it on in [dst] too.  Raises [Invalid_argument] when [dst == src].
    Costs amortised O(|src|): every component merge updates [dst] in
    place through lookups, so a long-lived session pays per job only for
    what the job recorded. *)
let merge dst src =
  if dst == src then invalid_arg "Obs.merge: dst and src are the same";
  Trace.merge dst.trace src.trace;
  Metrics.merge dst.metrics src.metrics;
  Site.merge dst.sites src.sites;
  match src.coverage with
  | None -> ()
  | Some sc -> (
      match dst.coverage with
      | Some dc -> Coverage.merge dc sc
      | None ->
          let dc = Coverage.create () in
          Coverage.merge dc sc;
          dst.coverage <- Some dc)
