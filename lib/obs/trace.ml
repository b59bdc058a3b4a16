(** Span tracer with Chrome [trace_event] JSON export.

    Spans nest (compile > pipeline > pass) and carry key/value arguments
    such as per-pass instruction-count deltas.  Timestamps are wall time
    ({!Mi_support.Mclock.now}) in microseconds since one process-wide
    epoch, so the tracers of different jobs share one timeline; the
    arguments — not the timestamps — are the deterministic part of a
    trace.

    Each tracer carries a thread id (default 1); the parallel harness
    gives every worker tracer its own id and label via {!set_thread}, so
    merged traces keep one row per worker.  Every completed event also
    remembers the names of its enclosing open spans ([ev_stack]), which
    is what {!collapsed} folds into flamegraph stacks — reconstructing
    nesting from merged timestamps would confuse the spans of workers
    that ran at the same time.

    The resulting file loads in [chrome://tracing] / Perfetto: complete
    events ([ph = "X"]) with [ts]/[dur] in microseconds, preceded by
    [ph = "M"] [process_name]/[thread_name] metadata events.

    A tracer created with [~record:false] records nothing: spans only
    run their thunks, so a context nobody will read costs no event
    memory and no span arguments. *)

type arg = Aint of int | Astr of string | Aflt of float

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;  (** microseconds *)
  ev_dur : float;  (** microseconds *)
  ev_args : (string * arg) list;
  ev_tid : int;
  ev_stack : string list;  (** enclosing span names, outermost first *)
}

type open_span = {
  os_name : string;
  os_cat : string;
  os_start : float;
  os_args : (string * arg) list;
}

type t = {
  recording : bool;
  mutable events : event list;  (** completed, most recent first *)
  mutable stack : open_span list;
  clock : unit -> float;  (** seconds *)
  epoch : float;
  mutable tid : int;
  mutable threads : (int * string) list;  (** tid -> label *)
}

let process_name = "meminstrument"

let now_us t = (t.clock () -. t.epoch) *. 1e6

(* the epoch of every tracer on the default clock *)
let process_epoch = Mi_support.Mclock.now ()

let create ?clock ?(record = true) () =
  let clock, epoch =
    match clock with
    | None -> (Mi_support.Mclock.now, process_epoch)
    | Some clock -> (clock, clock ())
  in
  {
    recording = record;
    events = [];
    stack = [];
    clock;
    epoch;
    tid = 1;
    threads = [];
  }

let recording t = t.recording

let set_thread t ~tid ~name =
  t.tid <- tid;
  t.threads <- (tid, name) :: List.remove_assoc tid t.threads

let depth t = List.length t.stack

let balanced t = t.stack = []

let stack_names stack = List.rev_map (fun os -> os.os_name) stack

let begin_span ?(cat = "phase") ?(args = []) t name =
  if t.recording then
    t.stack <-
      { os_name = name; os_cat = cat; os_start = now_us t; os_args = args }
      :: t.stack

(** Close the innermost open span.  [name] must match the span being
    closed — a mismatch means begin/end calls are unbalanced and raises.
    [args] are appended to the arguments given at [begin_span]. *)
let end_span ?(args = []) t name =
  match t.stack with
  | [] when not t.recording -> ()
  | [] -> invalid_arg (Printf.sprintf "end_span %S: no open span" name)
  | os :: rest ->
      if os.os_name <> name then
        invalid_arg
          (Printf.sprintf "end_span %S: innermost open span is %S" name
             os.os_name);
      t.stack <- rest;
      let ts = os.os_start in
      t.events <-
        {
          ev_name = os.os_name;
          ev_cat = os.os_cat;
          ev_ts = ts;
          ev_dur = Float.max 0.0 (now_us t -. ts);
          ev_args = os.os_args @ args;
          ev_tid = t.tid;
          ev_stack = stack_names rest;
        }
        :: t.events

(** Run [f] inside a span; the span closes even if [f] raises. *)
let with_span ?cat ?args t name f =
  if not t.recording then f ()
  else begin
    begin_span ?cat ?args t name;
    match f () with
    | v ->
        end_span t name;
        v
    | exception e ->
        end_span t name;
        raise e
  end

(** An instantaneous event (zero duration). *)
let instant ?(cat = "mark") ?(args = []) t name =
  if t.recording then
    t.events <-
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts = now_us t;
        ev_dur = 0.0;
        ev_args = args;
        ev_tid = t.tid;
        ev_stack = stack_names t.stack;
      }
      :: t.events

let event_count t = List.length t.events

(** Merge the completed events of [src] into [dst] (spans still open in
    [src] are not copied; a [dst] that does not record keeps none).
    Timestamps are kept as they are: tracers on the default clock share
    the process epoch, so every merged span keeps its place on one
    timeline ([src]'s spans after [dst]'s when [src] ran later).  Thread
    labels are unioned ([src] wins on a tid clash). *)
let merge dst src =
  if dst == src then invalid_arg "Trace.merge: dst and src are the same";
  if dst.recording then dst.events <- src.events @ dst.events;
  List.iter
    (fun (tid, name) ->
      dst.threads <- (tid, name) :: List.remove_assoc tid dst.threads)
    (List.rev src.threads)

(* --- flamegraph stacks ---------------------------------------------- *)

(** Collapsed stacks over completed span events: one
    [(stack, count, total_us)] entry per distinct [a;b;c] path, sorted
    by path.  The counts are deterministic (span structure is); the
    microsecond totals are informational only. *)
let collapsed t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let path = String.concat ";" (e.ev_stack @ [ e.ev_name ]) in
      match Hashtbl.find_opt tbl path with
      | Some (n, us) -> Hashtbl.replace tbl path (n + 1, us +. e.ev_dur)
      | None -> Hashtbl.add tbl path (1, e.ev_dur))
    t.events;
  Hashtbl.fold (fun path (n, us) acc -> (path, n, us) :: acc) tbl []
  |> List.sort compare

(* --- export --------------------------------------------------------- *)

let arg_to_json = function
  | Aint i -> Json.Int i
  | Astr s -> Json.Str s
  | Aflt f -> Json.Float f

let event_to_json (e : event) : Json.t =
  Json.Obj
    [
      ("name", Json.Str e.ev_name);
      ("cat", Json.Str e.ev_cat);
      ("ph", Json.Str "X");
      ("ts", Json.Float e.ev_ts);
      ("dur", Json.Float e.ev_dur);
      ("pid", Json.Int 1);
      ("tid", Json.Int e.ev_tid);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) e.ev_args));
    ]

let metadata_json name ~tid args : Json.t =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

(** Chrome trace-event document: [ph = "M"] naming metadata first
    (process name, one thread label per known worker tid), then events
    in chronological (start) order.  Open spans are not exported — close
    them first. *)
let to_json t : Json.t =
  let evs = List.rev t.events in
  let evs =
    List.stable_sort (fun a b -> compare a.ev_ts b.ev_ts) evs
  in
  let threads =
    let known = List.sort compare t.threads in
    if List.mem_assoc 1 known then known else (1, "main") :: known
  in
  let meta =
    metadata_json "process_name" ~tid:1 [ ("name", Json.Str process_name) ]
    :: List.map
         (fun (tid, name) ->
           metadata_json "thread_name" ~tid [ ("name", Json.Str name) ])
         threads
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map event_to_json evs));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_string t = Json.to_string (to_json t)

let write_file t path =
  let oc = open_out path in
  output_string oc (to_string t);
  output_char oc '\n';
  close_out oc
