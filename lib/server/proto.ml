(** Wire protocol of the instrumentation service.

    Requests and replies are JSON documents framed with an 8-digit
    lowercase-hex length prefix over a Unix-domain stream socket:

    {v <8 hex chars: payload byte length><payload bytes> v}

    The framing is deliberately trivial: it is self-describing in a hex
    dump, needs no escaping, and a corrupted header is detected
    immediately (non-hex digits, or a length over {!max_frame}).

    The JSON schema is closed.  A request is one of

    {v
    {"op":"run","id":N,"tenant":T,"setup":{..},"bench":{..},
     "timeout_ms":M?}
    {"op":"ping","id":N}
    {"op":"stats","id":N}
    {"op":"shutdown","id":N}
    v}

    and every reply carries the request's [id] plus a [status] of
    ["ok"], ["overloaded"], ["failed"], ["degraded"], ["pong"],
    ["stats"], ["bye"] or ["error"].  [overloaded] is the typed
    admission-control reply: the server's bounded queue was full, the
    request was {e not} accepted, and the client may resubmit.

    {!run_to_json} is the canonical rendering of a completed
    {!Mi_bench_kit.Harness.run} — the server and the [--drive] load
    generator both use it, so "the daemon equals the batch harness" is
    literal byte equality of these documents. *)

module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Config = Mi_core.Config
module Pipeline = Mi_passes.Pipeline
module Json = Mi_obs.Json

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let max_frame = 1 lsl 26  (* 64 MiB: far above any real request *)

exception Bad_frame of string

let frame payload =
  let n = String.length payload in
  if n > max_frame then raise (Bad_frame "frame too large");
  Printf.sprintf "%08x%s" n payload

(* [pop_frames buf] splits [buf] (accumulated stream bytes) into the
   complete frames it starts with and the unconsumed remainder. *)
let pop_frames (buf : string) : string list * string =
  let len = String.length buf in
  let rec go pos acc =
    if len - pos < 8 then (List.rev acc, String.sub buf pos (len - pos))
    else begin
      let n =
        try int_of_string ("0x" ^ String.sub buf pos 8)
        with Failure _ -> raise (Bad_frame "malformed frame header")
      in
      if n < 0 || n > max_frame then raise (Bad_frame "frame length out of range");
      if len - pos - 8 < n then (List.rev acc, String.sub buf pos (len - pos))
      else go (pos + 8 + n) (String.sub buf (pos + 8) n :: acc)
    end
  in
  go 0 []

(* Blocking whole-frame IO for simple clients (the server side uses
   non-blocking reads + [pop_frames]). *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

let write_frame fd payload =
  let f = frame payload in
  write_all fd f 0 (String.length f)

let read_exact fd n =
  let b = Bytes.create n in
  let rec go pos =
    if pos >= n then Some (Bytes.to_string b)
    else
      match Unix.read fd b pos (n - pos) with
      | 0 -> None  (* EOF mid-frame *)
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

(** [None] on a clean EOF before any byte of the next frame. *)
let read_frame fd : string option =
  match read_exact fd 8 with
  | None -> None
  | Some hdr ->
      let n =
        try int_of_string ("0x" ^ hdr)
        with Failure _ -> raise (Bad_frame "malformed frame header")
      in
      if n < 0 || n > max_frame then raise (Bad_frame "frame length out of range");
      if n = 0 then Some ""
      else (
        match read_exact fd n with
        | None -> raise (Bad_frame "EOF inside frame")
        | Some s -> Some s)

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)
(* ------------------------------------------------------------------ *)

exception Bad_request of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let opt_field name j =
  match Json.member name j with Some Json.Null | None -> None | v -> v

let as_str what = function Json.Str s -> s | _ -> fail "%s: expected string" what
let as_int what = function Json.Int n -> n | _ -> fail "%s: expected int" what
let as_bool what = function Json.Bool b -> b | _ -> fail "%s: expected bool" what

let as_list what j =
  match Json.to_list j with Some l -> l | None -> fail "%s: expected list" what

(* ------------------------------------------------------------------ *)
(* Setup codec                                                         *)
(* ------------------------------------------------------------------ *)

(* The config travels as its [Config.to_string] rendering, the same
   string the job's [setup_key] starts with, so the daemon runs exactly
   the configuration the client named. *)
let config_of_string c =
  match Config.of_string c with Ok c -> c | Error msg -> fail "%s" msg

let level_of_name l =
  match Pipeline.level_of_name l with
  | Some l -> l
  | None -> fail "unknown level %S" l

let ep_of_name name =
  match Pipeline.ep_of_name name with
  | Some ep -> ep
  | None -> fail "unknown extension point %S" name

let setup_to_json (s : Harness.setup) =
  Json.Obj
    [
      ( "config",
        match s.Harness.config with
        | None -> Json.Null
        | Some c -> Json.Str (Config.to_string c) );
      ("level", Json.Str (Pipeline.level_name s.Harness.level));
      ("ep", Json.Str (Pipeline.ep_name s.Harness.ep));
      ("i64ptr", Json.Bool s.Harness.lowering.Mi_minic.Lower.ptr_mem_as_i64);
      ("seed", Json.Int s.Harness.seed);
      ( "dispatch",
        Json.Str
          (match s.Harness.dispatch with
          | Harness.Fast -> "fast"
          | Harness.Generic -> "generic") );
    ]

let setup_of_json j : Harness.setup =
  {
    Harness.config =
      (match opt_field "config" j with
      | None -> None
      | Some c -> Some (config_of_string (as_str "config" c)));
    level = level_of_name (as_str "level" (field "level" j));
    ep = ep_of_name (as_str "ep" (field "ep" j));
    lowering =
      { Mi_minic.Lower.ptr_mem_as_i64 = as_bool "i64ptr" (field "i64ptr" j) };
    seed = as_int "seed" (field "seed" j);
    dispatch =
      (match as_str "dispatch" (field "dispatch" j) with
      | "fast" -> Harness.Fast
      | "generic" -> Harness.Generic
      | d -> fail "unknown dispatch %S" d);
  }

(* ------------------------------------------------------------------ *)
(* Bench codec                                                         *)
(* ------------------------------------------------------------------ *)

let source_to_json (s : Bench.source) =
  Json.Obj
    [
      ("name", Json.Str s.Bench.src_name);
      ("code", Json.Str s.Bench.code);
      ("instrument", Json.Bool s.Bench.instrument);
      ( "i64ptr",
        match s.Bench.mode_override with
        | None -> Json.Null
        | Some m -> Json.Bool m.Mi_minic.Lower.ptr_mem_as_i64 );
    ]

let source_of_json j : Bench.source =
  {
    Bench.src_name = as_str "source name" (field "name" j);
    code = as_str "source code" (field "code" j);
    instrument = as_bool "instrument" (field "instrument" j);
    mode_override =
      (match opt_field "i64ptr" j with
      | None -> None
      | Some b ->
          Some { Mi_minic.Lower.ptr_mem_as_i64 = as_bool "i64ptr" b });
  }

let bench_to_json (b : Bench.t) =
  Json.Obj
    [
      ("name", Json.Str b.Bench.name);
      ("descr", Json.Str b.Bench.descr);
      ( "expect",
        match b.Bench.expect_output with
        | None -> Json.Null
        | Some s -> Json.Str s );
      ("size_zero", Json.Bool b.Bench.size_zero_arrays);
      ("sources", Json.List (List.map source_to_json b.Bench.sources));
    ]

let bench_of_json j : Bench.t =
  Bench.mk
    ~size_zero_arrays:(as_bool "size_zero" (field "size_zero" j))
    ?expect_output:
      (Option.map (as_str "expect") (opt_field "expect" j))
    ~suite:Bench.CPU2006
    ~descr:(as_str "descr" (field "descr" j))
    (as_str "bench name" (field "name" j))
    (List.map source_of_json (as_list "sources" (field "sources" j)))

(* ------------------------------------------------------------------ *)
(* Run results                                                         *)
(* ------------------------------------------------------------------ *)

let outcome_to_json : Mi_vm.Interp.outcome -> Json.t = function
  | Mi_vm.Interp.Exited n -> Json.Obj [ ("exited", Json.Int n) ]
  | Mi_vm.Interp.Safety_violation { checker; reason } ->
      Json.Obj
        [
          ( "violation",
            Json.Obj
              [ ("checker", Json.Str checker); ("reason", Json.Str reason) ]
          );
        ]
  | Mi_vm.Interp.Trapped msg -> Json.Obj [ ("trapped", Json.Str msg) ]
  | Mi_vm.Interp.Exhausted budget -> Json.Obj [ ("exhausted", Json.Int budget) ]

(** Canonical, deterministic rendering of a completed run: outcome,
    costs, program output and the (sorted) runtime counters.  This is
    the byte-identity surface between the daemon and the batch harness;
    profiles/coverage deliberately stay out (they are session-level
    aggregates, not per-request results). *)
let run_to_json (r : Harness.run) : Json.t =
  Json.Obj
    [
      ("outcome", outcome_to_json r.Harness.outcome);
      ("cycles", Json.Int r.Harness.cycles);
      ("steps", Json.Int r.Harness.steps);
      ("output", Json.Str r.Harness.output);
      ("program_instrs", Json.Int r.Harness.program_instrs);
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Harness.counters_alist r))
      );
    ]

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Run of {
      id : int;
      tenant : string;
      setup : Harness.setup;
      bench : Bench.t;
      timeout_ms : int option;  (** per-request deadline override *)
    }
  | Ping of { id : int }
  | Stats of { id : int }
  | Shutdown of { id : int }

let request_to_json = function
  | Run { id; tenant; setup; bench; timeout_ms } ->
      Json.Obj
        [
          ("op", Json.Str "run");
          ("id", Json.Int id);
          ("tenant", Json.Str tenant);
          ("setup", setup_to_json setup);
          ("bench", bench_to_json bench);
          ( "timeout_ms",
            match timeout_ms with None -> Json.Null | Some m -> Json.Int m );
        ]
  | Ping { id } -> Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Int id) ]
  | Stats { id } -> Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Int id) ]
  | Shutdown { id } ->
      Json.Obj [ ("op", Json.Str "shutdown"); ("id", Json.Int id) ]

(** Parse one request frame.  [Error (id, reason)] is a malformed
    request ([id] 0 when even the id was unreadable) — the server turns
    it into an ["error"] reply rather than dropping the connection. *)
let request_of_string s : (request, int * string) result =
  match Json.of_string s with
  | exception Json.Parse_error msg -> Error (0, "bad JSON: " ^ msg)
  | j -> (
      let id =
        match Json.member "id" j with Some (Json.Int n) -> n | _ -> 0
      in
      try
        match as_str "op" (field "op" j) with
        | "run" ->
            if id = 0 then fail "missing request id";
            Ok
              (Run
                 {
                   id;
                   tenant = as_str "tenant" (field "tenant" j);
                   setup = setup_of_json (field "setup" j);
                   bench = bench_of_json (field "bench" j);
                   timeout_ms =
                     Option.map (as_int "timeout_ms")
                       (opt_field "timeout_ms" j);
                 })
        | "ping" -> Ok (Ping { id })
        | "stats" -> Ok (Stats { id })
        | "shutdown" -> Ok (Shutdown { id })
        | op -> fail "unknown op %S" op
      with Bad_request msg -> Error (id, msg))

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

type reply =
  | R_ok of { id : int; result : Json.t }  (** [result]: {!run_to_json} *)
  | R_overloaded of { id : int; queue : int; capacity : int }
      (** admission control: the request was NOT accepted — resubmit *)
  | R_failed of { id : int; kind : string; reason : string; retries : int }
      (** the job was accepted and ran, but failed after [retries]
          retries; [kind] is the harness classification: ["crash"]
          (compile and link failures included) or ["timeout"].  An
          ["injected"] failure never makes a reply: it kills the
          worker, and the request is rerun. *)
  | R_degraded of { id : int; approach : string; reason : string }
      (** the tenant's circuit breaker has this approach disabled *)
  | R_pong of { id : int }
  | R_stats of { id : int; stats : Json.t }
  | R_bye of { id : int }
  | R_error of { id : int; reason : string }  (** malformed request *)

let reply_to_json = function
  | R_ok { id; result } ->
      Json.Obj
        [ ("id", Json.Int id); ("status", Json.Str "ok"); ("result", result) ]
  | R_overloaded { id; queue; capacity } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("status", Json.Str "overloaded");
          ("queue", Json.Int queue);
          ("capacity", Json.Int capacity);
        ]
  | R_failed { id; kind; reason; retries } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("status", Json.Str "failed");
          ("kind", Json.Str kind);
          ("reason", Json.Str reason);
          ("retries", Json.Int retries);
        ]
  | R_degraded { id; approach; reason } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("status", Json.Str "degraded");
          ("approach", Json.Str approach);
          ("reason", Json.Str reason);
        ]
  | R_pong { id } ->
      Json.Obj [ ("id", Json.Int id); ("status", Json.Str "pong") ]
  | R_stats { id; stats } ->
      Json.Obj
        [
          ("id", Json.Int id); ("status", Json.Str "stats"); ("stats", stats);
        ]
  | R_bye { id } -> Json.Obj [ ("id", Json.Int id); ("status", Json.Str "bye") ]
  | R_error { id; reason } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("status", Json.Str "error");
          ("reason", Json.Str reason);
        ]

let reply_of_string s : reply =
  let j =
    try Json.of_string s
    with Json.Parse_error msg -> raise (Bad_frame ("bad reply JSON: " ^ msg))
  in
  let id = as_int "id" (field "id" j) in
  match as_str "status" (field "status" j) with
  | "ok" -> R_ok { id; result = field "result" j }
  | "overloaded" ->
      R_overloaded
        {
          id;
          queue = as_int "queue" (field "queue" j);
          capacity = as_int "capacity" (field "capacity" j);
        }
  | "failed" ->
      R_failed
        {
          id;
          kind = as_str "kind" (field "kind" j);
          reason = as_str "reason" (field "reason" j);
          retries = as_int "retries" (field "retries" j);
        }
  | "degraded" ->
      R_degraded
        {
          id;
          approach = as_str "approach" (field "approach" j);
          reason = as_str "reason" (field "reason" j);
        }
  | "pong" -> R_pong { id }
  | "stats" -> R_stats { id; stats = field "stats" j }
  | "bye" -> R_bye { id }
  | "error" -> R_error { id; reason = as_str "reason" (field "reason" j) }
  | st -> raise (Bad_frame ("unknown reply status " ^ st))

let reply_id = function
  | R_ok { id; _ }
  | R_overloaded { id; _ }
  | R_failed { id; _ }
  | R_degraded { id; _ }
  | R_pong { id }
  | R_stats { id; _ }
  | R_bye { id }
  | R_error { id; _ } ->
      id

let request_frame r = frame (Json.to_string (request_to_json r))
let reply_frame r = frame (Json.to_string (reply_to_json r))
