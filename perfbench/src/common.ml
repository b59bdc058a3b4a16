(** What every workload shares: statistics, run digests, count metrics
    and the result record that [perfbench/run.py] turns into the final
    line. *)

module H = Mi_bench_kit.Harness
module Json = Mi_obs.Json
module Mclock = Mi_support.Mclock

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** Nearest-rank percentile ([p] in [0,1]) of an unsorted sample. *)
let percentile (xs : float array) p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let sum = Array.fold_left ( +. ) 0.

let mean xs =
  if Array.length xs = 0 then nan else sum xs /. float (Array.length xs)

let geomean (xs : float list) =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float (List.length xs))

(** Mean of each quarter of [xs], in order. *)
let quarter_means (xs : float array) =
  let n = Array.length xs in
  Array.init 4 (fun q ->
      let lo = q * n / 4 and hi = (q + 1) * n / 4 in
      if hi <= lo then nan else mean (Array.sub xs lo (hi - lo)))

(** Peak resident set ([VmHWM]) of a process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

(** CPU time (user + system) a process has used so far, in seconds, from
    [/proc/PID/stat] (ticks of 1/100 s). *)
let proc_cpu_s pid =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) input_line
  in
  (* fields after the parenthesised command name start at field 3 *)
  let rest = String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2) in
  match String.split_on_char ' ' rest with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
      float (int_of_string utime + int_of_string stime) /. 100.
  | _ -> failwith ("unexpected /proc stat line for pid " ^ string_of_int pid)

(* ------------------------------------------------------------------ *)
(* Run digests and count metrics                                       *)
(* ------------------------------------------------------------------ *)

(** The part of a run the traced replica must reproduce exactly. *)
type digest = {
  d_outcome : Mi_vm.Interp.outcome;
  d_output : string;
  d_cycles : int;
  d_steps : int;
  d_counters : (string * int) array;
}

let digest (r : H.run) =
  { d_outcome = r.outcome; d_output = r.output; d_cycles = r.cycles;
    d_steps = r.steps; d_counters = r.counters }

let check_counters = [ "sb.checks"; "lf.checks"; "tp.checks" ]

(* runtime calls that maintain metadata rather than check it: trie
   traffic, shadow-stack frames, key allocation, Low-Fat invariant
   checks and base recomputation *)
let metadata_counters =
  [ "sb.trie_store"; "sb.trie_load"; "sb.meta_copy"; "sb.ss_frames";
    "lf.inv_checks"; "lf.base_recompute"; "lf.global_mirror";
    "tp.key_alloc"; "tp.trie_store"; "tp.trie_load"; "tp.meta_copy";
    "tp.ss_frames" ]

(** Deterministic counts summed over every job of a workload.  The
    untraced path and the traced replica each fill one; they must be
    equal. *)
type counts = {
  mutable jobs : int;
  mutable steps : int;
  mutable cycles : int;
  mutable instrs : int;  (** [program_instrs]: instructions after passes *)
  mutable checks_placed : int;
  mutable removed_dominance : int;
  mutable removed_static : int;
  mutable removed_hoisted : int;
  mutable check_calls : int;
  mutable metadata_calls : int;
  mutable site_cycles : int;  (** modeled cycles spent in checks *)
  mutable instrumented_cycles : int;
}

let counts () =
  { jobs = 0; steps = 0; cycles = 0; instrs = 0; checks_placed = 0;
    removed_dominance = 0; removed_static = 0; removed_hoisted = 0;
    check_calls = 0; metadata_calls = 0; site_cycles = 0;
    instrumented_cycles = 0 }

let add_run c (setup : H.setup) (r : H.run) =
  c.jobs <- c.jobs + 1;
  c.steps <- c.steps + r.steps;
  c.cycles <- c.cycles + r.cycles;
  c.instrs <- c.instrs + r.program_instrs;
  List.iter
    (fun (m : Mi_core.Instrument.mod_stats) ->
      c.checks_placed <- c.checks_placed + m.total_checks_placed;
      c.removed_dominance <- c.removed_dominance + m.total_checks_removed_dominance;
      c.removed_static <- c.removed_static + m.total_checks_removed_static;
      c.removed_hoisted <- c.removed_hoisted + m.total_checks_removed_hoisted)
    r.static_stats;
  let total names = List.fold_left (fun a k -> a + H.counter r k) 0 names in
  c.check_calls <- c.check_calls + total check_counters;
  c.metadata_calls <- c.metadata_calls + total metadata_counters;
  if Option.is_some setup.config then begin
    c.site_cycles <- c.site_cycles + Mi_obs.Site.total_cycles r.profile;
    c.instrumented_cycles <- c.instrumented_cycles + r.cycles
  end

let add_result c setup = function Ok r -> add_run c setup r | Error _ -> ()

let count_fields c =
  [ ("jobs", c.jobs); ("steps", c.steps); ("cycles", c.cycles);
    ("instrs", c.instrs); ("checks_placed", c.checks_placed);
    ("removed_dominance", c.removed_dominance);
    ("removed_static", c.removed_static);
    ("removed_hoisted", c.removed_hoisted); ("check_calls", c.check_calls);
    ("metadata_calls", c.metadata_calls); ("site_cycles", c.site_cycles);
    ("instrumented_cycles", c.instrumented_cycles) ]

(** Names of the fields on which two count records differ. *)
let count_diff a b =
  List.filter_map
    (fun ((k, x), (_, y)) -> if x <> y then Some k else None)
    (List.combine (count_fields a) (count_fields b))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(** What one workload process reports.  [metrics] is the end-to-end set
    of an untraced run or the per-layer set of a traced one; [setup_s]
    and [peak_rss_mb] are filled in by the caller. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  errors : string list;  (** first few verification failures *)
  extra : (string * Json.t) list;  (** diagnostics, not metrics *)
}

let metric_json ms =
  Json.Obj
    (List.map
       (fun x ->
         (x.name, Json.Obj [ ("value", Json.Float x.value);
                             ("unit", Json.Str x.unit_) ]))
       ms)

(** Verification outcomes of a run.  A [wrong] result is an output that
    did not verify (a mismatch, an oracle finding, a missed violation, a
    traced replica that disagrees): it makes the run incorrect.  A
    [failed] operation is one the system did not complete (a compile
    crash, a refused or missing reply): it counts against the attempts.
    Both keep their first messages. *)
type verdicts = { mutable wrong : int; mutable failed : int; mutable msgs : string list }

let verdicts () = { wrong = 0; failed = 0; msgs = [] }

let note v msg = if List.length v.msgs < 8 then v.msgs <- msg :: v.msgs

let fail v msg =
  v.wrong <- v.wrong + 1;
  note v msg

let failed_op v msg =
  v.failed <- v.failed + 1;
  note v ("failed: " ^ msg)

let errors v = List.rev v.msgs

(** The traced-run checks shared by the workloads: per-job digests and
    counts of the replica equal the harness path's. *)
let compare_digests v ~what (a : digest array) (b : digest array) =
  if Array.length a <> Array.length b then
    fail v (Printf.sprintf "%s: %d harness jobs vs %d replica jobs" what
              (Array.length a) (Array.length b))
  else
    Array.iteri
      (fun i d ->
        if d <> b.(i) then
          fail v (Printf.sprintf "%s: job %d differs from the harness path" what i))
      a

let compare_counts v ~what a b =
  match count_diff a b with
  | [] -> ()
  | ks -> fail v (Printf.sprintf "%s: counts differ (%s)" what (String.concat ", " ks))

(** Where the traced run writes its spans, if anywhere. *)
let trace_file : string option ref = ref None

let write_trace sp = Option.iter (Span.write_chrome sp) !trace_file

(** Layer metrics computed from spans and counts, common to the three
    workloads; also writes the spans out to {!trace_file}.  [wall] is the
    traced wall time, [untraced] the untraced wall time of the same
    work. *)
let layer_metrics (sp : Span.t) (c : counts) ~src_bytes ~wall ~untraced =
  write_trace sp;
  let self = Span.self_by_layer sp in
  let t layer = Option.value ~default:0. (List.assoc_opt layer self) in
  let merges = Array.of_list (Span.self_times_named sp "Obs.merge") in
  let mq = quarter_means merges in
  let named =
    List.fold_left (fun a (l, s) -> if l = "item" then a else a +. s) 0. self
  in
  let vm_exec = t "vm.exec" in
  [
    m "minic.lower_s" "s" (t "minic");
    m "minic.kib_per_s" "KiB/s"
      (if t "minic" > 0. then float src_bytes /. 1024. /. t "minic" else 0.);
    m "passes.pipeline_s" "s" (t "passes");
    m "passes.instrs_out" "count" (float c.instrs);
    m "core.instrument_s" "s" (t "core");
    m "core.checks_placed" "count" (float c.checks_placed);
    m "core.checks_removed_dominance" "count" (float c.removed_dominance);
    m "core.checks_removed_static" "count" (float c.removed_static);
    m "core.checks_removed_hoisted" "count" (float c.removed_hoisted);
    m "icache.lookup_s" "s" (t "icache");
    m "obs.merge_s" "s" (t "obs");
    m "obs.merge_q4_over_q1" "ratio" (if mq.(0) > 0. then mq.(3) /. mq.(0) else 0.);
    m "obs.merge_ms_q1" "ms" (mq.(0) *. 1000.);
    m "obs.merge_ms_q2" "ms" (mq.(1) *. 1000.);
    m "obs.merge_ms_q3" "ms" (mq.(2) *. 1000.);
    m "obs.merge_ms_q4" "ms" (mq.(3) *. 1000.);
    m "vm.load_s" "s" (t "vm.load");
    m "vm.exec_s" "s" vm_exec;
    m "vm.steps" "count" (float c.steps);
    m "vm.steps_per_s" "1/s" (if vm_exec > 0. then float c.steps /. vm_exec else 0.);
    m "vm.cycles" "count" (float c.cycles);
    m "rt.install_s" "s" (t "rt");
    m "rt.check_calls" "count" (float c.check_calls);
    m "rt.metadata_calls" "count" (float c.metadata_calls);
    m "rt.check_cycle_share" "ratio"
      (if c.instrumented_cycles > 0 then
         float c.site_cycles /. float c.instrumented_cycles
       else 0.);
    m "fuzz.gen_s" "s" (t "fuzz.gen");
    m "fuzz.judge_s" "s" (t "judge");
    m "trace.wall_s" "s" wall;
    m "trace.compile_share" "ratio" ((t "minic" +. t "passes" +. t "core") /. wall);
    m "trace.vm_exec_share" "ratio" (vm_exec /. wall);
    m "trace.unattributed_s" "s" (wall -. named);
    m "trace.overhead_pct" "%" ((wall -. untraced) /. untraced *. 100.);
  ]

let cache_metrics (s : H.cache_stats) =
  [
    m "icache.hits" "count" (float s.hits);
    m "icache.misses" "count" (float s.misses);
    m "icache.hit_ratio" "ratio"
      (if s.hits + s.misses = 0 then 0.
       else float s.hits /. float (s.hits + s.misses));
  ]

(** Metrics that exist only where a daemon serves requests. *)
let no_server =
  [
    m "serve.server_p50_ms" "ms" 0.; m "serve.server_p99_ms" "ms" 0.;
    m "serve.wire_ms_p50" "ms" 0.; m "serve.late_ms_p99" "ms" 0.;
    m "serve.lat_p50_ms" "ms" 0.; m "serve.lat_p95_ms" "ms" 0.;
    m "serve.lat_p99_ms" "ms" 0.; m "serve.daemon_cpu_s" "s" 0.;
    m "serve.rejected" "count" 0.; m "proto.encode_s" "s" 0.;
    m "proto.decode_s" "s" 0.;
  ]

(** The four per-quarter means of item time, in ms. *)
let item_quarters (item_s : float array) =
  let q = quarter_means item_s in
  List.init 4 (fun i ->
      m (Printf.sprintf "growth.item_ms_q%d" (i + 1)) "ms" (q.(i) *. 1000.))
