(** The paper's evaluation as a self-registering experiment registry.

    An {!t} declares a [name], a [descr]iption, the [setups] it runs on
    each benchmark, and a [reduce] that renders a {!report} from the
    completed runs.  The generic driver ({!run_reports}) derives the
    (setup x benchmark) job matrix of every selected experiment from its
    [setups], deduplicates it, shards it across a {!Harness.t} session's
    worker domains, and only then runs each [reduce] — so every
    experiment is parallel (and shares runs with its siblings, e.g. the
    baseline runs of Figures 9-13) for free.  An experiment names its
    setups once, in one list its [setups] and its [reduce] both read;
    adding one is ~20 lines: that list, and a fold of its runs into a
    table.

    Where the paper states reference values, reduces print them side by
    side (columns suffixed [(paper)]). *)

module Checker = Mi_core.Checker
module Config = Mi_core.Config
module Pipeline = Mi_passes.Pipeline
module Table = Mi_support.Table
module Util = Mi_support.Util

(* The measured configuration of a registered approach (§5.2): the
   dominance optimization where check elimination is sound for the
   checker (both paper approaches, at VectorizerStart), the plain basis
   otherwise (the temporal checker). *)
let opt_setup (approach : Config.approach) =
  let cfg = Config.of_approach approach in
  let cfg =
    if Checker.check_elim_sound (Checker.find_exn approach) then
      Config.optimized cfg
    else cfg
  in
  Harness.with_config cfg Harness.baseline

(* the basis configuration of appendix A.6 (no check elimination) — the
   §4.6 safety statistics are gathered with these *)
let full_setup (approach : Config.approach) =
  Harness.with_config (Config.of_approach approach) Harness.baseline

let sb_opt = opt_setup "softbound"
let lf_opt = opt_setup "lowfat"
let sb_full = full_setup "softbound"
let lf_full = full_setup "lowfat"

(* Every elimination pass the checker permits (dominance + static
   in-bounds + loop-invariant hoisting); the instrumenter masks the
   unsound ones per checker, so this is safe for any approach, but the
   checkelim experiment only reports approaches where at least one pass
   can fire. *)
let checkopt_setup (approach : Config.approach) =
  Harness.with_config
    (Config.optimized_full (Config.of_approach approach))
    Harness.baseline

(* approaches whose elimination passes may run *)
let elim_capable () =
  List.filter
    (fun a -> Checker.check_elim_sound (Checker.find_exn a))
    (Config.known_approaches ())

(* runtime-counter namespace ("sb" for "sb.checks") and table name
   ("SoftBound") of a registered approach *)
let counter_ns a = (Checker.find_exn a).Checker.counter_ns
let table_name a = (Checker.find_exn a).Checker.table_name

(* one setup per registered approach, labelled with the approach *)
let per_approach setup () =
  List.map (fun a -> (a, setup a)) (Config.known_approaches ())

let fmt_x f = Printf.sprintf "%.2fx" f
let fmt_pct f = Printf.sprintf "%.2f" f

type series = { label : string; points : (string * float) list }

type report = { title : string; text : string; series : series list }

(* [grid benchmarks columns cell] is [cell b c] for every benchmark and
   column, benchmark-major: the order rows render and runs are looked
   up in.  [series_of] reads one series per column back out of it, the
   point of benchmark [b] being [value c (cell b c)]. *)
let grid benchmarks columns cell =
  List.map (fun (b : Bench.t) -> (b, List.map (cell b) columns)) benchmarks

let series_of grid columns ~label value =
  List.mapi
    (fun i c ->
      {
        label = label c;
        points =
          List.map
            (fun ((b : Bench.t), cells) -> (b.name, value c (List.nth cells i)))
            grid;
      })
    columns

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type lookup = Harness.setup -> Bench.t -> Harness.run
(** Fetch one completed run by its job.  Inside {!run_reports} this is a
    table lookup into the already-executed job matrix; it raises
    {!Harness.Benchmark_failed} when the job's compile phase failed and
    [Invalid_argument] for a job the experiment did not declare. *)

type t = {
  name : string;
  aliases : string list;
  descr : string;
  setups : Bench.t -> Harness.setup list;
      (** every setup the reduce looks up on this benchmark *)
  reduce : lookup -> Bench.t list -> report;
}

let registry : t list ref = ref []

let register (e : t) =
  if List.exists (fun x -> x.name = e.name) !registry then
    invalid_arg ("Experiments.register: duplicate " ^ e.name);
  registry := e :: !registry

let all () = List.rev !registry

let find name =
  let n = String.lowercase_ascii name in
  List.find_opt (fun e -> e.name = n || List.mem n e.aliases) (all ())

let known_names () = List.map (fun e -> e.name) (all ())

let jobs e benchmarks =
  List.concat_map
    (fun b -> List.map (fun s -> (s, b)) (e.setups b))
    benchmarks

(** Wrap a lookup with the strict contract: raise
    {!Harness.Benchmark_failed} unless the run exited normally and
    matched its expected output.  Experiments that measure healthy runs
    (every figure/table) use this; ablations that expect violations use
    the plain lookup. *)
let strict (lookup : lookup) : lookup =
 fun setup b ->
  match Harness.check_run b (lookup setup b) with
  | Ok r -> r
  | Error e -> raise (Harness.Benchmark_failed (e.Harness.bench, e.Harness.reason))

(** The generic driver loop: gather every experiment's jobs, run the
    deduplicated matrix through the session ({!Harness.run_jobs}), then
    reduce sequentially.  Because the matrix is shared, experiments
    reuse each other's runs (one baseline run serves Figures 9-13), and
    because reduces see a completed table, report output is independent
    of the session's [jobs] setting.  Each reduce may look up only the
    jobs its own experiment declared. *)
let run_reports ?(benchmarks = Suite.all) ?(keep_going = false)
    (h : Harness.t) (exps : t list) : (string * report) list =
  let key (s, (b : Bench.t)) = (Harness.setup_key s, b.name) in
  let matrices = List.map (fun e -> (e, jobs e benchmarks)) exps in
  let all_jobs = List.concat_map snd matrices in
  let table = Hashtbl.create 256 in
  List.iter2
    (fun job r -> Hashtbl.replace table (key job) r)
    all_jobs
    (Harness.run_jobs h all_jobs);
  List.map
    (fun (e, own) ->
      let declared = Hashtbl.create 64 in
      List.iter (fun job -> Hashtbl.replace declared (key job) ()) own;
      let lookup setup b =
        let k = key (setup, b) in
        if not (Hashtbl.mem declared k) then
          invalid_arg
            (Printf.sprintf
               "Experiments.run_reports: %s looked up setup %s on %s, which \
                it did not declare"
               e.name (fst k) (snd k));
        match Hashtbl.find table k with
        | Ok r -> r
        | Error e ->
            raise (Harness.Benchmark_failed (e.Harness.bench, e.Harness.reason))
      in
      let report =
        if not keep_going then e.reduce lookup benchmarks
        else
          (* graceful degradation: an experiment whose runs failed
             yields a stub report instead of aborting the other
             experiments — the failed jobs stay visible through the
             session's failure manifest *)
          try e.reduce lookup benchmarks
          with Harness.Benchmark_failed (bench, reason) ->
            {
              title = e.name ^ " (incomplete)";
              text =
                Printf.sprintf
                  "experiment skipped: benchmark %s failed: %s\n" bench
                  reason;
              series = [];
            }
      in
      (e.name, report))
    matrices

(* ------------------------------------------------------------------ *)
(* Figures 9-13: one overhead column per (label, setup)                *)
(* ------------------------------------------------------------------ *)

(* One row per benchmark of each column's overhead over -O3, a geomean
   row, and one series per column, labelled like its column.  [head]
   renders a label as its column header; with [paper], a last row gives
   each column's reference geomean; with [cycles], a last column gives
   each benchmark's baseline cycles. *)
let columns_reduce ~title ?(head = Fun.id) ?paper ?(cycles = false) columns
    lookup benchmarks : report =
  let run = strict lookup in
  let extra cell = if cycles then [ cell ] else [] in
  let tbl =
    Table.create
      ~aligns:
        ((Table.Left :: List.map (fun _ -> Table.Right) columns)
        @ extra Table.Right)
      (("Benchmark" :: List.map (fun (l, _) -> head l) columns)
      @ extra "baseline cycles")
  in
  let g =
    grid benchmarks columns (fun b ->
        let base = run Harness.baseline b in
        fun (_, setup) -> Harness.overhead ~baseline:base (run setup b))
  in
  List.iter
    (fun ((b : Bench.t), cells) ->
      Table.add_row tbl
        ((b.name :: List.map fmt_x cells)
        @ extra (string_of_int (run Harness.baseline b).cycles)))
    g;
  let series = series_of g columns ~label:fst (fun _ o -> o) in
  Table.add_row tbl
    (("geomean"
     :: List.map (fun s -> fmt_x (Util.geomean (List.map snd s.points))) series
     )
    @ extra "");
  Option.iter
    (fun paper ->
      Table.add_row tbl
        (("geomean (paper)" :: List.map (fun (l, _) -> paper l) columns)
        @ extra ""))
    paper;
  { title; text = Table.render tbl; series }

(* Figure 9: the measured configuration of every registered checker, so
   a fourth approach gets a column by registering, not by editing this
   file *)
let fig9_title = "Figure 9: Execution Time Comparison (normalized to -O3)"

let fig9_paper a =
  match Config.approach_name a with
  | "softbound" -> fmt_x Paper_data.fig9_mean_sb
  | "lowfat" -> fmt_x Paper_data.fig9_mean_lf
  | _ -> "-"

(* Figures 10/11: optimized vs unoptimized vs metadata-only *)
let opt_variant_setups (approach : Config.approach) =
  let base_cfg = Config.of_approach approach in
  [
    ("optimized", Harness.with_config (Config.optimized base_cfg) Harness.baseline);
    ("unoptimized", Harness.with_config base_cfg Harness.baseline);
    ("metadata", Harness.with_config (Config.metadata_only base_cfg) Harness.baseline);
  ]

let fig10_title =
  "Figure 10: SoftBound — optimized / unoptimized / metadata-only \
   overhead (normalized to -O3)"

let fig11_title =
  "Figure 11: Low-Fat Pointers — optimized / unoptimized / \
   metadata-only overhead (normalized to -O3)"

(* Figures 12/13: the optimized checker at each extension point *)
let ep_setups (approach : Config.approach) =
  let cfg = Config.optimized (Config.of_approach approach) in
  List.map
    (fun ep ->
      (Pipeline.ep_name ep, { (Harness.with_config cfg Harness.baseline) with ep }))
    Pipeline.all_extension_points

let fig12_title =
  "Figure 12: Impact of Compiler Pipeline Extension Points on \
   SoftBound (normalized to -O3)"

let fig13_title =
  "Figure 13: Impact of Compiler Pipeline Extension Points on \
   Low-Fat Pointers (normalized to -O3)"

(* ------------------------------------------------------------------ *)
(* Table 2: unsafe (wide-bounds) dereferences                          *)
(* ------------------------------------------------------------------ *)

let wide_fraction (r : Harness.run) ~approach =
  let p = counter_ns approach in
  Util.percent
    (Harness.counter r (p ^ ".checks_wide"))
    (Harness.counter r (p ^ ".checks"))

let star fraction wide_count =
  if wide_count = 0 then Printf.sprintf "%s*" (fmt_pct fraction)
  else fmt_pct fraction

(* Paper reference cells exist only for the two paper approaches; every
   other registered checker renders "-" in its (paper) column. *)
let table2_paper_cell (b : Bench.t) approach =
  let cell get get_star =
    match List.assoc_opt b.Bench.name Paper_data.table2 with
    | None -> "-"
    | Some p -> (
        match get p with
        | None -> "n/a"
        | Some v ->
            if get_star p then Printf.sprintf "%.2f*" v
            else Printf.sprintf "%.2f" v)
  in
  match Config.approach_name approach with
  | "softbound" -> cell (fun p -> p.Paper_data.sb) (fun p -> p.Paper_data.sb_star)
  | "lowfat" -> cell (fun p -> p.Paper_data.lf) (fun p -> p.Paper_data.lf_star)
  | _ -> "-"

let table2_reduce columns lookup benchmarks : report =
  let run = strict lookup in
  let short (a, _) = String.uppercase_ascii (counter_ns a) in
  let tbl =
    Table.create
      ~aligns:
        (Table.Left
        :: List.concat_map (fun _ -> [ Table.Right; Table.Right ]) columns)
      ("Benchmark"
      :: List.concat_map (fun c -> [ short c; short c ^ " (paper)" ]) columns)
  in
  let g = grid benchmarks columns (fun b (_, setup) -> run setup b) in
  List.iter
    (fun ((b : Bench.t), runs) ->
      let cells =
        List.concat_map
          (fun ((a, _), r) ->
            [
              star (wide_fraction r ~approach:a)
                (Harness.counter r (counter_ns a ^ ".checks_wide"));
              table2_paper_cell b a;
            ])
          (List.combine columns runs)
      in
      let name = if b.size_zero_arrays then b.name ^ " [sz0]" else b.name in
      Table.add_row tbl (name :: cells))
    g;
  (* raw wide-bounds counters ride along as extra series so machine
     consumers (--json) need not re-derive them from percentages *)
  let raw suffix =
    series_of g columns
      ~label:(fun (a, _) -> counter_ns a ^ "_" ^ suffix)
      (fun (a, _) r ->
        float_of_int (Harness.counter r (counter_ns a ^ "." ^ suffix)))
  in
  {
    title =
      "Table 2: Unsafe (wide-bounds) dereferences in %. [sz0] marks \
       benchmarks with size-zero array declarations; * marks zero wide \
       checks.";
    text = Table.render tbl;
    series =
      series_of g columns
        ~label:(fun (a, _) -> counter_ns a ^ "_wide_pct")
        (fun (a, _) r -> wide_fraction r ~approach:a)
      @ List.concat
          (List.map2 (fun w n -> [ w; n ]) (raw "checks_wide") (raw "checks"));
  }

(* ------------------------------------------------------------------ *)
(* §5.3: checks removed by the dominance optimization                  *)
(* ------------------------------------------------------------------ *)

(* the sum of one per-unit instrumentation statistic over a run *)
let static_sum (f : Mi_core.Instrument.mod_stats -> int) (r : Harness.run) =
  List.fold_left (fun acc s -> acc + f s) 0 r.static_stats

let optstats_reduce lookup benchmarks : report =
  let run = strict lookup in
  let tbl =
    Table.create
      ~aligns:[ Table.Left; Right; Right; Right ]
      [ "Benchmark"; "checks found"; "removed"; "removed %" ]
  in
  let points =
    List.map
      (fun (b : Bench.t) ->
        let r = run sb_opt b in
        let found = static_sum (fun s -> s.total_checks_found) r in
        (* the dominance pass's own counter: [total_checks_removed] is
           the total over all three elimination passes and would
           over-report this §5.3 series the moment another pass is on *)
        let removed =
          static_sum (fun s -> s.total_checks_removed_dominance) r
        in
        let pct = Util.percent removed found in
        Table.add_row tbl
          [ b.name; string_of_int found; string_of_int removed; fmt_pct pct ];
        (b.name, pct))
      benchmarks
  in
  {
    title =
      Printf.sprintf
        "§5.3: static checks removed by dominance-based elimination \
         (paper: %.0f%% on %s to %.0f%% on %s)"
        (fst Paper_data.opt_removed_min)
        (snd Paper_data.opt_removed_min)
        (fst Paper_data.opt_removed_max)
        (snd Paper_data.opt_removed_max);
    text = Table.render tbl;
    series = [ { label = "removed_pct"; points } ];
  }

(* ------------------------------------------------------------------ *)
(* Table 1: instrumentation locations (structural)                     *)
(* ------------------------------------------------------------------ *)

let table1 () : report =
  let tbl =
    Table.create [ "Instrumentation target"; "Task"; "SoftBound"; "Low-Fat Pointers" ]
  in
  List.iter
    (fun row -> Table.add_row tbl row)
    [
      [ "load / store"; "ensure safety"; "in-bounds check"; "in-bounds check" ];
      [
        "global / alloca / malloc";
        "record allocation";
        "determine size";
        "mirror or custom malloc";
      ];
      [ "phi / select on pointers"; "propagate"; "companion phi/select"; "companion phi/select" ];
      [ "gep"; "propagate"; "witness of source"; "witness of source" ];
      [
        "load of pointer";
        "rely on invariant";
        "load bounds from trie";
        "recompute base from value";
      ];
      [
        "call result / parameter";
        "rely on invariant";
        "load from shadow stack";
        "recompute base (assumes in-bounds)";
      ];
      [
        "store of pointer";
        "establish invariant";
        "store bounds to trie";
        "in-bounds (escape) check";
      ];
      [
        "call argument / return";
        "establish invariant";
        "store to shadow stack";
        "in-bounds (escape) check";
      ];
    ];
  {
    title = "Table 1: Locations for instrumentation (as implemented)";
    text = Table.render tbl;
    series = [];
  }


(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

(* Low-Fat protection scope: the stack [Duck & Yap NDSS'17] and global
   [arXiv'18] extensions cost little runtime but carry the coverage —
   disabling them floods the wide-bounds statistics. *)
let lf_scope_columns =
  List.map
    (fun (label, cfg) -> (label, Harness.with_config cfg Harness.baseline))
    [
      ("full", Config.lowfat);
      ("no-stack", { Config.lowfat with lf_stack = false });
      ("no-globals", { Config.lowfat with lf_globals = false });
      ( "heap-only",
        { Config.lowfat with lf_stack = false; lf_globals = false } );
    ]

let ablation_lf_reduce lookup benchmarks : report =
  let run = strict lookup in
  let columns = lf_scope_columns in
  let tbl =
    Table.create
      ~aligns:
        (Table.Left
        :: List.concat_map (fun _ -> [ Table.Right; Table.Right ]) columns)
      ("Benchmark"
      :: List.concat_map (fun (l, _) -> [ l ^ " ov"; l ^ " wide%" ]) columns)
  in
  let g =
    grid benchmarks columns (fun b ->
        let base = run Harness.baseline b in
        fun (_, setup) ->
          let r = run setup b in
          ( Harness.overhead ~baseline:base r,
            wide_fraction r ~approach:"lowfat" ))
  in
  List.iter
    (fun ((b : Bench.t), cells) ->
      Table.add_row tbl
        (b.name
        :: List.concat_map (fun (ov, w) -> [ fmt_x ov; fmt_pct w ]) cells))
    g;
  {
    title =
      "Ablation: Low-Fat protection scope (stack/global mirroring) — \
       runtime overhead and wide-bounds fraction per variant";
    text = Table.render tbl;
    series =
      series_of g columns ~label:(fun (l, _) -> "wide_" ^ l) (fun _ (_, w) -> w);
  }

(* SoftBound's policy for size-zero extern arrays (§4.3): wide upper
   bounds keep the programs running but unprotected; null bounds reject
   the first access — the "likely resulting in spurious violation
   reports" alternative.  Only benchmarks that declare such arrays run. *)
let sb_sz0_null =
  Harness.with_config
    { Config.softbound with sb_size_zero_wide_upper = false }
    Harness.baseline

let sz0_columns =
  [ ("wide upper (default)", sb_full); ("null bounds", sb_sz0_null) ]

let ablation_sz0_setups (b : Bench.t) =
  if b.size_zero_arrays then List.map snd sz0_columns else []

let ablation_sz0_reduce (lookup : lookup) benchmarks : report =
  let sz0 = List.filter (fun (b : Bench.t) -> b.size_zero_arrays) benchmarks in
  let tbl =
    Table.create
      ~aligns:[ Table.Left; Right; Right ]
      ("Benchmark [sz0]" :: List.map fst sz0_columns)
  in
  let outcome_cell (r : Harness.run) =
    match r.outcome with
    | Mi_vm.Interp.Exited _ -> "runs"
    | Mi_vm.Interp.Safety_violation _ -> "SPURIOUS VIOLATION"
    | Mi_vm.Interp.Trapped _ -> "trap"
    | Mi_vm.Interp.Exhausted _ -> "exhausted"
  in
  (* violations are the expected data here: plain lookup, no strictness *)
  let g = grid sz0 sz0_columns (fun b (_, setup) -> lookup setup b) in
  List.iter
    (fun ((b : Bench.t), runs) ->
      Table.add_row tbl (b.name :: List.map outcome_cell runs))
    g;
  let spurious =
    List.length
      (List.filter
         (fun b ->
           match (lookup sb_sz0_null b).outcome with
           | Mi_vm.Interp.Safety_violation _ -> true
           | _ -> false)
         sz0)
  in
  {
    title =
      Printf.sprintf
        "Ablation: SoftBound size-zero extern array policy (§4.3) — null \
         bounds spuriously reject %d of %d affected benchmarks"
        spurious (List.length sz0);
    text = Table.render tbl;
    series = [];
  }

(* ------------------------------------------------------------------ *)
(* Hottest check sites (observability: per-site profile)               *)
(* ------------------------------------------------------------------ *)

(* Where does the modeled check time actually go?  Reuses the optimized
   runs of Figure 9: every {!Harness.run} carries the per-site profile. *)
let hotchecks_reduce columns lookup benchmarks : report =
  let run = strict lookup in
  let n = 5 in
  let g =
    grid benchmarks columns (fun (b : Bench.t) (a, setup) ->
        let r = run setup b in
        ( Printf.sprintf "-- %s / %s --\n%s\n" b.name a
            (Mi_obs.Site.render ~n r.Harness.profile),
          float_of_int (Mi_obs.Site.total_cycles r.Harness.profile) ))
  in
  {
    title =
      Printf.sprintf
        "Hottest check sites: top %d instrumentation sites by modeled \
         check cycles, per benchmark and approach"
        n;
    text =
      String.concat "" (List.concat_map (fun (_, cells) -> List.map fst cells) g);
    series =
      series_of g columns
        ~label:(fun (a, _) -> counter_ns a ^ "_check_cycles")
        (fun _ (_, cycles) -> cycles);
  }

(* ------------------------------------------------------------------ *)
(* Machine-readable report output                                      *)
(* ------------------------------------------------------------------ *)

module Json = Mi_obs.Json

let series_to_json (s : series) : Json.t =
  Json.Obj
    [
      ("label", Json.Str s.label);
      ( "points",
        Json.List
          (List.map
             (fun (name, v) ->
               Json.Obj [ ("name", Json.Str name); ("value", Json.Float v) ])
             s.points) );
    ]

let report_to_json (r : report) : Json.t =
  Json.Obj
    [
      ("title", Json.Str r.title);
      ("text", Json.Str r.text);
      ("series", Json.List (List.map series_to_json r.series));
    ]

let reports_to_json (rs : report list) : Json.t =
  Json.Obj [ ("reports", Json.List (List.map report_to_json rs)) ]

(* ------------------------------------------------------------------ *)
(* Mutation campaign: the security-guarantee gate                      *)
(* ------------------------------------------------------------------ *)

(* Runs its own corpus programs rather than the benchmark matrix: the
   mutants are per-check deletions judged by the safety corpus.  A
   survivor is a guarantee hole, so the reduce raises — under
   [--keep-going] that degrades to an incomplete report, but the CI
   gate runs it strictly. *)
let mutant_series label (c : Mutation.campaign) =
  {
    label;
    points =
      [
        ("total", float_of_int c.Mutation.total);
        ("killed", float_of_int c.Mutation.killed);
        ("whitelisted", float_of_int c.Mutation.whitelisted);
        ("survived", float_of_int c.Mutation.survived);
      ];
  }

let mutation_reduce _lookup _benchmarks : report =
  let c = Mutation.run ~sample_per_approach:25 () in
  if c.Mutation.survived > 0 then
    raise
      (Harness.Benchmark_failed
         ( "mutation",
           Printf.sprintf
             "%d of %d check-deletion mutants survived the safety corpus"
             c.Mutation.survived c.Mutation.total ));
  {
    title =
      "Mutation campaign: check-deletion mutants vs the safety corpus";
    text = Mutation.render c;
    series = [ mutant_series "mutants" c ];
  }

(* ------------------------------------------------------------------ *)
(* checkelim: static + profile-guided check elimination                *)
(* ------------------------------------------------------------------ *)

(* Three runs per (benchmark x approach): the uninstrumented baseline,
   the unoptimized basis, and the fully-optimized configuration.  The
   static side comes from the instrumenter's per-pass counters; the
   dynamic side joins the per-check-site profiles (hit counts and
   modeled check cycles) of the unoptimized vs optimized runs — the
   profile-guided report the elimination work is judged by. *)
let checkelim_columns () =
  List.map (fun a -> (a, (full_setup a, checkopt_setup a))) (elim_capable ())

let checkelim_reduce columns lookup benchmarks : report =
  let run = strict lookup in
  let tbl =
    Table.create
      ~aligns:
        [
          Table.Left; Left; Right; Right; Right; Right; Right; Right; Right;
          Right;
        ]
      [
        "Benchmark"; "Approach"; "checks found"; "removed (d/s/h)"; "static %";
        "dyn checks"; "dyn removed %"; "cyc saved %"; "ov unopt"; "ov opt";
      ]
  in
  let g =
    grid benchmarks columns (fun (b : Bench.t) ->
        let base = run Harness.baseline b in
        fun (a, (unopt_setup, opt_setup)) ->
          let unopt = run unopt_setup b in
          let opt = run opt_setup b in
          let found = static_sum (fun s -> s.total_checks_found) opt in
          let rd = static_sum (fun s -> s.total_checks_removed_dominance) opt in
          let rs = static_sum (fun s -> s.total_checks_removed_static) opt in
          let rh = static_sum (fun s -> s.total_checks_removed_hoisted) opt in
          let removed = rd + rs + rh in
          let static_pct = Util.percent removed found in
          let p = counter_ns a in
          let dyn_unopt = Harness.counter unopt (p ^ ".checks") in
          let dyn_opt = Harness.counter opt (p ^ ".checks") in
          let dyn_pct = Util.percent (dyn_unopt - dyn_opt) dyn_unopt in
          let cyc_unopt = Mi_obs.Site.total_cycles unopt.Harness.profile in
          let cyc_opt = Mi_obs.Site.total_cycles opt.Harness.profile in
          let cyc_pct = Util.percent (cyc_unopt - cyc_opt) cyc_unopt in
          let ov_unopt = Harness.overhead ~baseline:base unopt in
          let ov_opt = Harness.overhead ~baseline:base opt in
          Table.add_row tbl
            [
              b.name;
              table_name a;
              string_of_int found;
              Printf.sprintf "%d/%d/%d" rd rs rh;
              fmt_pct static_pct;
              Printf.sprintf "%d->%d" dyn_unopt dyn_opt;
              fmt_pct dyn_pct;
              fmt_pct cyc_pct;
              fmt_x ov_unopt;
              fmt_x ov_opt;
            ];
          [ static_pct; dyn_pct; cyc_pct; ov_unopt; ov_opt ])
  in
  let ser k suffix =
    series_of g columns
      ~label:(fun (a, _) -> counter_ns a ^ suffix)
      (fun _ values -> List.nth values k)
  in
  {
    title =
      "Check elimination: dominance + static in-bounds + loop-invariant \
       hoisting — static checks removed (d/s/h = per pass), dynamic \
       (profile-weighted) checks removed, and modeled check-cycle \
       savings vs the unoptimized basis";
    text = Table.render tbl;
    series =
      List.concat
        (List.mapi ser
           [
             "_static_removed_pct"; "_dynamic_removed_pct";
             "_check_cycles_saved_pct"; "_overhead_unopt_x"; "_overhead_opt_x";
           ]);
  }

(* ------------------------------------------------------------------ *)
(* mutation-opt: soundness gate over the optimized configurations      *)
(* ------------------------------------------------------------------ *)

(* The corpus setup with every elimination pass requested (the checker
   capability veto still masks the unsound ones), at the corpus's O1
   level — mirrors {!Safety_corpus.setup}. *)
let checkopt_corpus_setup (approach : Config.approach) : Harness.setup =
  {
    (Harness.with_config
       (Config.optimized_full (Config.of_approach approach))
       Harness.baseline)
    with
    level = Mi_passes.Pipeline.O1;
  }

(* Dominance + hoisting but no static prover: under the full config the
   static pass deletes {e every} check of the in-bounds corpus probe for
   the spatial checkers, leaving them no ordinals to mutate — vacuously
   sound.  This setup keeps the checks (possibly as hoisted preheader
   checks, which carry ordinals like any other), so the campaign
   exercises check deletion under the optimizer for every approach. *)
let hoistdom_corpus_setup (approach : Config.approach) : Harness.setup =
  let cfg = Config.of_approach approach in
  {
    (Harness.with_config
       { cfg with Config.opt_dominance = true; opt_hoist = true }
       Harness.baseline)
    with
    level = Mi_passes.Pipeline.O1;
  }

(* Two soundness obligations, both fatal on failure: (1) elimination
   must never flip a corpus case's violation verdict against the
   unoptimized basis (a flipped Clean->Violation is a widening false
   positive; Violation->Clean is a deleted load-bearing check); (2) the
   check-deletion campaign re-run over the optimized configurations —
   every check elimination {e keeps} must still be load-bearing, so a
   survivor there is a guarantee hole in the optimized pipeline. *)
let mutation_opt_reduce _lookup _benchmarks : report =
  let mismatches = ref [] in
  let cases = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun (fam : Safety_corpus.family) ->
          List.iter
            (fun kind ->
              incr cases;
              let verdict setup_of =
                Mutation.verdict_of_outcome
                  (Mutation.run_case ~setup_of a fam kind).Harness.outcome
              in
              let plain = verdict Safety_corpus.setup in
              let opt = verdict checkopt_corpus_setup in
              if Mutation.is_violation plain <> Mutation.is_violation opt then
                mismatches :=
                  Printf.sprintf "%s/%s/%s"
                    (Config.approach_name a)
                    (Safety_corpus.family_name fam)
                    (Safety_corpus.kind_name kind)
                  :: !mismatches)
            (Safety_corpus.all_kinds
            @ Safety_corpus.temporal_kinds_for fam.Safety_corpus.fam_region))
        Safety_corpus.families)
    (elim_capable ());
  if !mismatches <> [] then
    raise
      (Harness.Benchmark_failed
         ( "mutation-opt",
           Printf.sprintf
             "check elimination changed the violation verdict of %d corpus \
              case(s): %s"
             (List.length !mismatches)
             (String.concat ", " (List.rev !mismatches)) ));
  (* campaign 1: full elimination.  The static prover deletes every
     spatial check of the in-bounds probe, so only checkers that kept
     checks (the temporal one, which vetoes the passes) contribute
     mutants — the spatial half of the soundness story is the verdict
     equivalence above plus campaign 2. *)
  let campaign label setup_of =
    let c = Mutation.run ~sample_per_approach:25 ~setup_of () in
    if c.Mutation.survived > 0 then
      raise
        (Harness.Benchmark_failed
           ( "mutation-opt",
             Printf.sprintf
               "%d of %d check-deletion mutants survived the safety corpus \
                under the %s configurations"
               c.Mutation.survived c.Mutation.total label ));
    c
  in
  let c_full = campaign "fully-optimized" checkopt_corpus_setup in
  (* campaign 2: dominance + hoisting only — every approach keeps its
     checks (spatial ones possibly hoisted into the preheader), so
     deleting any of them, hoisted included, must flip a corpus kind. *)
  let c_hd = campaign "dominance+hoist" hoistdom_corpus_setup in
  {
    title =
      "Mutation campaign over optimized configs: verdict equivalence + \
       check-deletion mutants vs the safety corpus";
    text =
      Printf.sprintf
        "verdict equivalence: %d corpus cases, optimized vs unoptimized, 0 \
         mismatches\n\n\
         campaign 1 — every elimination pass (spatial probes fully \
         eliminated, so spatial pools are empty by construction):\n\
         %s\n\
         campaign 2 — dominance + hoisting (checks survive, hoisted ones \
         included, and every deletion must be noticed):\n\
         %s"
        !cases (Mutation.render c_full) (Mutation.render c_hd);
    series =
      [
        {
          label = "equivalence";
          points =
            [
              ("cases", float_of_int !cases);
              ("mismatches", float_of_int (List.length !mismatches));
            ];
        };
        mutant_series "mutants_full" c_full;
        mutant_series "mutants_hoistdom" c_hd;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Registrations                                                       *)
(* ------------------------------------------------------------------ *)

(* A column-table experiment (Figures 9-13): the baseline plus one
   setup per column.  [columns] is a thunk: [--approach] narrows the
   checker registry after this module initialises. *)
let columns ~name ~alias ~descr ~title ?head ?paper ?cycles columns =
  {
    name;
    aliases = [ alias ];
    descr;
    setups = (fun _ -> Harness.baseline :: List.map snd (columns ()));
    reduce =
      (fun lookup ->
        columns_reduce ~title ?head ?paper ?cycles (columns ()) lookup);
  }

let opt_columns = per_approach opt_setup
let full_columns = per_approach full_setup

let () =
  List.iter register
    [
      {
        name = "table1";
        aliases = [ "t1" ];
        descr = "instrumentation locations (structural)";
        setups = (fun _ -> []);
        reduce = (fun _ _ -> table1 ());
      };
      columns ~name:"fig9" ~alias:"f9"
        ~descr:"execution-time comparison, SB vs LF" ~title:fig9_title
        ~head:table_name ~paper:fig9_paper ~cycles:true opt_columns;
      columns ~name:"fig10" ~alias:"f10"
        ~descr:"SoftBound optimized/unoptimized/metadata overhead"
        ~title:fig10_title (fun () -> opt_variant_setups "softbound");
      columns ~name:"fig11" ~alias:"f11"
        ~descr:"Low-Fat optimized/unoptimized/metadata overhead"
        ~title:fig11_title (fun () -> opt_variant_setups "lowfat");
      columns ~name:"fig12" ~alias:"f12"
        ~descr:"extension-point impact on SoftBound" ~title:fig12_title
        (fun () -> ep_setups "softbound");
      columns ~name:"fig13" ~alias:"f13"
        ~descr:"extension-point impact on Low-Fat" ~title:fig13_title
        (fun () -> ep_setups "lowfat");
      {
        name = "table2";
        aliases = [ "t2" ];
        descr = "unsafe (wide-bounds) dereference fractions";
        setups = (fun _ -> List.map snd (full_columns ()));
        reduce = (fun lookup -> table2_reduce (full_columns ()) lookup);
      };
      {
        name = "optstats";
        aliases = [];
        descr = "static checks removed by dominance elimination (§5.3)";
        setups = (fun _ -> [ sb_opt ]);
        reduce = optstats_reduce;
      };
      {
        name = "ablation-lf";
        aliases = [];
        descr = "Low-Fat protection-scope ablation";
        setups = (fun _ -> Harness.baseline :: List.map snd lf_scope_columns);
        reduce = ablation_lf_reduce;
      };
      {
        name = "ablation-sz0";
        aliases = [];
        descr = "SoftBound size-zero extern array policy ablation";
        setups = ablation_sz0_setups;
        reduce = ablation_sz0_reduce;
      };
      {
        name = "hotchecks";
        aliases = [];
        descr = "hottest instrumentation sites by modeled check cycles";
        setups = (fun _ -> List.map snd (opt_columns ()));
        reduce = (fun lookup -> hotchecks_reduce (opt_columns ()) lookup);
      };
      {
        name = "mutation";
        aliases = [ "mutants" ];
        descr = "check-deletion mutation campaign vs the safety corpus";
        setups = (fun _ -> []);
        reduce = mutation_reduce;
      };
      {
        name = "checkelim";
        aliases = [ "elim" ];
        descr =
          "static + profile-guided check elimination (dominance, static \
           in-bounds, loop hoisting)";
        setups =
          (fun _ ->
            Harness.baseline
            :: List.concat_map
                 (fun (_, (u, o)) -> [ u; o ])
                 (checkelim_columns ()));
        reduce = (fun lookup -> checkelim_reduce (checkelim_columns ()) lookup);
      };
      {
        name = "mutation-opt";
        aliases = [ "mutants-opt" ];
        descr =
          "soundness gate: verdict equivalence + mutation campaign over \
           optimized configs";
        setups = (fun _ -> []);
        reduce = mutation_opt_reduce;
      };
    ]
