(** The paper's evaluation as a self-registering experiment registry.

    An {!t} declares a [name], a [descr]iption, the (setup x benchmark)
    [jobs] it needs, and a [reduce] that renders a {!report} from the
    completed runs.  The generic driver ({!run_reports}) gathers the
    jobs of every selected experiment, deduplicates them, shards them
    across a {!Harness.t} session's worker domains, and only then runs
    each [reduce] — so every experiment is parallel (and shares runs
    with its siblings, e.g. the baseline runs of Figures 9-13) for free,
    and adding an experiment is ~20 lines: build setups, list jobs,
    fold the runs into a table.

    Where the paper states reference values, reduces print them side by
    side (columns suffixed [(paper)]). *)

module Config = Mi_core.Config
module Pipeline = Mi_passes.Pipeline
module Table = Mi_support.Table
module Util = Mi_support.Util

(* The measured configuration of a registered approach (§5.2): the
   dominance optimization where the checker supports it (both paper
   approaches, at VectorizerStart), the plain basis otherwise (the
   temporal checker, where the elimination is unsound). *)
let opt_setup (approach : Config.approach) =
  let cfg = Config.of_approach approach in
  let cfg =
    if (Mi_core.Checker.find_exn approach).Mi_core.Checker.supports_dominance_opt
    then Config.optimized cfg
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

(* approaches with at least one elimination pass enabled *)
let elim_capable () =
  List.filter
    (fun a ->
      let c = Mi_core.Checker.find_exn a in
      c.Mi_core.Checker.supports_dominance_opt
      || c.Mi_core.Checker.supports_static_opt
      || c.Mi_core.Checker.supports_hoist_opt)
    (Config.known_approaches ())

(* Counter namespace of each runtime ("sb.checks", "lf.checks_wide",
   "tp.checks", ...).  Kept alongside the display name used in table
   headers; both are pure renderings of the registry name. *)
let counter_prefix (approach : Config.approach) =
  match Config.approach_name approach with
  | "softbound" -> "sb"
  | "lowfat" -> "lf"
  | "temporal" -> "tp"
  | other -> invalid_arg ("Experiments: no counter prefix for " ^ other)

let display_name (approach : Config.approach) =
  match Config.approach_name approach with
  | "softbound" -> "SoftBound"
  | "lowfat" -> "Low-Fat"
  | "temporal" -> "Temporal"
  | other -> other

let fmt_x f = Printf.sprintf "%.2fx" f
let fmt_pct f = Printf.sprintf "%.2f" f

type series = { label : string; points : (string * float) list }

type report = { title : string; text : string; series : series list }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type lookup = Harness.setup -> Bench.t -> Harness.run
(** Fetch one completed run by its job.  Inside {!run_reports} this is a
    table lookup into the already-executed job matrix (falling back to
    an on-demand run for jobs an experiment did not declare); it raises
    {!Harness.Benchmark_failed} when the job's compile phase failed. *)

type t = {
  name : string;
  aliases : string list;
  descr : string;
  jobs : Bench.t list -> (Harness.setup * Bench.t) list;
      (** every run the reduce will look up *)
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
    of the session's [jobs] setting. *)
let run_reports ?(benchmarks = Suite.all) ?(keep_going = false)
    (h : Harness.t) (exps : t list) : (string * report) list =
  let jobs = List.concat_map (fun e -> e.jobs benchmarks) exps in
  let results = Harness.run_jobs h jobs in
  let table = Hashtbl.create 256 in
  List.iter2
    (fun (s, (b : Bench.t)) r ->
      Hashtbl.replace table (Harness.setup_key s, b.name) r)
    jobs results;
  let lookup setup (b : Bench.t) =
    let res =
      match Hashtbl.find_opt table (Harness.setup_key setup, b.name) with
      | Some r -> r
      | None ->
          (* a reduce asked for an undeclared job: run it now, memoized *)
          let r = Harness.run h setup b in
          Hashtbl.replace table (Harness.setup_key setup, b.name) r;
          r
    in
    match res with
    | Ok r -> r
    | Error e ->
        raise (Harness.Benchmark_failed (e.Harness.bench, e.Harness.reason))
  in
  List.map
    (fun e ->
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
    exps

(* ------------------------------------------------------------------ *)
(* Figure 9: execution-time comparison                                 *)
(* ------------------------------------------------------------------ *)

(* One column per registered checker, enumerated from the registry: a
   fourth approach gets a Figure 9 column by registering, not by
   editing this file. *)
let fig9_jobs benchmarks =
  let setups = List.map opt_setup (Config.known_approaches ()) in
  List.concat_map
    (fun b -> (Harness.baseline, b) :: List.map (fun s -> (s, b)) setups)
    benchmarks

let fig9_reduce lookup benchmarks : report =
  let run = strict lookup in
  let approaches = Config.known_approaches () in
  let tbl =
    Table.create
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) approaches @ [ Table.Right ])
      (("Benchmark" :: List.map display_name approaches) @ [ "baseline cycles" ])
  in
  let acc = List.map (fun a -> (a, ref [])) approaches in
  let pts = List.map (fun a -> (a, ref [])) approaches in
  List.iter
    (fun (b : Bench.t) ->
      let base = run Harness.baseline b in
      let cells =
        List.map
          (fun a ->
            let o = Harness.overhead ~baseline:base (run (opt_setup a) b) in
            (List.assoc a acc) := o :: !(List.assoc a acc);
            (List.assoc a pts) := (b.name, o) :: !(List.assoc a pts);
            fmt_x o)
          approaches
      in
      Table.add_row tbl ((b.name :: cells) @ [ string_of_int base.cycles ]))
    benchmarks;
  Table.add_row tbl
    (("geomean"
     :: List.map (fun a -> fmt_x (Util.geomean !(List.assoc a acc))) approaches)
    @ [ "" ]);
  Table.add_row tbl
    (("geomean (paper)"
     :: List.map
          (fun a ->
            match Config.approach_name a with
            | "softbound" -> fmt_x Paper_data.fig9_mean_sb
            | "lowfat" -> fmt_x Paper_data.fig9_mean_lf
            | _ -> "-")
          approaches)
    @ [ "" ]);
  {
    title = "Figure 9: Execution Time Comparison (normalized to -O3)";
    text = Table.render tbl;
    series =
      List.map
        (fun a ->
          { label = Config.approach_name a; points = List.rev !(List.assoc a pts) })
        approaches;
  }

(* ------------------------------------------------------------------ *)
(* Figures 10-13: one overhead column per (label, setup)               *)
(* ------------------------------------------------------------------ *)

let columns_jobs setups benchmarks =
  List.concat_map
    (fun b ->
      (Harness.baseline, b) :: List.map (fun (_, s) -> (s, b)) setups)
    benchmarks

(* One row per benchmark of each column's overhead over -O3, a geomean
   row, and one series per column, labelled like its column. *)
let columns_reduce ~title setups lookup benchmarks : report =
  let run = strict lookup in
  let tbl =
    Table.create
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) setups)
      ("Benchmark" :: List.map fst setups)
  in
  let acc = List.map (fun (l, _) -> (l, ref [])) setups in
  let pts = List.map (fun (l, _) -> (l, ref [])) setups in
  List.iter
    (fun (b : Bench.t) ->
      let base = run Harness.baseline b in
      let cells =
        List.map
          (fun (label, setup) ->
            let o = Harness.overhead ~baseline:base (run setup b) in
            (List.assoc label acc) := o :: !(List.assoc label acc);
            (List.assoc label pts) := (b.name, o) :: !(List.assoc label pts);
            fmt_x o)
          setups
      in
      Table.add_row tbl (b.name :: cells))
    benchmarks;
  Table.add_row tbl
    ("geomean"
    :: List.map (fun (l, _) -> fmt_x (Util.geomean !(List.assoc l acc))) setups);
  {
    title;
    text = Table.render tbl;
    series =
      List.map (fun (l, _) -> { label = l; points = List.rev !(List.assoc l pts) }) setups;
  }

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
  let p = counter_prefix approach in
  Util.percent
    (Harness.counter r (p ^ ".checks_wide"))
    (Harness.counter r (p ^ ".checks"))

let star fraction wide_count =
  if wide_count = 0 then Printf.sprintf "%s*" (fmt_pct fraction)
  else fmt_pct fraction

let table2_jobs benchmarks =
  let setups = List.map full_setup (Config.known_approaches ()) in
  List.concat_map (fun b -> List.map (fun s -> (s, b)) setups) benchmarks

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

let table2_reduce lookup benchmarks : report =
  let run = strict lookup in
  let approaches = Config.known_approaches () in
  let short a = String.uppercase_ascii (counter_prefix a) in
  let tbl =
    Table.create
      ~aligns:
        (Table.Left
        :: List.concat_map (fun _ -> [ Table.Right; Table.Right ]) approaches)
      ("Benchmark"
      :: List.concat_map (fun a -> [ short a; short a ^ " (paper)" ]) approaches)
  in
  let pts = List.map (fun a -> (a, ref [])) approaches in
  List.iter
    (fun (b : Bench.t) ->
      let cells =
        List.concat_map
          (fun a ->
            let r = run (full_setup a) b in
            let f = wide_fraction r ~approach:a in
            (List.assoc a pts) := (b.name, f) :: !(List.assoc a pts);
            [
              star f (Harness.counter r (counter_prefix a ^ ".checks_wide"));
              table2_paper_cell b a;
            ])
          approaches
      in
      let name = if b.size_zero_arrays then b.name ^ " [sz0]" else b.name in
      Table.add_row tbl (name :: cells))
    benchmarks;
  (* raw wide-bounds counters ride along as extra series so machine
     consumers (--json) need not re-derive them from percentages *)
  let raw label key setup =
    {
      label;
      points =
        List.map
          (fun (b : Bench.t) ->
            (b.name, float_of_int (Harness.counter (run setup b) key)))
          benchmarks;
    }
  in
  {
    title =
      "Table 2: Unsafe (wide-bounds) dereferences in %. [sz0] marks \
       benchmarks with size-zero array declarations; * marks zero wide \
       checks.";
    text = Table.render tbl;
    series =
      List.map
        (fun a ->
          {
            label = counter_prefix a ^ "_wide_pct";
            points = List.rev !(List.assoc a pts);
          })
        approaches
      @ List.concat_map
          (fun a ->
            let p = counter_prefix a in
            [
              raw (p ^ "_checks_wide") (p ^ ".checks_wide") (full_setup a);
              raw (p ^ "_checks") (p ^ ".checks") (full_setup a);
            ])
          approaches;
  }

(* ------------------------------------------------------------------ *)
(* §5.3: checks removed by the dominance optimization                  *)
(* ------------------------------------------------------------------ *)

let optstats_jobs benchmarks = List.map (fun b -> (sb_opt, b)) benchmarks

let optstats_reduce lookup benchmarks : report =
  let run = strict lookup in
  let tbl =
    Table.create
      ~aligns:[ Table.Left; Right; Right; Right ]
      [ "Benchmark"; "checks found"; "removed"; "removed %" ]
  in
  let pts = ref [] in
  List.iter
    (fun (b : Bench.t) ->
      let sb = run sb_opt b in
      let found =
        List.fold_left
          (fun a (s : Mi_core.Instrument.mod_stats) ->
            a + s.total_checks_found)
          0 sb.static_stats
      in
      let removed =
        (* the dominance pass's own counter: [total_checks_removed] is
           the total over all three elimination passes and would
           over-report this §5.3 series the moment another pass is on *)
        List.fold_left
          (fun a (s : Mi_core.Instrument.mod_stats) ->
            a + s.total_checks_removed_dominance)
          0 sb.static_stats
      in
      let pct = Util.percent removed found in
      pts := (b.name, pct) :: !pts;
      Table.add_row tbl
        [ b.name; string_of_int found; string_of_int removed; fmt_pct pct ])
    benchmarks;
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
    series = [ { label = "removed_pct"; points = List.rev !pts } ];
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
let lf_scope_variants =
  [
    ("full", Config.lowfat);
    ("no-stack", { Config.lowfat with lf_stack = false });
    ("no-globals", { Config.lowfat with lf_globals = false });
    ( "heap-only",
      { Config.lowfat with lf_stack = false; lf_globals = false } );
  ]

let ablation_lf_jobs benchmarks =
  List.concat_map
    (fun b ->
      (Harness.baseline, b)
      :: List.map
           (fun (_, cfg) -> (Harness.with_config cfg Harness.baseline, b))
           lf_scope_variants)
    benchmarks

let ablation_lf_reduce lookup benchmarks : report =
  let run = strict lookup in
  let variants = lf_scope_variants in
  let tbl =
    Table.create
      ~aligns:[ Table.Left; Right; Right; Right; Right; Right; Right; Right; Right ]
      ("Benchmark"
      :: List.concat_map
           (fun (l, _) -> [ l ^ " ov"; l ^ " wide%" ])
           variants)
  in
  let pts = List.map (fun (l, _) -> (l, ref [])) variants in
  List.iter
    (fun (b : Bench.t) ->
      let base = run Harness.baseline b in
      let cells =
        List.concat_map
          (fun (label, cfg) ->
            let r = run (Harness.with_config cfg Harness.baseline) b in
            let ov = Harness.overhead ~baseline:base r in
            let w = wide_fraction r ~approach:"lowfat" in
            (List.assoc label pts) := (b.name, w) :: !(List.assoc label pts);
            [ fmt_x ov; fmt_pct w ])
          variants
      in
      Table.add_row tbl (b.name :: cells))
    benchmarks;
  {
    title =
      "Ablation: Low-Fat protection scope (stack/global mirroring) — \
       runtime overhead and wide-bounds fraction per variant";
    text = Table.render tbl;
    series =
      List.map
        (fun (l, _) -> { label = "wide_" ^ l; points = List.rev !(List.assoc l pts) })
        variants;
  }

(* SoftBound's policy for size-zero extern arrays (§4.3): wide upper
   bounds keep the programs running but unprotected; null bounds reject
   the first access — the "likely resulting in spurious violation
   reports" alternative. *)
let sb_sz0_null =
  Harness.with_config
    { Config.softbound with sb_size_zero_wide_upper = false }
    Harness.baseline

let sz0_benchmarks benchmarks =
  List.filter (fun (b : Bench.t) -> b.Bench.size_zero_arrays) benchmarks

let ablation_sz0_jobs benchmarks =
  List.concat_map
    (fun b -> [ (sb_full, b); (sb_sz0_null, b) ])
    (sz0_benchmarks benchmarks)

let ablation_sz0_reduce (lookup : lookup) benchmarks : report =
  let sz0 = sz0_benchmarks benchmarks in
  let tbl =
    Table.create
      ~aligns:[ Table.Left; Right; Right ]
      [ "Benchmark [sz0]"; "wide upper (default)"; "null bounds" ]
  in
  let outcome_cell (r : Harness.run) =
    match r.outcome with
    | Mi_vm.Interp.Exited _ -> "runs"
    | Mi_vm.Interp.Safety_violation _ -> "SPURIOUS VIOLATION"
    | Mi_vm.Interp.Trapped _ -> "trap"
    | Mi_vm.Interp.Exhausted _ -> "exhausted"
  in
  let spurious = ref 0 in
  List.iter
    (fun (b : Bench.t) ->
      (* violations are the expected data here: plain lookup, no strictness *)
      let wide = lookup sb_full b in
      let null = lookup sb_sz0_null b in
      (match null.outcome with
      | Mi_vm.Interp.Safety_violation _ -> incr spurious
      | _ -> ());
      Table.add_row tbl [ b.name; outcome_cell wide; outcome_cell null ])
    sz0;
  {
    title =
      Printf.sprintf
        "Ablation: SoftBound size-zero extern array policy (§4.3) — null \
         bounds spuriously reject %d of %d affected benchmarks"
        !spurious (List.length sz0);
    text = Table.render tbl;
    series = [];
  }

(* ------------------------------------------------------------------ *)
(* Hottest check sites (observability: per-site profile)               *)
(* ------------------------------------------------------------------ *)

(* Where does the modeled check time actually go?  Reuses the optimized
   runs of Figure 9: every {!Harness.run} carries the per-site profile. *)
let hotchecks_jobs benchmarks =
  let setups = List.map opt_setup (Config.known_approaches ()) in
  List.concat_map (fun b -> List.map (fun s -> (s, b)) setups) benchmarks

let hotchecks_reduce ?(n = 5) lookup benchmarks : report =
  let run = strict lookup in
  let approaches = Config.known_approaches () in
  let buf = Buffer.create 1024 in
  let pts = List.map (fun a -> (a, ref [])) approaches in
  List.iter
    (fun (b : Bench.t) ->
      List.iter
        (fun a ->
          let r = run (opt_setup a) b in
          (List.assoc a pts) :=
            (b.name, float_of_int (Mi_obs.Site.total_cycles r.Harness.profile))
            :: !(List.assoc a pts);
          Buffer.add_string buf
            (Printf.sprintf "-- %s / %s --\n%s\n" b.name
               (Config.approach_name a)
               (Mi_obs.Site.render ~n r.Harness.profile)))
        approaches)
    benchmarks;
  {
    title =
      Printf.sprintf
        "Hottest check sites: top %d instrumentation sites by modeled \
         check cycles, per benchmark and approach"
        n;
    text = Buffer.contents buf;
    series =
      List.map
        (fun a ->
          {
            label = counter_prefix a ^ "_check_cycles";
            points = List.rev !(List.assoc a pts);
          })
        approaches;
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
    series =
      [
        {
          label = "mutants";
          points =
            [
              ("total", float_of_int c.Mutation.total);
              ("killed", float_of_int c.Mutation.killed);
              ("whitelisted", float_of_int c.Mutation.whitelisted);
              ("survived", float_of_int c.Mutation.survived);
            ];
        };
      ];
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
let checkelim_jobs benchmarks =
  let approaches = elim_capable () in
  List.concat_map
    (fun b ->
      (Harness.baseline, b)
      :: List.concat_map
           (fun a -> [ (full_setup a, b); (checkopt_setup a, b) ])
           approaches)
    benchmarks

let checkelim_reduce lookup benchmarks : report =
  let run = strict lookup in
  let approaches = elim_capable () in
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
  let mk () = List.map (fun a -> (a, ref [])) approaches in
  let static_pts = mk () in
  let dyn_pts = mk () in
  let cyc_pts = mk () in
  let ov_unopt_pts = mk () in
  let ov_opt_pts = mk () in
  let push pts a name v = (List.assoc a pts) := (name, v) :: !(List.assoc a pts) in
  List.iter
    (fun (b : Bench.t) ->
      let base = run Harness.baseline b in
      List.iter
        (fun a ->
          let unopt = run (full_setup a) b in
          let opt = run (checkopt_setup a) b in
          let sum f =
            List.fold_left
              (fun acc (s : Mi_core.Instrument.mod_stats) -> acc + f s)
              0 opt.Harness.static_stats
          in
          let found = sum (fun s -> s.total_checks_found) in
          let rd = sum (fun s -> s.total_checks_removed_dominance) in
          let rs = sum (fun s -> s.total_checks_removed_static) in
          let rh = sum (fun s -> s.total_checks_removed_hoisted) in
          let removed = rd + rs + rh in
          let static_pct = Util.percent removed found in
          let p = counter_prefix a in
          let dyn_unopt = Harness.counter unopt (p ^ ".checks") in
          let dyn_opt = Harness.counter opt (p ^ ".checks") in
          let dyn_pct = Util.percent (dyn_unopt - dyn_opt) dyn_unopt in
          let cyc_unopt = Mi_obs.Site.total_cycles unopt.Harness.profile in
          let cyc_opt = Mi_obs.Site.total_cycles opt.Harness.profile in
          let cyc_pct = Util.percent (cyc_unopt - cyc_opt) cyc_unopt in
          let ov_unopt = Harness.overhead ~baseline:base unopt in
          let ov_opt = Harness.overhead ~baseline:base opt in
          push static_pts a b.name static_pct;
          push dyn_pts a b.name dyn_pct;
          push cyc_pts a b.name cyc_pct;
          push ov_unopt_pts a b.name ov_unopt;
          push ov_opt_pts a b.name ov_opt;
          Table.add_row tbl
            [
              b.name;
              display_name a;
              string_of_int found;
              Printf.sprintf "%d/%d/%d" rd rs rh;
              fmt_pct static_pct;
              Printf.sprintf "%d->%d" dyn_unopt dyn_opt;
              fmt_pct dyn_pct;
              fmt_pct cyc_pct;
              fmt_x ov_unopt;
              fmt_x ov_opt;
            ])
        approaches)
    benchmarks;
  let ser pts suffix =
    List.map
      (fun a ->
        {
          label = counter_prefix a ^ suffix;
          points = List.rev !(List.assoc a pts);
        })
      approaches
  in
  {
    title =
      "Check elimination: dominance + static in-bounds + loop-invariant \
       hoisting — static checks removed (d/s/h = per pass), dynamic \
       (profile-weighted) checks removed, and modeled check-cycle \
       savings vs the unoptimized basis";
    text = Table.render tbl;
    series =
      ser static_pts "_static_removed_pct"
      @ ser dyn_pts "_dynamic_removed_pct"
      @ ser cyc_pts "_check_cycles_saved_pct"
      @ ser ov_unopt_pts "_overhead_unopt_x"
      @ ser ov_opt_pts "_overhead_opt_x";
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
  in
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

(* A column-table experiment.  [setups] is a thunk: checkers register
   in their own modules, which may initialise after this one. *)
let columns ~name ~alias ~descr ~title setups =
  {
    name;
    aliases = [ alias ];
    descr;
    jobs = (fun benchmarks -> columns_jobs (setups ()) benchmarks);
    reduce = (fun lookup -> columns_reduce ~title (setups ()) lookup);
  }

let () =
  List.iter register
    [
      {
        name = "table1";
        aliases = [ "t1" ];
        descr = "instrumentation locations (structural)";
        jobs = (fun _ -> []);
        reduce = (fun _ _ -> table1 ());
      };
      {
        name = "fig9";
        aliases = [ "f9" ];
        descr = "execution-time comparison, SB vs LF";
        jobs = fig9_jobs;
        reduce = fig9_reduce;
      };
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
        jobs = table2_jobs;
        reduce = table2_reduce;
      };
      {
        name = "optstats";
        aliases = [];
        descr = "static checks removed by dominance elimination (§5.3)";
        jobs = optstats_jobs;
        reduce = optstats_reduce;
      };
      {
        name = "ablation-lf";
        aliases = [];
        descr = "Low-Fat protection-scope ablation";
        jobs = ablation_lf_jobs;
        reduce = ablation_lf_reduce;
      };
      {
        name = "ablation-sz0";
        aliases = [];
        descr = "SoftBound size-zero extern array policy ablation";
        jobs = ablation_sz0_jobs;
        reduce = ablation_sz0_reduce;
      };
      {
        name = "hotchecks";
        aliases = [];
        descr = "hottest instrumentation sites by modeled check cycles";
        jobs = hotchecks_jobs;
        reduce = (fun lookup benchmarks -> hotchecks_reduce lookup benchmarks);
      };
      {
        name = "mutation";
        aliases = [ "mutants" ];
        descr = "check-deletion mutation campaign vs the safety corpus";
        jobs = (fun _ -> []);
        reduce = mutation_reduce;
      };
      {
        name = "checkelim";
        aliases = [ "elim" ];
        descr =
          "static + profile-guided check elimination (dominance, static \
           in-bounds, loop hoisting)";
        jobs = checkelim_jobs;
        reduce = checkelim_reduce;
      };
      {
        name = "mutation-opt";
        aliases = [ "mutants-opt" ];
        descr =
          "soundness gate: verdict equivalence + mutation campaign over \
           optimized configs";
        jobs = (fun _ -> []);
        reduce = mutation_opt_reduce;
      };
    ]

(** Every registered report, regenerated through a fresh session with
    the default worker pool — the convenience the bench harness and the
    [--all] driver path share. *)
let all_reports ?(jobs = Harness.default_jobs ()) ?benchmarks () :
    report list =
  let h = Harness.create ~jobs () in
  List.map snd (run_reports ?benchmarks h (all ()))
