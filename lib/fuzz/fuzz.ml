(** Campaign engine: generate → run the oracle matrix → judge →
    shrink → report.

    One batch executor runs every campaign: a single harness session,
    each batch of programs as one {!Mi_bench_kit.Harness.run_jobs}
    matrix (safe programs through the full {!Oracle.variants} matrix,
    unsafe mutants through every registered checker), each program
    judged against its own slice of the results — so the
    instrumentation cache, worker sharding and [-j]-independent
    determinism of the harness carry over to fuzzing wholesale.  Three
    drivers add only their policy on top: {!run} (a seed block in two
    waves, the second boosted by the first's coverage), {!soak_run}
    (breeding, admission and checkpoints over a persistent corpus) and
    {!replay} (re-running a corpus and checking its fingerprints).
    Every report (and its JSON rendering) is byte-identical for every
    [-j] setting.

    On a failure — an oracle {!Oracle.finding} on a safe program, or a
    missed violation on a mutant — the driver queues the case; up to
    the shrink budget, in discovery order, each is reduced with
    {!Shrink.minimize} under a kind-specific predicate and emitted as
    the minimized translation units plus an [INFO.txt] (seed, finding,
    fault plan, reproduction command) into the repro directory. *)

module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Json = Mi_obs.Json
module Fault = Mi_faultkit.Fault

type campaign = {
  c_seed_lo : int;
  c_seed_hi : int;  (** inclusive; safe seeds *)
  c_mutant_lo : int;
  c_mutant_hi : int;  (** inclusive; one mutant per seed; empty if [hi < lo] *)
  c_jobs : int;
  c_faults : Fault.t;  (** injected faults (chaos / shrinker testing) *)
  c_repro_dir : string option;  (** where minimized failures land *)
  c_max_shrinks : int;  (** cap on shrink+emit work per campaign *)
}

let campaign ?(jobs = 1) ?(faults = Fault.none) ?repro_dir
    ?(max_shrinks = 5) ?mutants ~seeds:(lo, hi) () =
  let mlo, mhi = match mutants with Some (a, b) -> (a, b) | None -> (0, -1) in
  {
    c_seed_lo = lo;
    c_seed_hi = hi;
    c_mutant_lo = mlo;
    c_mutant_hi = mhi;
    c_jobs = jobs;
    c_faults = faults;
    c_repro_dir = repro_dir;
    c_max_shrinks = max_shrinks;
  }

type repro = {
  rp_slug : string;  (** subdirectory name under the repro dir *)
  rp_finding : string;  (** rendered finding the repro reproduces *)
  rp_lines : int;  (** non-blank line count of the minimized main unit *)
  rp_shrunk : bool;  (** [false]: emitted unshrunk (predicate didn't hold) *)
}

(** Corpus bookkeeping of a coverage-guided campaign ({!soak_run} /
    {!replay}); [None] on plain block campaigns. *)
type corpus_stats = {
  cs_entries : int;  (** corpus entries after the campaign *)
  cs_seeded : int;  (** generator-fresh entries *)
  cs_spliced : int;  (** splice offspring *)
  cs_grown : int;  (** grow offspring *)
  cs_rounds : int;  (** evolution rounds completed over the corpus *)
  cs_execs : int;  (** programs run through the whole matrix, lifetime *)
}

type report = {
  r_seed_lo : int;
  r_seed_hi : int;
  r_mutant_lo : int;
  r_mutant_hi : int;
  r_inject : string;  (** canonical fault-plan spec, [""] when none *)
  r_safe_total : int;
  r_findings : Oracle.finding list;  (** safe-seed oracle violations *)
  r_mutants : Oracle.mutant_result list;
  r_coverage : string list;  (** union of grammar productions exercised *)
  r_vm_blocks : int * int;  (** corpus VM coverage: blocks (hit, total) *)
  r_vm_edges : int * int;  (** corpus VM coverage: edges (hit, total) *)
  r_cells : int;
      (** distinct coverage cells ({!Mi_obs.Coverage.cell_keys})
          discovered — the currency the guided mode is benchmarked in *)
  r_boost : int list;
      (** generator features boosted in the second wave because their
          first-wave seeds discovered the most new coverage cells *)
  r_corpus : corpus_stats option;
  r_repros : repro list;
}

let seq lo hi = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i)

let coverage progs =
  List.sort_uniq String.compare
    (List.concat_map (fun p -> p.Gen.p_productions) progs)

(* ------------------------------------------------------------------ *)
(* Shrink predicates                                                   *)
(* ------------------------------------------------------------------ *)

let run_one h setup srcs =
  Harness.run h setup (Oracle.bench_of_sources ~name:"shrink" srcs)

let outcome_of = function
  | Ok r -> Some r.Harness.outcome
  | Error _ -> None

(* does [srcs] still exhibit the safe-oracle finding [f]? *)
let safe_pred h (f : Oracle.finding) : Bench.source list -> bool =
 fun srcs ->
  try
    match f.Oracle.f_kind with
    | "ref-failed" -> (
        match outcome_of (run_one h Oracle.reference srcs) with
        | Some (Mi_vm.Interp.Exited 0) -> false
        | Some _ -> true
        | None -> false)
    | "compile-error" -> (
        (* conservative: the same compile error, not just any *)
        match run_one h (Oracle.variant_setup f.Oracle.f_setup) srcs with
        | Error e -> e.Harness.reason = f.Oracle.f_detail
        | Ok _ -> false)
    | "check-count-mismatch" -> (
        let runs =
          List.map (fun (_, s) -> run_one h s srcs) Oracle.checker_variants
        in
        List.for_all
          (function
            | Ok r -> r.Harness.outcome = Mi_vm.Interp.Exited 0
            | Error _ -> false)
          runs
        && Oracle.check_count_mismatch runs <> None)
    | "dispatch-divergence" -> (
        let fused = Filename.chop_suffix f.Oracle.f_setup "/generic" in
        match
          ( run_one h (Oracle.variant_setup fused) srcs,
            run_one h (Oracle.variant_setup f.Oracle.f_setup) srcs )
        with
        | Ok fast, Ok gen -> Oracle.dispatch_divergence fast gen <> None
        | _ -> false)
    | kind -> (
        (* divergence of one variant against the O0 reference *)
        match run_one h Oracle.reference srcs with
        | Ok ref_run when ref_run.Harness.outcome = Mi_vm.Interp.Exited 0 -> (
            match run_one h (Oracle.variant_setup f.Oracle.f_setup) srcs with
            | Error _ -> false
            | Ok r -> (
                match (kind, r.Harness.outcome) with
                | "output-divergence", Mi_vm.Interp.Exited 0 ->
                    r.Harness.output <> ref_run.Harness.output
                | "spurious-report", Mi_vm.Interp.Safety_violation _ -> true
                | "trap", Mi_vm.Interp.Trapped _ -> true
                | "fuel", Mi_vm.Interp.Exhausted _ -> true
                | "exit-code", Mi_vm.Interp.Exited n -> n <> 0
                | _ -> false))
        | _ -> false)
  with _ -> false

(* does [srcs] still exhibit the missed violation [f] of mutant [mr]?
   Two legs: the offender still runs to completion, and a witness still
   proves the injected hazard is live (another checker variant that
   reported the original still reporting, or — when the miss is caused
   by an injected fault plan — a clean, fault-free run of the offender
   itself). *)
let mutant_pred h ~faults (mr : Oracle.mutant_result)
    (f : Oracle.finding) : Bench.source list -> bool =
  let tag = f.Oracle.f_setup in
  let witnesses =
    List.filter_map
      (fun (t, d) ->
        if t <> tag && d = Oracle.Killed then Some t else None)
      mr.Oracle.mr_detections
  in
  fun srcs ->
    try
      let missed =
        match outcome_of (run_one h (Oracle.variant_setup tag) srcs) with
        | Some (Mi_vm.Interp.Exited _) | Some (Mi_vm.Interp.Trapped _) -> true
        | _ -> false
      in
      missed
      &&
      if witnesses <> [] then
        List.exists
          (fun t ->
            match outcome_of (run_one h (Oracle.variant_setup t) srcs) with
            | Some (Mi_vm.Interp.Safety_violation _) -> true
            | _ -> false)
          witnesses
      else if not (Fault.is_none faults) then
        (* fault-free compile of the same setup must still report *)
        match
          (Harness.run_sources (Oracle.variant_setup tag) srcs).Harness.outcome
        with
        | Mi_vm.Interp.Safety_violation _ -> true
        | _ -> false
      else false
    with _ -> false

(* ------------------------------------------------------------------ *)
(* Repro emission                                                      *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let emit_repro ~dir ~slug ~info (sources : Bench.source list) =
  let d = Filename.concat dir slug in
  mkdir_p d;
  write_file (Filename.concat d "INFO.txt") info;
  List.iter
    (fun (s : Bench.source) ->
      write_file (Filename.concat d (s.Bench.src_name ^ ".c")) s.Bench.code)
    sources

let main_lines (sources : Bench.source list) =
  match List.find_opt (fun (s : Bench.source) -> s.Bench.src_name = "main") sources with
  | Some s -> Shrink.line_count s.Bench.code
  | None -> 0

let shrink_and_emit ~dir ~slug ~repro_cmd (f : Oracle.finding) ~pred sources =
  let shrunk = Shrink.minimize ~pred sources in
  let did_shrink = pred shrunk in
  let emitted = if did_shrink then shrunk else sources in
  let info =
    Printf.sprintf
      "finding: %s\nreproduce: %s\nshrunk: %b\n\nThe failure predicate held \
       on the minimized sources in this directory;\nre-run the command \
       above (or feed the .c files to mic) to reproduce.\n"
      (Oracle.finding_to_string f) repro_cmd did_shrink
  in
  emit_repro ~dir ~slug ~info emitted;
  {
    rp_slug = slug;
    rp_finding = Oracle.finding_to_string f;
    rp_lines = main_lines emitted;
    rp_shrunk = did_shrink;
  }

(* A failing case queued for shrinking:
   [(slug, reproduction command, finding, failure predicate, sources)].
   Shrink and emit the head of the discovery-ordered queue, at most
   [max_shrinks] cases; nothing (not even the directory) without a
   repro directory or a budget. *)
let emit_repros ~max_shrinks dir pending =
  match dir with
  | None -> []
  | Some dir ->
      List.map
        (fun (slug, repro_cmd, f, pred, sources) ->
          shrink_and_emit ~dir ~slug ~repro_cmd f ~pred sources)
        (List.filteri (fun i _ -> i < max_shrinks) pending)

(* ------------------------------------------------------------------ *)
(* The batch executor                                                  *)
(* ------------------------------------------------------------------ *)

(* Every driver below ({!run}, {!soak_run}, {!replay}) is a policy over
   these few helpers: one harness session, one matrix call per batch,
   each item judged against its own slice of the results. *)

let rec split_at n l =
  if n = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_at (n - 1) rest in
        (x :: a, b)

let inject_arg faults =
  if Fault.is_none faults then ""
  else Printf.sprintf " --inject '%s'" (Fault.to_string faults)

(* the campaign's harness session: coverage recording on, so every
   reference run reports the VM blocks and edges it reached *)
let session ~jobs ~faults =
  Harness.create ~jobs
    ~obs:(Mi_obs.Obs.create ~coverage:true ())
    ?faults:(if Fault.is_none faults then None else Some faults)
    ()

(* run every item's jobs as one {!Harness.run_jobs} matrix and pair each
   item with its own slice of the results *)
let run_matrix h jobs_of items =
  let jobs = List.map jobs_of items in
  let rest, slices =
    List.fold_left_map
      (fun rs js ->
        let a, b = split_at (List.length js) rs in
        (b, a))
      (Harness.run_jobs h (List.concat jobs))
      jobs
  in
  assert (rest = []);
  List.combine items slices

(* run items through the whole safe oracle matrix and judge them: each
   comes back with its findings and its reference run's coverage
   snapshots ([None] if the reference did not run).  The reference run
   is the first job of the slice; its coverage is dispatch- and
   instrumentation-independent. *)
let run_safe h ~bench_of ~seed_of items =
  List.map
    (fun (x, rs) ->
      ( x,
        Oracle.judge_safe_results ~seed:(seed_of x) rs,
        match rs with Ok r :: _ -> Some r.Harness.coverage | _ -> None ))
    (run_matrix h (fun x -> Oracle.safe_jobs_of (bench_of x)) items)

(* the mutant of seed [s]: odd seeds draw a temporal mutant when the
   program freed something, everything else keeps the spatial probe.
   Generated boost-free, so `mifuzz --seeds s..s --mutants s..s`
   reproduces the mutant of any campaign or soak. *)
let mutant_of_seed s =
  let p = Gen.generate ~seed:s () in
  match if s land 1 = 1 then Gen.mutate_temporal p ~mseed:s else None with
  | Some m -> m
  | None -> Gen.mutate p ~mseed:0

(* run and judge the mutants of [seeds] through every registered
   checker; each mutant with a finding queues one repro *)
let run_mutants h ~faults ~prefix seeds =
  let judged =
    List.map
      (fun (m, rs) -> (m, Oracle.judge_mutant m rs))
      (run_matrix h Oracle.mutant_jobs (List.map mutant_of_seed seeds))
  in
  ( List.map snd judged,
    List.filter_map
      (fun ((m : Gen.mutant), (mr : Oracle.mutant_result)) ->
        match mr.Oracle.mr_findings with
        | [] -> None
        | f :: _ ->
            let s = mr.Oracle.mr_seed in
            Some
              ( Printf.sprintf "%sseed%d-mut-%s" prefix s f.Oracle.f_setup,
                Printf.sprintf "mifuzz --seeds %d..%d --mutants %d..%d%s" s s
                  s s (inject_arg faults),
                f,
                mutant_pred h ~faults mr f,
                m.Gen.m_sources ))
      judged )

(* (blocks hit, total), (edges hit, total) *)
let vm_totals cov =
  let vm = Mi_obs.Coverage.totals cov in
  Mi_obs.Coverage.
    ((vm.tt_blocks_hit, vm.tt_blocks), (vm.tt_edges_hit, vm.tt_edges))

(* (min, max) of a non-empty list, [empty] otherwise *)
let span ~empty = function
  | [] -> empty
  | x :: r -> (List.fold_left min x r, List.fold_left max x r)

(* ------------------------------------------------------------------ *)
(* Coverage feedback                                                   *)
(* ------------------------------------------------------------------ *)

(* count the coverage cells (hit blocks + hit edges) of [snaps] not yet
   in [seen], adding them — the "how much new ground did this seed
   break" signal the scheduler feeds on.  Cell keys are the stable
   {!Mi_obs.Coverage.cell_keys}, the same currency the corpus persists. *)
let count_new_cells seen (snaps : Mi_obs.Coverage.snapshot list) =
  let fresh = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun key ->
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            incr fresh
          end)
        (Mi_obs.Coverage.cell_keys s))
    snaps;
  !fresh

(* features forced on in the second wave *)
let n_boost = 3

(* rank features by accrued fresh-cell score and keep the productive
   top {!n_boost} — shared by the two-wave campaign and the soak loop *)
let boost_of_scores scores =
  let ranked =
    List.sort
      (fun (ka, sa) (kb, sb) ->
        if sb <> sa then compare sb sa else compare ka kb)
      (Array.to_list (Array.mapi (fun k s -> (k, s)) scores))
  in
  let top, _ = split_at n_boost ranked in
  List.sort compare
    (List.filter_map (fun (k, s) -> if s > 0 then Some k else None) top)

(** Run one campaign.  Deterministic for fixed campaign parameters:
    results, report and repro contents are independent of [c_jobs].

    Safe seeds run in two waves.  The first half of the seed range runs
    plain; each seed's uninstrumented [-O0] reference run reports the
    VM blocks and edges it reached, and every seed is scored by how
    many cells it was first to hit.  Those scores rank the generator's
    features (a seed's score accrues to every feature it used), and the
    second half of the range is generated with the top {!n_boost}
    productive features forced on — coverage feedback closing the loop
    from observed execution back into generation.  Boosting never
    changes a seed's rng stream, only flag outcomes, so wave-2 programs
    stay deterministic for (seed, boost). *)
let run (c : campaign) : report =
  let h = session ~jobs:c.c_jobs ~faults:c.c_faults in
  let corpus = Mi_obs.Coverage.create () in
  let seen = Hashtbl.create 1024 in
  let scores = Array.make Gen.n_features 0 in
  (* run one wave; every seed's reference coverage accrues to the corpus
     totals and, as fresh cells, to the scores of its features *)
  let run_wave progs =
    let judged =
      run_safe h ~bench_of:Oracle.safe_bench
        ~seed_of:(fun p -> p.Gen.p_seed)
        progs
    in
    List.iter
      (fun ((p : Gen.prog), _, snaps) ->
        Option.iter
          (fun snaps ->
            Mi_obs.Coverage.merge corpus (Mi_obs.Coverage.of_snapshots snaps);
            let fresh = count_new_cells seen snaps in
            List.iter (fun k -> scores.(k) <- scores.(k) + fresh) p.Gen.p_features)
          snaps)
      judged;
    judged
  in
  let all_seeds = seq c.c_seed_lo c.c_seed_hi in
  let w1, w2 = split_at ((List.length all_seeds + 1) / 2) all_seeds in
  let wave1 = run_wave (List.map (fun s -> Gen.generate ~seed:s ()) w1) in
  let boost = if w2 = [] then [] else boost_of_scores scores in
  let wave2 =
    if w2 = [] then []
    else run_wave (List.map (fun s -> Gen.generate ~boost ~seed:s ()) w2)
  in
  let safe = wave1 @ wave2 in
  let mutants, mutant_repros =
    run_mutants h ~faults:c.c_faults ~prefix:""
      (seq c.c_mutant_lo c.c_mutant_hi)
  in
  (* one repro per failing seed (its first finding), then the mutants *)
  let safe_repros =
    List.filter_map
      (fun ((p : Gen.prog), fs, _) ->
        match fs with
        | [] -> None
        | f :: _ ->
            let s = p.Gen.p_seed in
            Some
              ( Printf.sprintf "seed%d-%s" s f.Oracle.f_kind,
                Printf.sprintf "mifuzz --seeds %d..%d%s" s s
                  (inject_arg c.c_faults),
                f,
                safe_pred h f,
                p.Gen.p_sources ))
      safe
  in
  let r_vm_blocks, r_vm_edges = vm_totals corpus in
  {
    r_seed_lo = c.c_seed_lo;
    r_seed_hi = c.c_seed_hi;
    r_mutant_lo = c.c_mutant_lo;
    r_mutant_hi = c.c_mutant_hi;
    r_inject = Fault.to_string c.c_faults;
    r_safe_total = List.length safe;
    r_findings = List.concat_map (fun (_, fs, _) -> fs) safe;
    r_mutants = mutants;
    r_coverage = coverage (List.map (fun (p, _, _) -> p) safe);
    r_vm_blocks;
    r_vm_edges;
    r_cells = Hashtbl.length seen;
    r_boost = boost;
    r_corpus = None;
    r_repros =
      emit_repros ~max_shrinks:c.c_max_shrinks c.c_repro_dir
        (safe_repros @ mutant_repros);
  }

(* ------------------------------------------------------------------ *)
(* Coverage-guided evolutionary soak                                   *)
(* ------------------------------------------------------------------ *)

type soak_config = {
  sk_corpus_dir : string;
  sk_jobs : int;
  sk_minutes : float option;  (** soak deadline ({!Mi_support.Mclock}) *)
  sk_max_execs : int option;  (** hard cap on lifetime matrix executions *)
  sk_seed_start : int;  (** first base generator seed of a fresh corpus *)
  sk_batch : int;  (** target programs (offspring + fresh) per round *)
  sk_mutants_per_round : int;
  sk_faults : Fault.t;
  sk_repro_dir : string option;
  sk_max_shrinks : int;
}

let soak_config ?(jobs = 1) ?(faults = Fault.none) ?repro_dir ?(max_shrinks = 5)
    ?minutes ?max_execs ?(seed_start = 1) ?(batch = 8) ?(mutants_per_round = 2)
    ~corpus_dir () =
  {
    sk_corpus_dir = corpus_dir;
    sk_jobs = jobs;
    sk_minutes = minutes;
    sk_max_execs = max_execs;
    sk_seed_start = seed_start;
    sk_batch = batch;
    sk_mutants_per_round = mutants_per_round;
    sk_faults = faults;
    sk_repro_dir = repro_dir;
    sk_max_shrinks = max_shrinks;
  }

(* a candidate program headed for the whole safe matrix *)
type cand = {
  cd_id : string;  (** {!Corpus.id_of_sources} *)
  cd_origin : Corpus.origin;
  cd_seed : int;  (** root generator seed of the lineage *)
  cd_features : int list;
  cd_productions : string list;
  cd_sources : Bench.source list;
}

let short_id id = String.sub id 0 12

(* the benchmark a corpus candidate or entry runs as *)
let corpus_bench id sources =
  Oracle.bench_of_sources ~name:("ev-" ^ short_id id) sources

(* offspring larger than this (main-unit non-blank lines) are dropped
   before execution — bounds compounding growth across generations *)
let main_line_cap = 300

(* the report's corpus bookkeeping over [entries] *)
let corpus_stats (entries : Corpus.entry list) ~rounds ~execs =
  let seeded, spliced, grown =
    List.fold_left
      (fun (s, sp, g) (e : Corpus.entry) ->
        match e.Corpus.en_origin with
        | Corpus.Seeded _ -> (s + 1, sp, g)
        | Corpus.Spliced _ -> (s, sp + 1, g)
        | Corpus.Grown _ -> (s, sp, g + 1))
      (0, 0, 0) entries
  in
  Some
    {
      cs_entries = List.length entries;
      cs_seeded = seeded;
      cs_spliced = spliced;
      cs_grown = grown;
      cs_rounds = rounds;
      cs_execs = execs;
    }

(** Run one coverage-guided soak over the persistent corpus at
    [cfg.sk_corpus_dir], creating it if needed.

    Each round: the {!Sched} scheduler picks the highest-energy corpus
    entries as parents; every parent breeds one {!Gen.grow} offspring
    and one {!Gen.splice} offspring (donor: the next-ranked parent,
    wrapping — a lone entry splices with itself, which grafts a renamed
    copy of its own helper); the batch is topped up with fresh
    generator seeds boosted by the accrued per-feature scores.  Every
    candidate runs through the whole safe oracle matrix; candidates
    that are clean {e and} discover new coverage cells or grammar
    productions are admitted to the corpus (one content-addressed file
    each).  A few mutants derived from the round's fresh seed numbers
    (generated boost-free, so a block-mode [mifuzz] command reproduces
    them exactly) keep the detection oracle honest throughout the soak.

    All in-memory state — seen cells, per-feature scores, scheduler
    energies — is a pure function of the corpus entries in insertion
    order, and a small [state.json] checkpoint persists the seed / op /
    exec counters after every round, so a killed soak resumes where it
    left off: at most one round re-executes, and re-bred entries dedupe
    by content id.  Deadlines use {!Mi_support.Mclock} exclusively; a
    fixed [max_execs] budget (no deadline) is fully deterministic and
    independent of [sk_jobs]. *)
let soak_run (cfg : soak_config) : report =
  let dir = cfg.sk_corpus_dir in
  let h = session ~jobs:cfg.sk_jobs ~faults:cfg.sk_faults in
  (* --- resume: rebuild every bit of loop state from the corpus ------ *)
  let entries = ref (Corpus.load ~dir) in
  let sched = Sched.rebuild !entries in
  let seen = Hashtbl.create 1024 in
  let seen_prods = Hashtbl.create 64 in
  let scores = Array.make Gen.n_features 0 in
  let corpus_cov = Mi_obs.Coverage.create () in
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter (fun c -> Hashtbl.replace seen c ()) e.Corpus.en_cells;
      List.iter (fun p -> Hashtbl.replace seen_prods p ()) e.Corpus.en_productions;
      match e.Corpus.en_origin with
      | Corpus.Seeded _ ->
          List.iter
            (fun k -> scores.(k) <- scores.(k) + e.Corpus.en_fresh)
            e.Corpus.en_features
      | _ -> ())
    !entries;
  let st = Corpus.load_state ~dir in
  let next_ord =
    ref (List.fold_left (fun m (e : Corpus.entry) -> max m (e.Corpus.en_ord + 1))
           0 !entries)
  in
  let next_seed = ref (max cfg.sk_seed_start st.Corpus.st_next_seed) in
  let first_seed = !next_seed in
  let next_op = ref (max 1 st.Corpus.st_next_op) in
  let round = ref st.Corpus.st_round in
  let execs = ref st.Corpus.st_execs in
  let tried = Hashtbl.create 256 in
  List.iter
    (fun (e : Corpus.entry) -> Hashtbl.replace tried e.Corpus.en_id ())
    !entries;
  let safe_total = ref 0 in
  let findings = ref [] (* reversed *) in
  let mutant_results = ref [] (* reversed *) in
  let repro_q = ref [] (* see {!emit_repros}; reversed *) in
  let deadline =
    Option.map (fun m -> Mi_support.Mclock.deadline (m *. 60.)) cfg.sk_minutes
  in
  let stop () =
    (match cfg.sk_max_execs with Some cap -> !execs >= cap | None -> false)
    || match deadline with Some d -> Mi_support.Mclock.expired d | None -> false
  in
  let fresh_op () =
    let k = !next_op in
    incr next_op;
    k
  in
  (* run candidates through the whole safe matrix; judge; admit the
     clean ones that broke new ground *)
  let run_candidates (cands : cand list) =
    List.iter
      (fun (cd, fs, snaps) ->
        findings := List.rev_append fs !findings;
        match (fs, snaps) with
        | f :: _, _ ->
            repro_q :=
              ( Printf.sprintf "soak-%s-%s" (short_id cd.cd_id) f.Oracle.f_kind,
                Printf.sprintf "feed the .c files to mic (soak candidate %s%s)"
                  (short_id cd.cd_id)
                  (inject_arg cfg.sk_faults),
                f,
                safe_pred h f,
                cd.cd_sources )
              :: !repro_q
        | [], Some snaps ->
            let cells = Mi_obs.Coverage.cells_of snaps in
            let fresh = count_new_cells seen snaps in
            let new_prods =
              List.filter
                (fun p -> not (Hashtbl.mem seen_prods p))
                cd.cd_productions
            in
            List.iter (fun p -> Hashtbl.replace seen_prods p ()) new_prods;
            if fresh > 0 || new_prods <> [] then begin
              let e =
                {
                  Corpus.en_id = cd.cd_id;
                  en_ord = !next_ord;
                  en_round = !round;
                  en_origin = cd.cd_origin;
                  en_seed = cd.cd_seed;
                  en_features = cd.cd_features;
                  en_productions = cd.cd_productions;
                  en_cells = cells;
                  en_fresh = fresh;
                  en_fingerprint = Mi_obs.Coverage.fingerprint snaps;
                  en_sources = cd.cd_sources;
                }
              in
              incr next_ord;
              Corpus.save ~dir e;
              ignore (Sched.admit sched e);
              entries := !entries @ [ e ];
              Mi_obs.Coverage.merge corpus_cov
                (Mi_obs.Coverage.of_snapshots snaps);
              match cd.cd_origin with
              | Corpus.Seeded _ ->
                  List.iter
                    (fun k -> scores.(k) <- scores.(k) + fresh)
                    cd.cd_features
              | _ -> ()
            end
        | [], None -> ())
      (run_safe h
         ~bench_of:(fun cd -> corpus_bench cd.cd_id cd.cd_sources)
         ~seed_of:(fun cd -> cd.cd_seed)
         cands)
  in
  (* assemble one round's candidate batch: offspring of the scheduled
     parents first, then fresh boosted seeds *)
  let round_candidates () =
    let cands = ref [] in
    let push c = cands := c :: !cands in
    let parents = if !entries = [] then [] else Sched.pick sched !entries ~n:4 in
    let np = List.length parents in
    List.iteri
      (fun i (p : Corpus.entry) ->
        let op = fresh_op () in
        (match Gen.grow ~sources:p.Corpus.en_sources ~mseed:op with
        | Some srcs ->
            push
              {
                cd_id = Corpus.id_of_sources srcs;
                cd_origin = Corpus.Grown { gr_parent = p.Corpus.en_id; gr_op = op };
                cd_seed = p.Corpus.en_seed;
                cd_features = p.Corpus.en_features;
                cd_productions = p.Corpus.en_productions;
                cd_sources = srcs;
              }
        | None -> ());
        let donor = List.nth parents ((i + 1) mod np) in
        let op = fresh_op () in
        match
          Gen.splice ~acceptor:p.Corpus.en_sources ~donor:donor.Corpus.en_sources
            ~mseed:op
        with
        | Some srcs ->
            (* perturb the spliced offspring's control-flow geometry too:
               re-splicing one parent always inserts the same driver-loop
               shape, so without a grow pass the second splice of a
               lineage re-counts the first one's main cells *)
            let srcs =
              match Gen.grow ~sources:srcs ~mseed:op with
              | Some g -> g
              | None -> srcs
            in
            push
              {
                cd_id = Corpus.id_of_sources srcs;
                cd_origin =
                  Corpus.Spliced
                    {
                      sp_parent = p.Corpus.en_id;
                      sp_donor = donor.Corpus.en_id;
                      sp_op = op;
                    };
                cd_seed = p.Corpus.en_seed;
                cd_features = p.Corpus.en_features;
                cd_productions =
                  List.sort_uniq String.compare
                    (p.Corpus.en_productions @ donor.Corpus.en_productions);
                cd_sources = srcs;
              }
        | None -> ())
      parents;
    let n_fresh = max 1 (cfg.sk_batch - List.length !cands) in
    let boost = boost_of_scores scores in
    let fresh_seeds = seq !next_seed (!next_seed + n_fresh - 1) in
    next_seed := !next_seed + n_fresh;
    List.iter
      (fun s ->
        let p = Gen.generate ~boost ~seed:s () in
        push
          {
            cd_id = Corpus.id_of_sources p.Gen.p_sources;
            cd_origin = Corpus.Seeded s;
            cd_seed = s;
            cd_features = p.Gen.p_features;
            cd_productions = p.Gen.p_productions;
            cd_sources = p.Gen.p_sources;
          })
      fresh_seeds;
    (List.rev !cands, fresh_seeds)
  in
  (* trim a round's work list to the remaining exec budget, so a fixed
     [max_execs] is an exact execution count, not a round-granular one *)
  let within_budget already l =
    match cfg.sk_max_execs with
    | Some cap -> fst (split_at (max 0 (cap - !execs - already)) l)
    | None -> l
  in
  let do_round () =
    let raw_cands, fresh_seeds = round_candidates () in
    let cands =
      List.filter
        (fun cd ->
          main_lines cd.cd_sources <= main_line_cap
          && (not (Hashtbl.mem tried cd.cd_id))
          &&
          (Hashtbl.replace tried cd.cd_id ();
           true))
        raw_cands
    in
    let cands = within_budget 0 cands in
    run_candidates cands;
    safe_total := !safe_total + List.length cands;
    let mutants, repros =
      run_mutants h ~faults:cfg.sk_faults ~prefix:"soak-"
        (within_budget (List.length cands)
           (fst (split_at cfg.sk_mutants_per_round fresh_seeds)))
    in
    mutant_results := List.rev_append mutants !mutant_results;
    repro_q := List.rev_append repros !repro_q;
    execs := !execs + List.length cands + List.length mutants;
    Corpus.save_state ~dir
      {
        Corpus.st_next_seed = !next_seed;
        st_round = !round + 1;
        st_execs = !execs;
        st_next_op = !next_op;
      };
    Sched.decay sched;
    incr round
  in
  let one_shot = cfg.sk_minutes = None && cfg.sk_max_execs = None in
  let rec loop () =
    if not (stop ()) then begin
      do_round ();
      if not one_shot then loop ()
    end
  in
  loop ();
  let r_seed_lo, r_seed_hi =
    if !next_seed = first_seed then (cfg.sk_seed_start, cfg.sk_seed_start - 1)
    else (first_seed, !next_seed - 1)
  in
  let mutants = List.rev !mutant_results in
  let r_mutant_lo, r_mutant_hi =
    span ~empty:(0, -1)
      (List.map (fun (mr : Oracle.mutant_result) -> mr.Oracle.mr_seed) mutants)
  in
  let r_vm_blocks, r_vm_edges = vm_totals corpus_cov in
  {
    r_seed_lo;
    r_seed_hi;
    r_mutant_lo;
    r_mutant_hi;
    r_inject = Fault.to_string cfg.sk_faults;
    r_safe_total = !safe_total;
    r_findings = List.rev !findings;
    r_mutants = mutants;
    r_coverage =
      List.sort_uniq String.compare
        (Hashtbl.fold (fun p () acc -> p :: acc) seen_prods []);
    r_vm_blocks;
    r_vm_edges;
    r_cells = Hashtbl.length seen;
    r_boost = boost_of_scores scores;
    r_corpus = corpus_stats !entries ~rounds:!round ~execs:!execs;
    r_repros =
      emit_repros ~max_shrinks:cfg.sk_max_shrinks cfg.sk_repro_dir
        (List.rev !repro_q);
  }

(** Deterministically re-execute the persisted corpus: every entry (or
    just those whose content id starts with [entry]) runs through the
    whole safe matrix again, is re-judged, and its recomputed reference
    coverage fingerprint is compared against the one recorded at
    admission — a mismatch is reported as a ["fingerprint-mismatch"]
    finding.  The report is byte-identical for every [jobs] setting. *)
let replay ?(jobs = 1) ?(faults = Fault.none) ?entry ~dir () : report =
  let entries =
    List.filter
      (fun (e : Corpus.entry) ->
        match entry with
        | None -> true
        | Some prefix -> String.starts_with ~prefix e.Corpus.en_id)
      (Corpus.load ~dir)
  in
  let h = session ~jobs ~faults in
  let seen = Hashtbl.create 1024 in
  let corpus_cov = Mi_obs.Coverage.create () in
  let findings =
    List.concat_map
      (fun ((e : Corpus.entry), fs, snaps) ->
        match snaps with
        | None -> fs
        | Some snaps ->
            ignore (count_new_cells seen snaps);
            Mi_obs.Coverage.merge corpus_cov
              (Mi_obs.Coverage.of_snapshots snaps);
            let fp = Mi_obs.Coverage.fingerprint snaps in
            if fp = e.Corpus.en_fingerprint then fs
            else
              fs
              @ [
                  {
                    Oracle.f_seed = e.Corpus.en_seed;
                    f_setup = "O0";
                    f_kind = "fingerprint-mismatch";
                    f_detail =
                      Printf.sprintf
                        "entry %s: recorded fingerprint %s, replayed %s"
                        (short_id e.Corpus.en_id)
                        e.Corpus.en_fingerprint fp;
                  };
                ])
      (run_safe h
         ~bench_of:(fun (e : Corpus.entry) ->
           corpus_bench e.Corpus.en_id e.Corpus.en_sources)
         ~seed_of:(fun (e : Corpus.entry) -> e.Corpus.en_seed)
         entries)
  in
  let st = Corpus.load_state ~dir in
  let r_vm_blocks, r_vm_edges = vm_totals corpus_cov in
  let r_seed_lo, r_seed_hi =
    span ~empty:(0, -1)
      (List.filter_map
         (fun (e : Corpus.entry) ->
           match e.Corpus.en_origin with Corpus.Seeded s -> Some s | _ -> None)
         entries)
  in
  {
    r_seed_lo;
    r_seed_hi;
    r_mutant_lo = 0;
    r_mutant_hi = -1;
    r_inject = Fault.to_string faults;
    r_safe_total = List.length entries;
    r_findings = findings;
    r_mutants = [];
    r_coverage =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (e : Corpus.entry) -> e.Corpus.en_productions)
           entries);
    r_vm_blocks;
    r_vm_edges;
    r_cells = Hashtbl.length seen;
    r_boost = [];
    r_corpus =
      corpus_stats entries ~rounds:st.Corpus.st_round
        ~execs:st.Corpus.st_execs;
    r_repros = [];
  }


(* ------------------------------------------------------------------ *)
(* Aggregation and rendering                                           *)
(* ------------------------------------------------------------------ *)

let count_mutants (rs : Oracle.mutant_result list) =
  List.fold_left
    (fun acc (r : Oracle.mutant_result) ->
      List.fold_left
        (fun (k, w, m) (_, d) ->
          match d with
          | Oracle.Killed -> (k + 1, w, m)
          | Oracle.Whitelisted _ -> (k, w + 1, m)
          | Oracle.Missed _ -> (k, w, m + 1))
        acc r.Oracle.mr_detections)
    (0, 0, 0) rs

let missed_total r =
  let _, _, missed = count_mutants r.r_mutants in
  missed

let ok r = r.r_findings = [] && missed_total r = 0

let render (r : report) : string =
  let b = Buffer.create 512 in
  let killed, whitelisted, missed = count_mutants r.r_mutants in
  Printf.bprintf b "safe seeds %d..%d: %d programs, %d findings\n" r.r_seed_lo
    r.r_seed_hi r.r_safe_total (List.length r.r_findings);
  List.iter
    (fun f -> Printf.bprintf b "  %s\n" (Oracle.finding_to_string f))
    r.r_findings;
  if r.r_mutant_hi >= r.r_mutant_lo then begin
    Printf.bprintf b
      "unsafe mutants %d..%d: %d mutants, detections %d killed, %d \
       whitelisted, %d missed\n"
      r.r_mutant_lo r.r_mutant_hi (List.length r.r_mutants) killed whitelisted
      missed;
    List.iter
      (fun (m : Oracle.mutant_result) ->
        match m.Oracle.mr_findings with
        | [] -> ()
        | fs ->
            List.iter
              (fun f -> Printf.bprintf b "  %s\n" (Oracle.finding_to_string f))
              fs)
      r.r_mutants
  end;
  Printf.bprintf b "grammar coverage: %d/%d productions\n"
    (List.length r.r_coverage)
    (List.length Gen.all_productions);
  (let bh, bt = r.r_vm_blocks and eh, et = r.r_vm_edges in
   Printf.bprintf b "VM coverage: %d/%d blocks, %d/%d edges%s\n" bh bt eh et
     (match r.r_boost with
     | [] -> ""
     | ks ->
         Printf.sprintf " (boosted features: %s)"
           (String.concat "," (List.map string_of_int ks))));
  Printf.bprintf b "coverage cells: %d\n" r.r_cells;
  (match r.r_corpus with
  | None -> ()
  | Some c ->
      Printf.bprintf b
        "corpus: %d entries (%d seeded, %d spliced, %d grown), %d rounds, %d \
         execs\n"
        c.cs_entries c.cs_seeded c.cs_spliced c.cs_grown c.cs_rounds c.cs_execs);
  List.iter
    (fun (rp : repro) ->
      Printf.bprintf b "repro %s (%d lines%s): %s\n" rp.rp_slug rp.rp_lines
        (if rp.rp_shrunk then ", shrunk" else ", unshrunk")
        rp.rp_finding)
    r.r_repros;
  Buffer.contents b

let detection_json = function
  | Oracle.Killed -> Json.Str "killed"
  | Oracle.Whitelisted why -> Json.Obj [ ("whitelisted", Json.Str why) ]
  | Oracle.Missed detail -> Json.Obj [ ("missed", Json.Str detail) ]

let finding_json (f : Oracle.finding) =
  Json.Obj
    [
      ("seed", Json.Int f.Oracle.f_seed);
      ("setup", Json.Str f.Oracle.f_setup);
      ("kind", Json.Str f.Oracle.f_kind);
      ("detail", Json.Str f.Oracle.f_detail);
    ]

(** The machine-readable campaign report ([--out]).  Deterministic:
    byte-identical for every [-j] setting (no timestamps, no wall-clock
    data, no cache statistics — those may legitimately vary with
    parallelism). *)
let report_to_json (r : report) : Json.t =
  let killed, whitelisted, missed = count_mutants r.r_mutants in
  Json.Obj
    [
      ( "seeds",
        Json.Obj [ ("lo", Json.Int r.r_seed_lo); ("hi", Json.Int r.r_seed_hi) ]
      );
      ( "mutant_seeds",
        Json.Obj
          [ ("lo", Json.Int r.r_mutant_lo); ("hi", Json.Int r.r_mutant_hi) ] );
      ("inject", Json.Str r.r_inject);
      ("safe_programs", Json.Int r.r_safe_total);
      ("findings", Json.List (List.map finding_json r.r_findings));
      ( "mutants",
        Json.Obj
          [
            ("total", Json.Int (List.length r.r_mutants));
            ("killed", Json.Int killed);
            ("whitelisted", Json.Int whitelisted);
            ("missed", Json.Int missed);
            ( "cases",
              Json.List
                (List.map
                   (fun (m : Oracle.mutant_result) ->
                     Json.Obj
                       (("name", Json.Str m.Oracle.mr_name)
                       :: List.map
                            (fun (tag, d) -> (tag, detection_json d))
                            m.Oracle.mr_detections))
                   r.r_mutants) );
          ] );
      ("coverage", Json.List (List.map (fun p -> Json.Str p) r.r_coverage));
      ( "vm_coverage",
        Json.Obj
          [
            ("blocks_hit", Json.Int (fst r.r_vm_blocks));
            ("blocks_total", Json.Int (snd r.r_vm_blocks));
            ("edges_hit", Json.Int (fst r.r_vm_edges));
            ("edges_total", Json.Int (snd r.r_vm_edges));
            ("cells", Json.Int r.r_cells);
            ("boost", Json.List (List.map (fun k -> Json.Int k) r.r_boost));
          ] );
      ( "corpus",
        match r.r_corpus with
        | None -> Json.Null
        | Some c ->
            Json.Obj
              [
                ("entries", Json.Int c.cs_entries);
                ("seeded", Json.Int c.cs_seeded);
                ("spliced", Json.Int c.cs_spliced);
                ("grown", Json.Int c.cs_grown);
                ("rounds", Json.Int c.cs_rounds);
                ("execs", Json.Int c.cs_execs);
              ] );
      ( "repros",
        Json.List
          (List.map
             (fun rp ->
               Json.Obj
                 [
                   ("slug", Json.Str rp.rp_slug);
                   ("finding", Json.Str rp.rp_finding);
                   ("lines", Json.Int rp.rp_lines);
                   ("shrunk", Json.Bool rp.rp_shrunk);
                 ])
             r.r_repros) );
    ]

(* ------------------------------------------------------------------ *)
(* Experiment registration                                             *)
(* ------------------------------------------------------------------ *)

module Experiments = Mi_bench_kit.Experiments

(* fail experiment [name] unless its campaign held the oracle *)
let require_ok name r =
  if not (ok r) then
    raise
      (Harness.Benchmark_failed
         ( name,
           Printf.sprintf "%d oracle findings, %d missed mutant detections\n%s"
             (List.length r.r_findings) (missed_total r) (render r) ))

(** Register the [fuzz] experiment: a compact always-on differential
    campaign (it must stay cheap enough for [mi-experiments --all]; the
    CI fuzz gate runs the full-size campaign through [mifuzz]).  Call
    once from executables that want it in the registry — the fuzz
    library registers nothing on its own because [mi_bench_kit] cannot
    depend back on it. *)
let register_experiment () =
  Experiments.register
    {
      Experiments.name = "fuzz";
      aliases = [ "differential" ];
      descr = "differential fuzzing: safe seeds + unsafe mutants (oracle)";
      setups = (fun _ -> []);
      reduce =
        (fun _lookup _benchmarks ->
          let c =
            campaign ~jobs:(Harness.default_jobs ()) ~seeds:(1, 48)
              ~mutants:(1, 16) ()
          in
          let r = run c in
          require_ok "fuzz" r;
          let killed, whitelisted, missed = count_mutants r.r_mutants in
          {
            Experiments.title =
              "Differential fuzzing: full-surface generator vs the oracle \
               matrix";
            text = render r;
            series =
              [
                {
                  Experiments.label = "fuzz";
                  points =
                    [
                      ("safe", float_of_int r.r_safe_total);
                      ("findings", float_of_int (List.length r.r_findings));
                      ("mutants", float_of_int (List.length r.r_mutants));
                      ("killed", float_of_int killed);
                      ("whitelisted", float_of_int whitelisted);
                      ("missed", float_of_int missed);
                      ( "coverage",
                        float_of_int (List.length r.r_coverage) );
                      ("vm_blocks", float_of_int (fst r.r_vm_blocks));
                      ("vm_edges", float_of_int (fst r.r_vm_edges));
                    ];
                };
              ];
          });
    }

(** Register the [fuzz-soak] experiment: a compact coverage-guided
    evolutionary soak over a throwaway corpus (fixed exec budget, so the
    result is deterministic; the CI soak gate runs the wall-clock
    variant through [mifuzz --minutes]).  The corpus directory is
    deleted afterwards — persistence is exercised by the corpus tests
    and the CI gates, not by the always-on experiment. *)
let register_soak_experiment () =
  Experiments.register
    {
      Experiments.name = "fuzz-soak";
      aliases = [ "soak" ];
      descr = "coverage-guided evolutionary fuzzing over a persistent corpus";
      setups = (fun _ -> []);
      reduce =
        (fun _lookup _benchmarks ->
          let dir =
            let f = Filename.temp_file "mi-fuzz-soak" "" in
            Sys.remove f;
            Sys.mkdir f 0o755;
            f
          in
          let cfg =
            soak_config ~jobs:(Harness.default_jobs ()) ~max_execs:24
              ~corpus_dir:dir ()
          in
          let r = soak_run cfg in
          let stats =
            match r.r_corpus with
            | Some c -> c
            | None -> assert false
          in
          Corpus.reset ~dir;
          (try Sys.rmdir dir with _ -> ());
          require_ok "fuzz-soak" r;
          if stats.cs_spliced + stats.cs_grown = 0 then
            raise
              (Harness.Benchmark_failed
                 ( "fuzz-soak",
                   "evolution stalled: no spliced or grown offspring was \
                    admitted\n" ^ render r ));
          {
            Experiments.title =
              "Coverage-guided soak: evolutionary corpus vs the oracle matrix";
            text = render r;
            series =
              [
                {
                  Experiments.label = "fuzz-soak";
                  points =
                    [
                      ("entries", float_of_int stats.cs_entries);
                      ("seeded", float_of_int stats.cs_seeded);
                      ("spliced", float_of_int stats.cs_spliced);
                      ("grown", float_of_int stats.cs_grown);
                      ("rounds", float_of_int stats.cs_rounds);
                      ("execs", float_of_int stats.cs_execs);
                      ("cells", float_of_int r.r_cells);
                      ("findings", float_of_int (List.length r.r_findings));
                      ("missed", float_of_int (missed_total r));
                    ];
                };
              ];
          });
    }
