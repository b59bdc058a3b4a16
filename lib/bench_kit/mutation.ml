(** Mutation testing of the safety guarantee (the paper's RQ3 angle):
    delete individual inserted checks and demand that the safety corpus
    notices.

    A mutant is one access check (identified by approach, corpus
    {!Safety_corpus.family} and per-function check ordinal) deleted via
    a {!Mi_faultkit.Fault} plan threaded into {!Mi_core.Instrument}.
    The corpus kinds of the mutant's family are the killing suite: the
    mutant is {e killed} when some kind's violation verdict flips
    against the unmutated baseline — i.e. the deleted check was the one
    reporting (or its deletion let a violation corrupt the run).

    A mutant that survives is only acceptable when its check site can
    provably never report: every dynamic execution of the site carried
    wide bounds, or the site is never reached by any kind.  Such
    mutants are {e whitelisted} with a written justification; anything
    else counts as a genuine hole in the guarantee and fails the
    campaign's consumers (the [mutation] experiment exits nonzero). *)

module Checker = Mi_core.Checker
module Config = Mi_core.Config
module Fault = Mi_faultkit.Fault

type verdict = Violation | Clean | Abnormal of string

let verdict_of_outcome = function
  | Mi_vm.Interp.Safety_violation _ -> Violation
  | Mi_vm.Interp.Exited _ -> Clean
  | Mi_vm.Interp.Trapped msg -> Abnormal ("trap: " ^ msg)
  | Mi_vm.Interp.Exhausted _ -> Abnormal "fuel exhausted"

let is_violation = function Violation -> true | Clean | Abnormal _ -> false

type mutant = {
  mu_approach : Config.approach;
  mu_family : Safety_corpus.family;
  mu_ordinal : int;  (** per-function check ordinal in [main] *)
}

let mutant_name m =
  Printf.sprintf "%s/%s/check%d"
    (Config.approach_name m.mu_approach)
    (Safety_corpus.family_name m.mu_family)
    m.mu_ordinal

type status =
  | Killed of Safety_corpus.kind  (** the kind whose verdict flipped *)
  | Whitelisted of string  (** justification: why it can never report *)
  | Survived  (** a genuine hole: no kill, no wide-bounds excuse *)

type outcome = { mutant : mutant; status : status }

type campaign = {
  results : outcome list;
  total : int;
  killed : int;
  whitelisted : int;
  survived : int;
}

(* Try killing kinds in the order most likely to flip, so the common
   case stops after one mutant run: each of the three access-check
   ordinals in a corpus [main] (init store, body access, trailing print
   load) is the reporting site of one of the first three kinds. *)
let spatial_kill_order =
  Safety_corpus.
    [
      Init_oob; Past_class; Tail_oob; Just_past; Underflow_one; Underflow_far;
      Cross_end_width; Last_elem; In_bounds;
    ]

(* A checker that guarantees a temporal hazard has its mutants killed by
   the temporal kinds (one per access-check ordinal, by construction of
   the corpus).  The spatial kinds stay in its list as wide/unreached
   evidence for families without temporal kinds (globals are untracked:
   every check is wide).  The other checkers keep the spatial list —
   temporal kinds cannot flip them. *)
let kill_order_for approach (fam : Safety_corpus.family) =
  let c = Checker.find_exn approach in
  if List.exists Checker.is_temporal c.Checker.guarantees then
    Safety_corpus.temporal_kinds_for fam.Safety_corpus.fam_region
    @ spatial_kill_order
  else spatial_kill_order

let run_case ?(faults = Fault.none) ?(setup_of = Safety_corpus.setup) approach
    (fam : Safety_corpus.family) kind : Harness.run =
  let src =
    Safety_corpus.program fam.Safety_corpus.fam_region
      fam.Safety_corpus.fam_elem fam.Safety_corpus.fam_access kind
  in
  Harness.run_sources ~faults (setup_of approach) [ Bench.src "t" src ]

(* The site snapshot of the mutant ordinal's check: the n-th site of
   [main] whose construct is an access check, in id order — the same
   order ordinals are assigned in. *)
let access_site ordinal (profile : Mi_obs.Site.snapshot list) =
  let is_access (s : Mi_obs.Site.snapshot) =
    s.Mi_obs.Site.sn_func = "main"
    && (String.starts_with ~prefix:"load@" s.Mi_obs.Site.sn_construct
       || String.starts_with ~prefix:"store@" s.Mi_obs.Site.sn_construct)
  in
  List.nth_opt (List.filter is_access profile) ordinal

(** Check ordinals available for mutation in a family's [main]: the
    number of access checks the unmutated compile places.  Every corpus
    kind of a family compiles [main] with the same access structure, so
    any kind works as the probe. *)
let ordinals ?setup_of approach (fam : Safety_corpus.family) : int =
  let r = run_case ?setup_of approach fam Safety_corpus.In_bounds in
  List.fold_left
    (fun a (s : Mi_core.Instrument.mod_stats) ->
      a + s.Mi_core.Instrument.total_checks_placed)
    0 r.Harness.static_stats

(** All mutants of the full (approach x family x ordinal) space, over
    every approach in the checker registry. *)
let all_mutants ?setup_of () : mutant list =
  List.concat_map
    (fun mu_approach ->
      List.concat_map
        (fun mu_family ->
          List.init
            (ordinals ?setup_of mu_approach mu_family)
            (fun mu_ordinal -> { mu_approach; mu_family; mu_ordinal }))
        Safety_corpus.families)
    (Config.known_approaches ())

(* Judge one mutant.  [baseline] memoizes unmutated runs per kind. *)
let judge ?setup_of baseline (m : mutant) : status =
  let faults =
    {
      Fault.none with
      Fault.checks =
        [
          {
            Fault.cm_action = Fault.Delete;
            cm_ordinal = m.mu_ordinal;
            cm_func = Some "main";
          };
        ];
    }
  in
  let rec try_kinds wide_evidence = function
    | [] ->
        (* no kind flipped: acceptable only with a wide-bounds or
           never-reached excuse for every kind *)
        let reached = List.filter (fun (_, hits, _) -> hits > 0) wide_evidence in
        if reached = [] then
          Whitelisted
            (Printf.sprintf
               "site unreached: check %d of main never executes in any corpus \
                kind"
               m.mu_ordinal)
        else if List.for_all (fun (_, hits, wide) -> wide = hits) reached then
          Whitelisted
            (Printf.sprintf
               "wide-bounds site: all %d executions of check %d carry wide \
                bounds (cannot report by construction)"
               (List.fold_left (fun a (_, h, _) -> a + h) 0 reached)
               m.mu_ordinal)
        else Survived
    | kind :: rest ->
        let base : Harness.run = baseline (m.mu_approach, m.mu_family, kind) in
        let base_v = verdict_of_outcome base.Harness.outcome in
        let mut = run_case ~faults ?setup_of m.mu_approach m.mu_family kind in
        let mut_v = verdict_of_outcome mut.Harness.outcome in
        if is_violation base_v <> is_violation mut_v then Killed kind
        else
          let ev =
            match access_site m.mu_ordinal base.Harness.profile with
            | Some s -> (kind, s.Mi_obs.Site.sn_hits, s.Mi_obs.Site.sn_wide)
            | None -> (kind, 0, 0)
          in
          try_kinds (ev :: wide_evidence) rest
  in
  try_kinds [] (kill_order_for m.mu_approach m.mu_family)

(** Run a campaign.  [sample_per_approach] bounds the mutants judged
    per approach (seeded Fisher-Yates sample over the full space, so
    the same [seed] always judges the same mutants); omit it to judge
    every mutant. *)
let run ?(seed = 0xC0FFEE) ?sample_per_approach ?setup_of () : campaign =
  let mutants = all_mutants ?setup_of () in
  let mutants =
    match sample_per_approach with
    | None -> mutants
    | Some k ->
        let rng = Mi_support.Rng.create seed in
        List.concat_map
          (fun approach ->
            let pool =
              Array.of_list
                (List.filter (fun m -> m.mu_approach = approach) mutants)
            in
            Mi_support.Rng.shuffle rng pool;
            Array.to_list (Array.sub pool 0 (min k (Array.length pool))))
          (Config.known_approaches ())
  in
  let baseline_tbl = Hashtbl.create 64 in
  let baseline key =
    match Hashtbl.find_opt baseline_tbl key with
    | Some r -> r
    | None ->
        let approach, fam, kind = key in
        let r = run_case ?setup_of approach fam kind in
        Hashtbl.add baseline_tbl key r;
        r
  in
  let results =
    List.map
      (fun m -> { mutant = m; status = judge ?setup_of baseline m })
      mutants
  in
  let count p = List.length (List.filter p results) in
  {
    results;
    total = List.length results;
    killed = count (fun r -> match r.status with Killed _ -> true | _ -> false);
    whitelisted =
      count (fun r ->
          match r.status with Whitelisted _ -> true | _ -> false);
    survived = count (fun r -> r.status = Survived);
  }

let render (c : campaign) : string =
  let tbl =
    Mi_support.Table.create
      ~aligns:[ Mi_support.Table.Left; Left; Left ]
      [ "mutant"; "status"; "detail" ]
  in
  List.iter
    (fun r ->
      let status, detail =
        match r.status with
        | Killed kind -> ("killed", "by " ^ Safety_corpus.kind_name kind)
        | Whitelisted why -> ("whitelisted", why)
        | Survived -> ("SURVIVED", "guarantee hole: no corpus kind notices")
      in
      Mi_support.Table.add_row tbl [ mutant_name r.mutant; status; detail ])
    c.results;
  Mi_support.Table.render tbl
  ^ Printf.sprintf "\nmutants: %d  killed: %d  whitelisted: %d  survivors: %d\n"
      c.total c.killed c.whitelisted c.survived
