(** fuzz-matrix: a fixed block of generated programs judged the way
    [mifuzz] judges them — one harness session with coverage on, at
    [-j 1]; every program through the 17-job safe oracle matrix, one
    spatial mutant ([Gen.mutate]) and, where the program frees memory,
    one temporal mutant ([Gen.mutate_temporal]) through the 5-job mutant
    matrix.  Compile dominates here and VM execution is small, the
    mirror image of suite-exec; mutants take the report-and-abort path,
    and the session's growth shows. *)

open Common
module Gen = Mi_fuzz.Gen
module Oracle = Mi_fuzz.Oracle
module Coverage = Mi_obs.Coverage

type item = Safe of Gen.prog | Mutant of Gen.mutant

(* program seeds of one workload seed: a block no other workload seed
   shares *)
let prog_seed ~seed k = (seed * 100_003) + k

let gen_items ?(span = Span.untimed) ~seed ~programs () : item list =
  List.concat
    (List.init programs (fun k ->
         let s = prog_seed ~seed (k + 1) in
         let p = span.run "Gen.generate" (fun () -> Gen.generate ~seed:s ()) in
         let spatial = span.run "Gen.mutate" (fun () -> Gen.mutate p ~mseed:0) in
         let temporal =
           span.run "Gen.mutate_temporal" (fun () -> Gen.mutate_temporal p ~mseed:s)
         in
         (Safe p :: [ Mutant spatial ])
         @ match temporal with Some t -> [ Mutant t ] | None -> []))

let jobs_of = function
  | Safe p -> Oracle.safe_jobs p
  | Mutant mu -> Oracle.mutant_jobs mu

let overhead_tags =
  [ ("sb", "O3+sb"); ("lf", "O3+lf"); ("tp", "O3+tp");
    ("sb_opt", "O3+sb+checkopt"); ("lf_opt", "O3+lf+checkopt") ]

let safe_tags = "O0" :: List.map fst Oracle.variants

(* per-program cycle ratios against the O3 baseline of the safe matrix *)
let add_ratios ratios results =
  let tagged = List.combine safe_tags results in
  match List.assoc "O3" tagged with
  | Ok base ->
      List.iter
        (fun (name, tag) ->
          match List.assoc tag tagged with
          | Ok r ->
              Hashtbl.replace ratios name
                ((float r.H.cycles /. float base.H.cycles)
                 :: Option.value ~default:[] (Hashtbl.find_opt ratios name))
          | Error _ -> ())
        overhead_tags
  | Error _ -> ()

(** Judgement of one item: findings and missed-violation counts, and the
    coverage cells its reference run found first. *)
type judged = { findings : int; missed : int; cells : int; first : string option }

let judge ~seen item results =
  match item with
  | Safe p ->
      let findings = Oracle.judge_safe p results in
      let cells =
        match results with
        | Ok ref_run :: _ ->
            List.fold_left
              (fun acc s ->
                List.fold_left
                  (fun acc k ->
                    if Hashtbl.mem seen k then acc
                    else begin
                      Hashtbl.replace seen k ();
                      acc + 1
                    end)
                  acc (Coverage.cell_keys s))
              0 ref_run.H.coverage
        | _ -> 0
      in
      { findings = List.length findings; missed = 0; cells;
        first = Option.map Oracle.finding_to_string (List.nth_opt findings 0) }
  | Mutant mu ->
      let mr = Oracle.judge_mutant mu results in
      { findings = 0; missed = List.length mr.Oracle.mr_findings; cells = 0;
        first = Option.map Oracle.finding_to_string (List.nth_opt mr.Oracle.mr_findings 0) }

(* A job that did not compile or link fails its whole item: the matrix
   cannot be judged without it. *)
let compile_failure results =
  List.find_map (function Error e -> Some e.H.reason | Ok _ -> None) results

let describe = function
  | Safe p -> Printf.sprintf "program %d" p.Gen.p_seed
  | Mutant mu -> Gen.mutant_name mu

let report_judged v item j =
  let first = Option.value ~default:"" j.first in
  if j.findings > 0 then
    fail v (Printf.sprintf "%s: %d oracle findings, first: %s" (describe item) j.findings first);
  if j.missed > 0 then
    fail v (Printf.sprintf "%s: %d missed violations, first: %s" (describe item) j.missed first)

type pass = {
  wall : float;  (** wall time of the block *)
  cpu : float;  (** process CPU time of the block *)
  item_s : float array;
  digests : digest array;
  counts : counts;
  judged : judged;  (** summed *)
  failed_items : int;
  ratios : (string, float list) Hashtbl.t;
  cache : H.cache_stats;
}

let add_judged a b =
  { findings = a.findings + b.findings; missed = a.missed + b.missed;
    cells = a.cells + b.cells;
    first = (match a.first with Some _ -> a.first | None -> b.first) }

let zero = { findings = 0; missed = 0; cells = 0; first = None }

let collect_digests acc results =
  List.iter (function Ok r -> acc := digest r :: !acc | Error _ -> ()) results

(* the untraced path: one session, one run_jobs matrix per item *)
let run_harness v (items : item array) : pass =
  let h = H.create ~jobs:1 ~obs:(Mi_obs.Obs.create ~coverage:true ()) () in
  let c = counts () in
  let seen = Hashtbl.create 4096 in
  let ratios = Hashtbl.create 8 in
  let n = Array.length items in
  let item_s = Array.make n 0. in
  let digests = ref [] in
  let total = ref zero and failed_items = ref 0 in
  let t0 = Mclock.now () and c0 = Sys.time () in
  Array.iteri
    (fun i item ->
      let ts = Sys.time () in
      let jobs = jobs_of item in
      let results = H.run_jobs h jobs in
      List.iter2 (fun (s, _) r -> add_result c s r) jobs results;
      collect_digests digests results;
      (match compile_failure results with
      | Some reason ->
          failed_op v (describe item ^ ": " ^ reason);
          incr failed_items
      | None ->
          let j = judge ~seen item results in
          (match item with Safe _ -> add_ratios ratios results | Mutant _ -> ());
          report_judged v item j;
          if j.findings + j.missed > 0 then incr failed_items;
          total := add_judged !total j);
      item_s.(i) <- Sys.time () -. ts)
    items;
  { wall = Mclock.now () -. t0; cpu = Sys.time () -. c0; item_s;
    digests = Array.of_list (List.rev !digests); counts = c; judged = !total;
    failed_items = !failed_items; ratios; cache = H.cache_stats h }

let end_to_end (items : item array) (p : pass) =
  [
    m "items_per_s" "1/s"
      (float (Array.length items - p.failed_items) /. p.cpu);
  ]
  @ List.map
      (fun (name, _) ->
        m ("overhead_" ^ name) "x"
          (geomean (Option.value ~default:[] (Hashtbl.find_opt p.ratios name))))
      overhead_tags

(* the traced path: generation, the replica and the oracle, each in
   spans *)
let run_traced ~seed ~programs =
  let sp = Span.create () in
  let r = Replica.create ~coverage:true sp in
  let c = counts () in
  let seen = Hashtbl.create 4096 in
  let digests = ref [] in
  let total = ref zero in
  let t0 = Mclock.now () in
  let items =
    gen_items ~span:(Span.in_layer sp "fuzz.gen")
      ~seed ~programs ()
  in
  List.iteri
    (fun i item ->
      Span.set_item sp i;
      Span.with_ sp ~layer:"item" "item" (fun () ->
          let jobs = jobs_of item in
          let results =
            List.map
              (fun (s, (b : Mi_bench_kit.Bench.t)) ->
                match Replica.run_job r s b with
                | run -> Ok run
                | exception e ->
                    Error { H.bench = b.name; reason = Printexc.to_string e })
              jobs
          in
          List.iter2 (fun (s, _) r -> add_result c s r) jobs results;
          collect_digests digests results;
          if compile_failure results = None then
            let j =
              Span.with_ sp ~layer:"judge" "Oracle.judge" (fun () ->
                  judge ~seen item results)
            in
            total := add_judged !total j))
    items;
  let wall = Mclock.now () -. t0 in
  (sp, r, c, Array.of_list (List.rev !digests), !total, wall)

let run ~trace ~seed ~programs (items : item array) : result =
  let v = verdicts () in
  let p = run_harness v items in
  let metrics =
    if not trace then end_to_end items p
    else begin
      Gc.compact ();
      let sp, r, c, digests, j, wall = run_traced ~seed ~programs in
      compare_digests v ~what:"fuzz-matrix traced" p.digests digests;
      compare_counts v ~what:"fuzz-matrix traced" p.counts c;
      if Replica.cache_stats r <> p.cache then
        fail v "fuzz-matrix traced: icache hits/misses differ from Harness.cache_stats";
      if j <> p.judged then
        fail v "fuzz-matrix traced: findings, missed or cells differ";
      (* generation is set-up in the untraced run, so the overhead
         comparison leaves it out of the traced time *)
      let gen_s =
        Option.value ~default:0.
          (List.assoc_opt "fuzz.gen" (Span.self_by_layer sp))
      in
      layer_metrics sp c ~src_bytes:r.Replica.src_bytes ~wall
        ~untraced:(p.wall +. gen_s)
      @ cache_metrics p.cache
      @ [ m "fuzz.findings" "count" (float p.judged.findings);
          m "fuzz.missed" "count" (float p.judged.missed);
          m "fuzz.cells" "count" (float p.judged.cells) ]
      @ no_server @ item_quarters p.item_s
    end
  in
  {
    correct = v.wrong = 0;
    attempted = Array.length items;
    failed = p.failed_items;
    metrics;
    errors = errors v;
    extra =
      [ ("programs", Json.Int programs);
        ("counts", Json.Obj (List.map (fun (k, x) -> (k, Json.Int x)) (count_fields p.counts)));
        ("item_ms_quarters",
         Json.List (Array.to_list (Array.map (fun x -> Json.Float (x *. 1000.))
                                     (quarter_means p.item_s)))) ];
  }
