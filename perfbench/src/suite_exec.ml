(** suite-exec: the paper's evaluation.  The 20 suite programs under
    uninstrumented [-O3], SoftBound, Low-Fat, temporal, and SoftBound and
    Low-Fat with every check-elimination pass ({!Mi_core.Config.optimized_full}),
    120 jobs through one harness session at [-j 1] with a cold cache,
    each checked with [Harness.check_run].  VM execution dominates, so VM,
    runtime and check-elimination changes show here and frontend or pass
    changes do not. *)

open Common
module Bench = Mi_bench_kit.Bench
module Config = Mi_core.Config

let configs : (string * Config.t option) list =
  [
    ("base", None);
    ("sb", Some Config.softbound);
    ("lf", Some Config.lowfat);
    ("tp", Some (Config.of_approach "temporal"));
    ("sb_opt", Some (Config.optimized_full Config.softbound));
    ("lf_opt", Some (Config.optimized_full Config.lowfat));
  ]

let setup_of = function None -> H.baseline | Some c -> H.with_config c H.baseline

type job = { tag : string; setup : H.setup; bench : Bench.t }

(** The job list: every program under every configuration, program by
    program.  The suite is fixed input, so the seed does not change it. *)
let prepare ~programs : job array =
  let benches = List.filteri (fun i _ -> i < programs) Mi_bench_kit.Suite.all in
  Array.of_list
    (List.concat_map
       (fun b -> List.map (fun (tag, c) -> { tag; setup = setup_of c; bench = b }) configs)
       benches)

(* geomean over programs of cycles(tag) / cycles(base) *)
let overheads (jobs : job array) (cycles : int option array) =
  let base = Hashtbl.create 32 in
  Array.iteri
    (fun i j ->
      match cycles.(i) with
      | Some c when j.tag = "base" -> Hashtbl.replace base j.bench.Bench.name c
      | _ -> ())
    jobs;
  List.filter_map
    (fun (tag, _) ->
      if tag = "base" then None
      else
        let ratios = ref [] in
        Array.iteri
          (fun i j ->
            match (cycles.(i), Hashtbl.find_opt base j.bench.Bench.name) with
            | Some c, Some b when j.tag = tag ->
                ratios := (float c /. float b) :: !ratios
            | _ -> ())
          jobs;
        Some (m ("overhead_" ^ tag) "x" (geomean !ratios)))
    configs

type pass = {
  wall : float;  (** wall time of the block *)
  cpu : float;  (** process CPU time of the block *)
  item_s : float array;
  digests : digest array;
  counts : counts;
  cycles : int option array;
  cache : H.cache_stats;
}

(* the untraced path: Harness.run + Harness.check_run per job *)
let run_harness v (jobs : job array) : pass =
  let h = H.create ~jobs:1 () in
  let c = counts () in
  let n = Array.length jobs in
  let item_s = Array.make n 0. in
  let cycles = Array.make n None in
  let digests = ref [] in
  let t0 = Mclock.now () and c0 = Sys.time () in
  Array.iteri
    (fun i j ->
      let ts = Sys.time () in
      let res = H.run h j.setup j.bench in
      let what = Printf.sprintf "%s %s" j.bench.Bench.name j.tag in
      (match res with
      | Error e -> failed_op v (what ^ ": " ^ e.H.reason)
      | Ok r -> (
          match H.check_run j.bench r with
          | Ok r ->
              cycles.(i) <- Some r.cycles;
              digests := digest r :: !digests
          | Error e -> fail v (what ^ ": " ^ e.H.reason)));
      add_result c j.setup res;
      item_s.(i) <- Sys.time () -. ts)
    jobs;
  { wall = Mclock.now () -. t0; cpu = Sys.time () -. c0; item_s;
    digests = Array.of_list (List.rev !digests); counts = c; cycles;
    cache = H.cache_stats h }

let end_to_end (jobs : job array) (p : pass) =
  let ok = Array.length p.digests in
  [
    m "items_per_s" "1/s" (float ok /. p.cpu);
  ]
  @ overheads jobs p.cycles

(* the traced path: the replica, with check_run under a judge span *)
let run_traced ~programs =
  let sp = Span.create () in
  let r = Replica.create sp in
  let c = counts () in
  let digests = ref [] in
  let t0 = Mclock.now () in
  let jobs = Span.with_ sp ~layer:"fuzz.gen" "prepare" (fun () -> prepare ~programs) in
  Array.iteri
    (fun i j ->
      Span.set_item sp i;
      Span.with_ sp ~layer:"item" "job" (fun () ->
          match Replica.run_job r j.setup j.bench with
          | exception _ ->
              (* a failed job leaves no digest; compare_digests tells
                 whether the harness path failed it too *)
              ()
          | run -> (
              add_run c j.setup run;
              match
                Span.with_ sp ~layer:"judge" "Harness.check_run" (fun () ->
                    H.check_run j.bench run)
              with
              | Ok run -> digests := digest run :: !digests
              | Error _ -> ())))
    jobs;
  let wall = Mclock.now () -. t0 in
  (sp, r, c, Array.of_list (List.rev !digests), wall)

let run ~trace ~programs (jobs : job array) : result =
  let v = verdicts () in
  let p = run_harness v jobs in
  let metrics =
    if not trace then end_to_end jobs p
    else begin
      Gc.compact ();
      let sp, r, c, digests, wall = run_traced ~programs in
      compare_digests v ~what:"suite-exec traced" p.digests digests;
      compare_counts v ~what:"suite-exec traced" p.counts c;
      if Replica.cache_stats r <> p.cache then
        fail v "suite-exec traced: icache hits/misses differ from Harness.cache_stats";
      layer_metrics sp c ~src_bytes:r.Replica.src_bytes ~wall ~untraced:p.wall
      @ cache_metrics p.cache
      @ [ m "fuzz.findings" "count" 0.; m "fuzz.missed" "count" 0.;
          m "fuzz.cells" "count" 0. ]
      @ no_server @ item_quarters p.item_s
    end
  in
  {
    correct = v.wrong = 0;
    attempted = Array.length jobs;
    failed = Array.length jobs - Array.length p.digests;
    metrics;
    errors = errors v;
    extra =
      [ ("counts", Json.Obj (List.map (fun (k, x) -> (k, Json.Int x)) (count_fields p.counts)));
        ("item_ms_quarters",
         Json.List (Array.to_list (Array.map (fun x -> Json.Float (x *. 1000.))
                                     (quarter_means p.item_s)))) ];
  }
