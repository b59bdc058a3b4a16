(* The pluggable checker registry (Mi_core.Checker) and its coupling to
   the configuration-basis registry (Mi_core.Config): round-trips, alias
   resolution, the unknown-name error contract, registry-driven
   experiment matrices, and the enumeration narrowing behind
   mi-experiments --approach. *)

module Checker = Mi_core.Checker
module Config = Mi_core.Config
module E = Mi_bench_kit.Experiments
module Harness = Mi_bench_kit.Harness

let test_known_names () =
  Alcotest.(check (list string))
    "registration order" [ "softbound"; "lowfat"; "temporal" ]
    (Checker.known_names ());
  Alcotest.(check (list string))
    "config registry agrees"
    (Checker.known_names ())
    (Config.known_approaches ())

let test_roundtrip () =
  List.iter
    (fun (c : Checker.t) ->
      (match Checker.find c.Checker.name with
      | Some c' ->
          Alcotest.(check string)
            ("find " ^ c.Checker.name) c.Checker.name c'.Checker.name
      | None -> Alcotest.failf "find %s returned None" c.Checker.name);
      Alcotest.(check string)
        ("basis name matches " ^ c.Checker.name)
        c.Checker.name c.Checker.basis.Config.approach;
      Alcotest.(check string)
        ("config round-trip " ^ c.Checker.name)
        c.Checker.name
        (Config.of_approach c.Checker.name).Config.approach;
      Alcotest.(check string)
        ("approach_name is identity on " ^ c.Checker.name)
        c.Checker.name
        (Config.approach_name c.Checker.basis.Config.approach))
    (Checker.all ())

let test_aliases () =
  let resolves alias expect =
    (match Checker.find alias with
    | Some c -> Alcotest.(check string) ("alias " ^ alias) expect c.Checker.name
    | None -> Alcotest.failf "alias %s did not resolve" alias);
    Alcotest.(check string)
      ("config alias " ^ alias)
      expect
      (Config.of_approach alias).Config.approach
  in
  resolves "sb" "softbound";
  resolves "lf" "lowfat";
  resolves "tp" "temporal";
  resolves "cets" "temporal";
  (* lookups are case-insensitive *)
  resolves "SoftBound" "softbound";
  resolves "TEMPORAL" "temporal"

(* an unknown name raises Invalid_argument whose message names every
   registered checker — the contract the CLIs' error paths rely on *)
let test_unknown_name_contract () =
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  let mentions_all msg =
    List.for_all (contains msg) (Checker.known_names ())
  in
  (match Checker.find "asan" with
  | None -> ()
  | Some _ -> Alcotest.fail "find of unknown name returned a checker");
  (match Checker.find_exn "asan" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "find_exn names known checkers" true
        (mentions_all msg)
  | _ -> Alcotest.fail "find_exn of unknown name did not raise");
  match Config.of_approach "asan" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "of_approach names known approaches" true
        (mentions_all msg)
  | _ -> Alcotest.fail "of_approach of unknown name did not raise"

let test_checker_shape () =
  List.iter
    (fun (c : Checker.t) ->
      Alcotest.(check int)
        (c.Checker.name ^ ": wide witness matches component count")
        (Array.length c.Checker.components)
        (Array.length c.Checker.wide))
    (Checker.all ());
  let declared name =
    let c = Checker.find_exn name in
    (c.Checker.guarantees, c.Checker.precision)
  in
  Alcotest.(check bool) "softbound: spatial, exact" true
    (declared "softbound" = ([ Checker.Spatial ], Checker.Exact));
  Alcotest.(check bool) "lowfat: spatial, size class" true
    (declared "lowfat" = ([ Checker.Spatial ], Checker.Size_class));
  Alcotest.(check bool) "temporal: use after free and double free" true
    (fst (declared "temporal") = [ Checker.Uaf; Checker.Double_free ]);
  let elim name = Checker.check_elim_sound (Checker.find_exn name) in
  Alcotest.(check bool) "softbound permits elimination" true (elim "softbound");
  Alcotest.(check bool) "lowfat permits elimination" true (elim "lowfat");
  (* a free between two accesses invalidates the dominated check's
     premise, so check elimination is unsound for the temporal checker *)
  Alcotest.(check bool) "temporal vetoes elimination" false (elim "temporal")

(* the experiment matrix is registry-driven: every registered approach
   yields both shared setups, the dominance opt only where supported *)
let test_matrix_from_registry () =
  List.iter
    (fun name ->
      let full = E.full_setup name and opt = E.opt_setup name in
      let approach_of (s : Harness.setup) =
        match s.Harness.config with
        | Some cfg -> cfg.Config.approach
        | None -> Alcotest.failf "%s: setup has no config" name
      in
      Alcotest.(check string) (name ^ " full setup") name (approach_of full);
      Alcotest.(check string) (name ^ " opt setup") name (approach_of opt);
      let dom (s : Harness.setup) =
        (Option.get s.Harness.config).Config.opt_dominance
      in
      Alcotest.(check bool) (name ^ " full has no domopt") false (dom full);
      Alcotest.(check bool)
        (name ^ " opt domopt iff supported")
        (Checker.check_elim_sound (Checker.find_exn name))
        (dom opt))
    (Config.known_approaches ());
  let field f = List.map (fun a -> f (Checker.find_exn a)) in
  Alcotest.(check (list string))
    "counter namespaces" [ "sb"; "lf"; "tp" ]
    (field (fun c -> c.Checker.counter_ns) (Config.known_approaches ()));
  Alcotest.(check (list string))
    "table names" [ "SoftBound"; "Low-Fat"; "Temporal" ]
    (field (fun c -> c.Checker.table_name) (Config.known_approaches ()))

(* restrict_approaches narrows the enumeration but keeps lookups total
   (experiments pinned to one approach must keep resolving); restoring
   the full list afterwards keeps this test order-independent *)
let test_restrict_approaches () =
  let every = Checker.known_names () in
  Fun.protect
    ~finally:(fun () -> Config.restrict_approaches every)
    (fun () ->
      Config.restrict_approaches [ "tp" ];
      Alcotest.(check (list string))
        "narrowed to canonical name" [ "temporal" ]
        (Config.known_approaches ());
      Alcotest.(check string) "lookups stay total" "softbound"
        (Config.of_approach "softbound").Config.approach;
      (match Config.restrict_approaches [ "nope" ] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "restricting to an unknown name did not raise");
      Config.restrict_approaches [ "lf"; "sb" ];
      Alcotest.(check (list string))
        "order follows registration, not the restriction"
        [ "softbound"; "lowfat" ]
        (Config.known_approaches ()));
  Alcotest.(check (list string))
    "restriction restored" every
    (Config.known_approaches ())

(* every consumer derives its per-checker entries from the registry:
   the oracle's matrices carry each checker's tags (the checkopt one
   exactly where elimination is sound), and the corpus never expects a
   report of a hazard class the checker does not guarantee *)
let test_registry_contract () =
  let module Oracle = Mi_fuzz.Oracle in
  let module Corpus = Mi_bench_kit.Safety_corpus in
  List.iter
    (fun (c : Checker.t) ->
      let o3 = "O3+" ^ c.Checker.counter_ns in
      let has variants tag = List.mem_assoc tag variants in
      List.iter
        (fun tag ->
          Alcotest.(check bool) (tag ^ " in variants") true
            (has Oracle.variants tag))
        [ "O1+" ^ c.Checker.counter_ns; o3; o3 ^ "/generic" ];
      Alcotest.(check bool) (o3 ^ " in mutant variants") true
        (has Oracle.mutant_variants o3);
      Alcotest.(check bool)
        (o3 ^ "+checkopt iff elimination is sound")
        (Checker.check_elim_sound c)
        (has Oracle.variants (o3 ^ "+checkopt"));
      List.iter
        (fun kind ->
          match Corpus.hazard_of_kind kind with
          | Some h when not (List.mem h c.Checker.guarantees) ->
              List.iter
                (fun elem ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s never detects %s" c.Checker.name
                       (Corpus.kind_name kind))
                    false
                    (Corpus.detects c.Checker.name elem kind))
                Corpus.elems
          | _ -> ())
        (Corpus.all_kinds @ Corpus.temporal_kinds_for Corpus.Heap))
    (Checker.all ())

let test_duplicate_registration_rejected () =
  let tp = Checker.find_exn "temporal" in
  match Checker.register tp with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate registration did not raise"

let () =
  Alcotest.run "checker"
    [
      ( "registry",
        [
          Alcotest.test_case "known names" `Quick test_known_names;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "aliases" `Quick test_aliases;
          Alcotest.test_case "unknown-name contract" `Quick
            test_unknown_name_contract;
          Alcotest.test_case "checker shape" `Quick test_checker_shape;
          Alcotest.test_case "duplicate rejected" `Quick
            test_duplicate_registration_rejected;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "setups from registry" `Quick
            test_matrix_from_registry;
          Alcotest.test_case "restrict_approaches" `Quick
            test_restrict_approaches;
          Alcotest.test_case "registry contract" `Quick test_registry_contract;
        ] );
    ]
