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
  let dom name =
    (Checker.find_exn name).Checker.supports_dominance_opt
  in
  Alcotest.(check bool) "softbound supports domopt" true (dom "softbound");
  Alcotest.(check bool) "lowfat supports domopt" true (dom "lowfat");
  (* a free between two accesses invalidates the dominated check's
     premise, so check elimination is unsound for the temporal checker *)
  Alcotest.(check bool) "temporal rejects domopt" false (dom "temporal")

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
        (Checker.find_exn name).Checker.supports_dominance_opt (dom opt))
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
        ] );
    ]
