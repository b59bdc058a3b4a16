(* Corpus persistence tests: the evolutionary soak's on-disk corpus
   round-trips exactly, quarantines tampered files instead of dying,
   survives injected worker crashes and a kill-plus-resume without
   losing an entry, and is byte-identical for every [-j] — the
   determinism contract behind `mifuzz --replay`. *)

module Bench = Mi_bench_kit.Bench
module Fuzz = Mi_fuzz.Fuzz
module Corpus = Mi_fuzz.Corpus
module Fault = Mi_faultkit.Fault
module Json = Mi_obs.Json

let rm_rf = Tmpdir.rm_rf

let tmp_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf d;
  d

let read_file path = In_channel.with_open_text path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

let entry_bytes e = Json.to_string (Corpus.entry_to_json e)

let soak ?faults ?(jobs = 1) ~max_execs dir =
  Fuzz.soak_run (Fuzz.soak_config ?faults ~jobs ~max_execs ~corpus_dir:dir ())

let report_bytes r = Json.to_string (Fuzz.report_to_json r)

(* same lookup as test_engine's golden: the staged copy under
   `dune runtest`, the source-tree copy under `dune exec` *)
let read_golden name =
  let path =
    List.find Sys.file_exists [ "goldens/" ^ name; "test/goldens/" ^ name ]
  in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* {1 Round-trip: save/load is the identity} *)

let test_entry_roundtrip () =
  let dir = tmp_dir "mi-corpus-rt" in
  let dir2 = tmp_dir "mi-corpus-rt2" in
  let r = soak ~max_execs:8 dir in
  Alcotest.(check bool) "tiny soak is clean" true (Fuzz.ok r);
  let entries = Corpus.load ~dir in
  Alcotest.(check bool) "soak admitted entries" true (entries <> []);
  List.iter
    (fun (e : Corpus.entry) ->
      (* content address: the id is a pure function of the sources *)
      Alcotest.(check string) "id matches sources"
        (Corpus.id_of_sources e.Corpus.en_sources)
        e.Corpus.en_id;
      Corpus.save ~dir:dir2 e)
    entries;
  let back = Corpus.load ~dir:dir2 in
  Alcotest.(check int) "same entry count" (List.length entries)
    (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "entry round-trips" (entry_bytes a)
        (entry_bytes b))
    entries back;
  rm_rf dir;
  rm_rf dir2

(* {1 Tampering: quarantine, never poison} *)

let test_tamper_quarantine () =
  let dir = tmp_dir "mi-corpus-tamper" in
  let r = soak ~max_execs:8 dir in
  Alcotest.(check bool) "tiny soak is clean" true (Fuzz.ok r);
  let entries = Corpus.load ~dir in
  let n = List.length entries in
  Alcotest.(check bool) "at least two entries" true (n >= 2);
  let victim = List.hd entries in
  let victim_path = Filename.concat dir (victim.Corpus.en_id ^ ".json") in
  (* 1: torn write — a stray .tmp orphan must be ignored *)
  write_file (Filename.concat dir "deadbeef.json.tmp") "{ torn";
  (* 2: content tamper — garbage where an entry used to be *)
  write_file victim_path "not json at all";
  (* 3: name tamper — a valid entry under the wrong filename *)
  let impostor = List.nth entries 1 in
  write_file
    (Filename.concat dir "0000000000000000000000000000dead.json")
    (entry_bytes impostor ^ "\n");
  let after = Corpus.load ~dir in
  Alcotest.(check int) "tampered entry dropped, impostor dropped" (n - 1)
    (List.length after);
  Alcotest.(check bool) "victim no longer listed" true
    (not
       (List.exists
          (fun (e : Corpus.entry) -> e.Corpus.en_id = victim.Corpus.en_id)
          after));
  Alcotest.(check bool) "tampered file quarantined" true
    (Sys.file_exists (victim_path ^ ".corrupt"));
  Alcotest.(check bool) "impostor quarantined" true
    (Sys.file_exists
       (Filename.concat dir "0000000000000000000000000000dead.json.corrupt"));
  Alcotest.(check bool) ".tmp orphan left alone" true
    (Sys.file_exists (Filename.concat dir "deadbeef.json.tmp"));
  (* a second load is stable: quarantine already done, nothing new *)
  Alcotest.(check int) "load is idempotent after quarantine"
    (List.length after)
    (List.length (Corpus.load ~dir));
  rm_rf dir

(* {1 Crash-safe resume}

   Leg 1 runs half the budget with an injected worker crash on every
   mutant job (faultkit [crash=-mut] — mutant benches are named
   [fuzz-<seed>-mut], candidate benches [ev-<hex>], so only the mutant
   lane crashes).  Admission is candidate-only, so the corpus keeps
   growing through the crashes; the run ends not-ok.  Leg 2 resumes the
   same directory fault-free to the full budget: no leg-1 entry may be
   lost or change a byte, the exec counter continues exactly, and the
   finished corpus replays with zero findings, byte-identically at any
   [-j]. *)

let test_crash_and_resume () =
  let dir = tmp_dir "mi-corpus-resume" in
  let faults =
    match Fault.parse "crash=-mut" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let r1 = soak ~faults ~max_execs:10 dir in
  Alcotest.(check bool) "crashed leg is not ok" false (Fuzz.ok r1);
  let before = Corpus.load ~dir in
  Alcotest.(check bool) "entries admitted despite crashes" true (before <> []);
  let st1 = Corpus.load_state ~dir in
  Alcotest.(check int) "checkpoint counts every exec" 10 st1.Corpus.st_execs;
  (* simulate the kill arriving mid-write: a torn temp file on disk *)
  write_file (Filename.concat dir "deadbeef.json.tmp") "{ torn";
  let r2 = soak ~max_execs:20 dir in
  Alcotest.(check bool) "resumed leg is clean" true (Fuzz.ok r2);
  (match r2.Fuzz.r_corpus with
  | None -> Alcotest.fail "soak report lost its corpus stats"
  | Some cs ->
      Alcotest.(check int) "exec counter resumed, not restarted" 20
        cs.Fuzz.cs_execs;
      Alcotest.(check bool) "corpus grew across the resume" true
        (cs.Fuzz.cs_entries > List.length before));
  let after = Corpus.load ~dir in
  List.iter
    (fun (e : Corpus.entry) ->
      match
        List.find_opt
          (fun (e' : Corpus.entry) -> e'.Corpus.en_id = e.Corpus.en_id)
          after
      with
      | None ->
          Alcotest.failf "entry %s lost across resume"
            (String.sub e.Corpus.en_id 0 12)
      | Some e' ->
          Alcotest.(check string) "entry byte-identical across resume"
            (entry_bytes e) (entry_bytes e'))
    before;
  (* the finished corpus replays clean and independent of -j *)
  let rp1 = Fuzz.replay ~jobs:1 ~dir () in
  let rp4 = Fuzz.replay ~jobs:4 ~dir () in
  Alcotest.(check (list string)) "replay reports nothing" []
    (List.map Mi_fuzz.Oracle.finding_to_string rp1.Fuzz.r_findings);
  Alcotest.(check string) "replay byte-identical at -j1 and -j4"
    (report_bytes rp1) (report_bytes rp4);
  rm_rf dir

(* {1 -j determinism: the corpus itself is worker-count independent}

   The 16-exec report is also pinned to fixed bytes:
   goldens/fuzz_soak.json was recorded from a fresh corpus before the
   soak loop moved onto the shared batch executor. *)

let test_jobs_corpus_determinism () =
  let d1 = tmp_dir "mi-corpus-j1" in
  let d8 = tmp_dir "mi-corpus-j8" in
  let r1 = soak ~jobs:1 ~max_execs:16 d1 in
  let r8 = soak ~jobs:8 ~max_execs:16 d8 in
  Alcotest.(check string) "soak report byte-identical to the golden"
    (read_golden "fuzz_soak.json")
    (report_bytes r1 ^ "\n");
  Alcotest.(check string) "soak report byte-identical at -j1 and -j8"
    (report_bytes r1) (report_bytes r8);
  let ls d =
    List.sort String.compare
      (List.filter
         (fun n -> Filename.check_suffix n ".json")
         (Array.to_list (Sys.readdir d)))
  in
  Alcotest.(check (list string)) "same corpus files" (ls d1) (ls d8);
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " byte-identical")
        (read_file (Filename.concat d1 name))
        (read_file (Filename.concat d8 name)))
    (ls d1);
  rm_rf d1;
  rm_rf d8

let () =
  Alcotest.run "fuzz-corpus"
    [
      ( "persistence",
        [
          Alcotest.test_case "entry save/load round-trip" `Slow
            test_entry_roundtrip;
          Alcotest.test_case "tampered files quarantined" `Slow
            test_tamper_quarantine;
        ] );
      ( "resume",
        [
          Alcotest.test_case "injected crashes + kill, resume loses nothing"
            `Slow test_crash_and_resume;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j1 vs -j8 corpora byte-identical" `Slow
            test_jobs_corpus_determinism;
        ] );
    ]
