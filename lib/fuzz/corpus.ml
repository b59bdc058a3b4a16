(** Persistent, content-addressed fuzz corpus.

    One JSON file per entry, named by the digest of the entry's sources
    — the same content-addressing discipline as the instrumentation
    cache ({!Mi_bench_kit.Icache}): identical offspring bred twice map
    to one file, and an entry whose stored id disagrees with its
    recomputed content digest is quarantined (renamed [*.corrupt]) on
    load rather than trusted.  Writes go through a temp file followed
    by [Sys.rename], so a crash mid-write leaves either the complete
    old state or a [*.tmp] orphan the loader ignores — never a torn
    entry — which is what makes the soak loop's resume crash-safe.

    Each entry carries everything the evolutionary loop needs to
    rebuild its in-memory state by replaying entries in insertion
    ([en_ord]) order: the root generator seed and feature vector of the
    entry's lineage, the grammar productions it exercises, and the
    exact {!Mi_obs.Coverage} cell keys its reference run hit (so the
    global seen-set, the per-feature scores and the scheduler energies
    all reconstruct deterministically after a kill).  A small
    [state.json] checkpoint (next seed / round / exec counters) is
    written with the same atomic discipline after every round; losing
    it costs at most one round of re-execution, never an entry. *)

module Bench = Mi_bench_kit.Bench
module Json = Mi_obs.Json

type origin =
  | Seeded of int  (** generator-fresh, [Gen.generate ~seed] *)
  | Spliced of { sp_parent : string; sp_donor : string; sp_op : int }
  | Grown of { gr_parent : string; gr_op : int }

type entry = {
  en_id : string;  (** content digest of the sources; the filename stem *)
  en_ord : int;  (** insertion order, unique and monotone per corpus *)
  en_round : int;  (** soak round that admitted the entry *)
  en_origin : origin;
  en_seed : int;  (** root generator seed of the lineage *)
  en_features : int list;  (** root program's generator feature vector *)
  en_productions : string list;  (** grammar productions, sorted *)
  en_cells : string list;
      (** {!Mi_obs.Coverage.cells_of} of the entry's [-O0] reference
          run, sorted — replayed on load to rebuild the seen-set *)
  en_fresh : int;  (** cells this entry was first to hit, at admission *)
  en_fingerprint : string;
      (** {!Mi_obs.Coverage.fingerprint} of the reference run; replay
          verifies the recomputed fingerprint matches *)
  en_sources : Bench.source list;
}

let id_of_sources (sources : Bench.source list) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x01"
          (List.concat_map
             (fun (s : Bench.source) -> [ s.Bench.src_name; s.Bench.code ])
             sources)))

(* --- JSON ----------------------------------------------------------- *)

let origin_to_json = function
  | Seeded s -> Json.Obj [ ("kind", Json.Str "seeded"); ("seed", Json.Int s) ]
  | Spliced { sp_parent; sp_donor; sp_op } ->
      Json.Obj
        [
          ("kind", Json.Str "spliced");
          ("parent", Json.Str sp_parent);
          ("donor", Json.Str sp_donor);
          ("op", Json.Int sp_op);
        ]
  | Grown { gr_parent; gr_op } ->
      Json.Obj
        [
          ("kind", Json.Str "grown");
          ("parent", Json.Str gr_parent);
          ("op", Json.Int gr_op);
        ]

let entry_to_json (e : entry) =
  Json.Obj
    [
      ("id", Json.Str e.en_id);
      ("ord", Json.Int e.en_ord);
      ("round", Json.Int e.en_round);
      ("origin", origin_to_json e.en_origin);
      ("seed", Json.Int e.en_seed);
      ("features", Json.List (List.map (fun k -> Json.Int k) e.en_features));
      ( "productions",
        Json.List (List.map (fun p -> Json.Str p) e.en_productions) );
      ("cells", Json.List (List.map (fun c -> Json.Str c) e.en_cells));
      ("fresh", Json.Int e.en_fresh);
      ("fingerprint", Json.Str e.en_fingerprint);
      ( "sources",
        Json.List
          (List.map
             (fun (s : Bench.source) ->
               Json.Obj
                 [
                   ("name", Json.Str s.Bench.src_name);
                   ("code", Json.Str s.Bench.code);
                 ])
             e.en_sources) );
    ]

let fail fmt = Printf.ksprintf invalid_arg fmt

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> fail "Corpus.entry_of_json: missing %S" k

let as_str what = function
  | Json.Str s -> s
  | _ -> fail "Corpus.entry_of_json: %s is not a string" what

let as_int what = function
  | Json.Int i -> i
  | _ -> fail "Corpus.entry_of_json: %s is not an int" what

let as_list what = function
  | Json.List l -> l
  | _ -> fail "Corpus.entry_of_json: %s is not a list" what

let origin_of_json j =
  match as_str "origin.kind" (member "kind" j) with
  | "seeded" -> Seeded (as_int "origin.seed" (member "seed" j))
  | "spliced" ->
      Spliced
        {
          sp_parent = as_str "origin.parent" (member "parent" j);
          sp_donor = as_str "origin.donor" (member "donor" j);
          sp_op = as_int "origin.op" (member "op" j);
        }
  | "grown" ->
      Grown
        {
          gr_parent = as_str "origin.parent" (member "parent" j);
          gr_op = as_int "origin.op" (member "op" j);
        }
  | k -> fail "Corpus.entry_of_json: unknown origin kind %S" k

(** Strict parse + integrity check: the stored id must equal the
    recomputed content digest of the stored sources, and the stored
    fingerprint must equal the digest of the stored cell list.  Raises
    [Invalid_argument] otherwise — the loader quarantines. *)
let entry_of_json j =
  let e =
    {
      en_id = as_str "id" (member "id" j);
      en_ord = as_int "ord" (member "ord" j);
      en_round = as_int "round" (member "round" j);
      en_origin = origin_of_json (member "origin" j);
      en_seed = as_int "seed" (member "seed" j);
      en_features =
        List.map (as_int "features[]") (as_list "features" (member "features" j));
      en_productions =
        List.map
          (as_str "productions[]")
          (as_list "productions" (member "productions" j));
      en_cells =
        List.map (as_str "cells[]") (as_list "cells" (member "cells" j));
      en_fresh = as_int "fresh" (member "fresh" j);
      en_fingerprint = as_str "fingerprint" (member "fingerprint" j);
      en_sources =
        List.map
          (fun s ->
            Bench.src
              (as_str "sources[].name" (member "name" s))
              (as_str "sources[].code" (member "code" s)))
          (as_list "sources" (member "sources" j));
    }
  in
  if id_of_sources e.en_sources <> e.en_id then
    fail "Corpus.entry_of_json: id %s does not match its sources" e.en_id;
  if
    Digest.to_hex (Digest.string (String.concat "\n" e.en_cells))
    <> e.en_fingerprint
  then fail "Corpus.entry_of_json: fingerprint of %s is stale" e.en_id;
  e

(* --- persistence ---------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* temp-then-rename, so the visible file is always complete *)
let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let entry_path ~dir (e : entry) = Filename.concat dir (e.en_id ^ ".json")

let save ~dir (e : entry) =
  mkdir_p dir;
  write_atomic (entry_path ~dir e) (Json.to_string (entry_to_json e) ^ "\n")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let state_file = "state.json"

let is_entry_file name =
  name <> state_file
  && Filename.check_suffix name ".json"
  && String.length name > 0
  && name.[0] <> '.'

(** Load every entry of [dir], sorted by insertion order.  [*.tmp]
    orphans are ignored; unparseable or integrity-failing entries are
    quarantined in place (renamed [*.corrupt]) and skipped, so one torn
    or tampered file never poisons a resume. *)
let load ~dir : entry list =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else begin
    let files = Array.to_list (Sys.readdir dir) in
    let entries =
      List.filter_map
        (fun name ->
          if not (is_entry_file name) then None
          else
            let path = Filename.concat dir name in
            match entry_of_json (Json.of_string (read_file path)) with
            | e when e.en_id ^ ".json" = name -> Some e
            | _ | (exception _) ->
                (try Sys.rename path (path ^ ".corrupt") with _ -> ());
                None)
        (List.sort String.compare files)
    in
    List.sort
      (fun a b ->
        if a.en_ord <> b.en_ord then compare a.en_ord b.en_ord
        else String.compare a.en_id b.en_id)
      entries
  end

(** The soak loop's round checkpoint.  Everything here is derivable
    from the entries except the exec/seed counters of rounds that
    admitted nothing; losing the file costs at most one round of
    re-execution (re-admitted entries dedupe by content id). *)
type state = {
  st_next_seed : int;  (** next unconsumed base generator seed *)
  st_round : int;  (** next round number *)
  st_execs : int;  (** programs run through the matrix so far *)
  st_next_op : int;  (** next structural-mutation operation id *)
}

let state0 = { st_next_seed = 0; st_round = 0; st_execs = 0; st_next_op = 0 }

let state_to_json s =
  Json.Obj
    [
      ("next_seed", Json.Int s.st_next_seed);
      ("round", Json.Int s.st_round);
      ("execs", Json.Int s.st_execs);
      ("next_op", Json.Int s.st_next_op);
    ]

let save_state ~dir s =
  mkdir_p dir;
  write_atomic
    (Filename.concat dir state_file)
    (Json.to_string (state_to_json s) ^ "\n")

let load_state ~dir : state =
  let path = Filename.concat dir state_file in
  if not (Sys.file_exists path) then state0
  else
    try
      let j = Json.of_string (read_file path) in
      {
        st_next_seed = as_int "next_seed" (member "next_seed" j);
        st_round = as_int "round" (member "round" j);
        st_execs = as_int "execs" (member "execs" j);
        st_next_op = as_int "next_op" (member "next_op" j);
      }
    with _ -> state0

(** Remove every corpus file of [dir] (entries, checkpoint, orphans,
    quarantine) — a fresh start for deterministic benchmark runs. *)
let reset ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name ->
        let path = Filename.concat dir name in
        if
          (not (Sys.is_directory path))
          && (Filename.check_suffix name ".json"
             || Filename.check_suffix name ".tmp"
             || Filename.check_suffix name ".corrupt")
        then try Sys.remove path with _ -> ())
      (Sys.readdir dir)
