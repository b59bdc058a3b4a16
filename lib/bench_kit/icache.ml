(** Content-addressed cache of instrumented-and-optimized modules.

    Compiling, instrumenting and optimizing a benchmark's translation
    units is the expensive, setup-dependent half of a harness run; the
    VM execution half additionally depends on the seed.  An entry caches
    the whole compile phase of one run, keyed by the digest of
    everything that determines it: the source texts (with per-unit
    lowering modes and instrument flags), the instrumentation
    {!Mi_core.Config.t}, the optimization level and the pipeline
    extension point.  The seed is deliberately excluded — runs that
    differ only in seed share the compiled modules.

    Alongside the modules an entry carries the static statistics and the
    check-site descriptors the instrumenter registered, so a hit can
    replay the site registry into a fresh observability context: the
    site ids embedded in the cached modules then attribute dynamic hits
    exactly as a non-cached run would, and reports stay byte-identical.
    What a hit does {e not} replay are the [static.*] metric increments
    — those count actual instrumentation work, which a hit skips; tests
    use them to prove a hit did zero work.

    Entries are immutable after construction: the pipeline and the
    instrumenter mutate modules, but both ran to completion before the
    entry was stored, and the VM loader/precompiler only reads.  That
    makes entries safe to share across worker domains; the table itself
    is guarded by a mutex.

    With a [dir], entries are also persisted with [Marshal], giving
    cache hits across processes of one build.  Disk entries are
    hardened: a header carries the digest of the executable that wrote
    the entry, the key digest the entry was stored under, and a checksum
    of the marshalled payload.  A file that fails any of those checks —
    truncated, bit-flipped, renamed under the wrong digest, or written
    by another build — is never unmarshalled into a wrong replay: it is
    quarantined (renamed to [*.corrupt]), counted, and the lookup
    degrades to a miss so the entry is transparently recomputed.  A
    cache directory is therefore shared only by runs of one binary.

    Each in-memory entry remembers its most recent use as a stamp the
    caller passes to {!find} and {!add}; {!trim} keeps only the most
    recently used entries.  The harness stamps and trims only a cache
    it created itself (see [Harness.create]). *)

type entry = {
  e_modules : (Mi_mir.Irmod.t * bool) list;
      (** per translation unit: compiled module, instrumented flag *)
  e_stats : Mi_core.Instrument.mod_stats list;
      (** per instrumented unit, in unit order *)
  e_sites : Mi_obs.Site.info list;
      (** every check site registered while compiling, in id order *)
}

(* [used] is the greatest stamp the store or a later lookup gave the
   entry, so it does not depend on the order in which concurrent jobs
   got there *)
type slot = { entry : entry; mutable used : int * int }

type t = {
  mem : (string, slot) Hashtbl.t;  (** digest -> entry *)
  dir : string option;
  lock : Mutex.t;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_corrupt : int Atomic.t;
}

type stats = { hits : int; misses : int; corrupt : int }

(* Marshal gives no type safety across builds: an entry is trusted
   only by the executable that wrote it, named by the digest of its own
   file, so a change to the shape of any marshalled type (or to the
   compiler) is a foreign build.  Computed once per process, at the
   first disk access. *)
let build_id =
  let memo = Atomic.make None in
  fun () ->
    match Atomic.get memo with
    | Some id -> id
    | None ->
        let id = Digest.to_hex (Digest.file Sys.executable_name) in
        Atomic.set memo (Some id);
        id

let create ?dir () =
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    dir;
  {
    mem = Hashtbl.create 64;
    dir;
    lock = Mutex.create ();
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_corrupt = Atomic.make 0;
  }

let digest key = Digest.to_hex (Digest.string key)

let entry_path dir d = Filename.concat dir (d ^ ".micache")

(* Move a failed entry out of the way so it is inspectable but can
   never be read again; best-effort (a concurrent quarantine of the
   same file is fine). *)
let quarantine path =
  try Sys.rename path (path ^ ".corrupt") with Sys_error _ -> ()

(* Every integrity check funnels through here: a [None] from this
   function means the cached bytes cannot be trusted and the caller
   must recompute.  The checks, in order: build digest (written by
   another executable), key digest (entry stored under a name it does
   not belong to — a "stale" entry), payload checksum (truncation, bit
   flips, torn writes).  Only after all three pass is
   [Marshal.from_string] allowed to run. *)
let disk_find t d =
  match t.dir with
  | None -> None
  | Some dir ->
      let path = entry_path dir d in
      if not (Sys.file_exists path) then None
      else begin
        let verified =
          try
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let build, key_d, payload_d =
                  (input_value ic : string * string * Digest.t)
                in
                if build <> build_id () || key_d <> d then None
                else begin
                  let pos = pos_in ic in
                  let len = in_channel_length ic - pos in
                  let payload = really_input_string ic len in
                  if Digest.string payload <> payload_d then None
                  else Some (Marshal.from_string payload 0 : entry)
                end)
          with _ -> None
        in
        (match verified with
        | None ->
            Atomic.incr t.n_corrupt;
            quarantine path
        | Some _ -> ());
        verified
      end

let disk_add t d entry =
  Option.iter
    (fun dir ->
      try
        (* write-to-temp + rename: concurrent processes never observe a
           half-written entry *)
        let tmp = Filename.temp_file ~temp_dir:dir "wip" ".micache" in
        let oc = open_out_bin tmp in
        let payload = Marshal.to_string entry [] in
        output_value oc (build_id (), d, Digest.string payload);
        output_string oc payload;
        close_out oc;
        Sys.rename tmp (entry_path dir d)
      with Sys_error _ -> ())
    t.dir

(* the stamp of an entry no caller stamped: older than every stamp *)
let unstamped = (min_int, min_int)

(** Look up [key] (the full content string, not a digest).  Counts one
    hit or miss; a disk hit is promoted into the in-memory table.  A hit
    is marked used at [stamp] (see {!trim}). *)
let find ?stamp t key : entry option =
  let d = digest key in
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.mem d with
    | Some slot ->
        (match stamp with
        | Some s when compare s slot.used > 0 -> slot.used <- s
        | _ -> ());
        Some slot.entry
    | None -> (
        match disk_find t d with
        | Some e ->
            Hashtbl.replace t.mem d
              { entry = e; used = Option.value stamp ~default:unstamped };
            Some e
        | None -> None)
  in
  Mutex.unlock t.lock;
  (match r with
  | Some _ -> Atomic.incr t.n_hits
  | None -> Atomic.incr t.n_misses);
  r

(** Store an entry, marked used at [stamp].  Concurrent stores under
    the same key are benign: both entries are equivalent by construction
    (the key digests every input of the compile phase) and the last one
    wins. *)
let add ?stamp t key entry =
  let d = digest key in
  Mutex.lock t.lock;
  Hashtbl.replace t.mem d
    { entry; used = Option.value stamp ~default:unstamped };
  disk_add t d entry;
  Mutex.unlock t.lock

(** Drop all but the [keep] most recently stamped in-memory entries
    (ties, among unstamped entries, broken by digest).  Persisted
    entries stay on disk. *)
let trim t ~keep =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.length t.mem > keep then
        Hashtbl.fold (fun d slot acc -> (slot.used, d) :: acc) t.mem []
        |> List.sort (fun a b -> compare b a)
        |> List.iteri (fun i (_, d) ->
               if i >= keep then Hashtbl.remove t.mem d))

(** Number of in-memory entries. *)
let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.mem)

(** The digests of the in-memory entries, sorted. *)
let digests t =
  Mutex.protect t.lock (fun () ->
      List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) t.mem []))

let stats t =
  {
    hits = Atomic.get t.n_hits;
    misses = Atomic.get t.n_misses;
    corrupt = Atomic.get t.n_corrupt;
  }

(** Deliberately corrupt every persisted entry (fault injection for the
    detection path above); returns how many files were damaged.
    [Truncate] halves the file, [Bitflip] flips one byte two thirds in,
    [Stale] moves the entry under a digest it does not match. *)
let corrupt t (how : Mi_faultkit.Fault.cache_corruption) : int =
  match t.dir with
  | None -> 0
  | Some dir ->
      let entries =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".micache")
        |> List.sort compare
      in
      List.iter
        (fun f ->
          let path = Filename.concat dir f in
          match how with
          | Mi_faultkit.Fault.Truncate ->
              let ic = open_in_bin path in
              let n = in_channel_length ic in
              let half = really_input_string ic (n / 2) in
              close_in ic;
              let oc = open_out_bin path in
              output_string oc half;
              close_out oc
          | Mi_faultkit.Fault.Bitflip ->
              let ic = open_in_bin path in
              let n = in_channel_length ic in
              let bytes = really_input_string ic n |> Bytes.of_string in
              close_in ic;
              let i = n * 2 / 3 in
              Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
              let oc = open_out_bin path in
              output_bytes oc bytes;
              close_out oc
          | Mi_faultkit.Fault.Stale ->
              (* keep the payload pristine but claim the entry belongs
                 to a different key: a well-formed entry filed under the
                 wrong name, exactly what a digest/rename mixup leaves *)
              let ic = open_in_bin path in
              let build, key_d, payload_d =
                (input_value ic : string * string * Digest.t)
              in
              let pos = pos_in ic in
              let len = in_channel_length ic - pos in
              let payload = really_input_string ic len in
              close_in ic;
              let oc = open_out_bin path in
              output_value oc (build, digest (key_d ^ ":stale"), payload_d);
              output_string oc payload;
              close_out oc)
        entries;
      List.length entries
