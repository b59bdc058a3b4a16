(** Per-check-site profiling.

    Every check the instrumenter places gets a stable site id — stable
    because the instrumenter walks functions and targets in
    deterministic order, so the same program under the same
    configuration always yields the same numbering.  The id is embedded
    as an extra argument of the check intrinsic call; the VM's check
    builtins attribute hits, wide-bounds hits and modeled cycles back to
    the site.  The hot-site report this enables is the profile CHOP-style
    bounds-check elision needs as input: which few sites carry most of
    the checking cost. *)

type info = {
  si_id : int;
  si_func : string;  (** enclosing function *)
  si_construct : string;  (** source construct, e.g. [load@bb3:7] *)
  si_approach : string;  (** softbound / lowfat *)
}

type cell = {
  mutable c_hits : int;
  mutable c_wide : int;  (** hits that took the wide-bounds fallback *)
  mutable c_cycles : int;  (** modeled cycles spent in the check *)
}

(* Descriptor index for {!merge}, keyed on the [info] records the
   registry already holds: an entry costs one bucket, no key copy. *)
module Index = Hashtbl.Make (struct
  type t = info

  let equal a b =
    a.si_id = b.si_id
    && String.equal a.si_func b.si_func
    && String.equal a.si_construct b.si_construct
    && String.equal a.si_approach b.si_approach

  let hash = Hashtbl.hash
end)

type t = {
  mutable infos : info array;
  mutable cells : cell array;
  mutable n : int;
  index : int Index.t;  (** descriptor -> slot, for slots [0..indexed-1] *)
  mutable indexed : int;
}

let create () =
  { infos = [||]; cells = [||]; n = 0; index = Index.create 16; indexed = 0 }

let count t = t.n

let ensure_capacity t =
  let cap = Array.length t.infos in
  if t.n >= cap then begin
    let ncap = max 16 (cap * 2) in
    let infos =
      Array.make ncap { si_id = -1; si_func = ""; si_construct = ""; si_approach = "" }
    in
    let cells =
      Array.init ncap (fun _ -> { c_hits = 0; c_wide = 0; c_cycles = 0 })
    in
    Array.blit t.infos 0 infos 0 t.n;
    Array.blit t.cells 0 cells 0 t.n;
    t.infos <- infos;
    t.cells <- cells
  end

(** Register a check site; returns its id.  Ids are dense and allocated
    in registration order. *)
let register t ~func ~construct ~approach =
  ensure_capacity t;
  let id = t.n in
  t.infos.(id) <- { si_id = id; si_func = func; si_construct = construct; si_approach = approach };
  t.cells.(id) <- { c_hits = 0; c_wide = 0; c_cycles = 0 };
  t.n <- t.n + 1;
  id

(** All site descriptors in registration order — the replayable part of
    a registry.  A cached instrumentation result stores these so that a
    cache hit can rebuild the registry the cached module's embedded site
    ids refer to, without re-running the instrumenter. *)
let infos t : info list = List.init t.n (fun i -> t.infos.(i))

(** Append a site descriptor verbatim, keeping its recorded id.  When
    replaying a cached registry into a fresh one in registration order,
    slot indices coincide with the recorded ids, so dynamic attribution
    through {!hit} behaves exactly as if the instrumenter had registered
    the sites itself. *)
let register_info t (inf : info) =
  ensure_capacity t;
  let slot = t.n in
  t.infos.(slot) <- inf;
  t.cells.(slot) <- { c_hits = 0; c_wide = 0; c_cycles = 0 };
  t.n <- t.n + 1

(** Merge [src] into [dst].  Sites are identified by their full
    descriptor (id, function, construct, approach): matching sites add
    their cells, unmatched sites are appended with their descriptor (and
    recorded id) preserved.  Cell addition is associative and
    commutative, so merging any grouping of registries yields the same
    set of (descriptor, cells) pairs; only the slot order — and hence
    {!snapshot} order — depends on merge order.  Merged registries are
    aggregates for reporting: do not use them for further {!hit}
    attribution (slots may no longer coincide with recorded ids).

    Cost is amortised O(|src|): [dst] keeps its descriptor index across
    merges and only indexes the slots registered since the last one, so
    {!register} never touches the index.  A descriptor registered twice
    in [dst] resolves to its last slot. *)
let merge dst src =
  if dst == src then invalid_arg "Site.merge: dst and src are the same";
  for i = dst.indexed to dst.n - 1 do
    Index.replace dst.index dst.infos.(i) i
  done;
  for j = 0 to src.n - 1 do
    let inf = src.infos.(j) and c = src.cells.(j) in
    match Index.find_opt dst.index inf with
    | Some i ->
        let d = dst.cells.(i) in
        d.c_hits <- d.c_hits + c.c_hits;
        d.c_wide <- d.c_wide + c.c_wide;
        d.c_cycles <- d.c_cycles + c.c_cycles
    | None ->
        ensure_capacity dst;
        let slot = dst.n in
        dst.infos.(slot) <- inf;
        dst.cells.(slot) <-
          { c_hits = c.c_hits; c_wide = c.c_wide; c_cycles = c.c_cycles };
        dst.n <- dst.n + 1;
        Index.add dst.index inf slot
  done;
  dst.indexed <- dst.n

(** Attribute one executed check to site [id].  Unknown ids (a program
    instrumented against a different registry, or an un-instrumented
    check call) are ignored. *)
let hit t id ~wide ~cycles =
  if id >= 0 && id < t.n then begin
    let c = t.cells.(id) in
    c.c_hits <- c.c_hits + 1;
    if wide then c.c_wide <- c.c_wide + 1;
    c.c_cycles <- c.c_cycles + cycles
  end

type snapshot = {
  sn_id : int;
  sn_func : string;
  sn_construct : string;
  sn_approach : string;
  sn_hits : int;
  sn_wide : int;
  sn_cycles : int;
}

(** All sites in id order (deterministic). *)
let snapshot t : snapshot list =
  List.init t.n (fun i ->
      let inf = t.infos.(i) and c = t.cells.(i) in
      {
        sn_id = inf.si_id;
        sn_func = inf.si_func;
        sn_construct = inf.si_construct;
        sn_approach = inf.si_approach;
        sn_hits = c.c_hits;
        sn_wide = c.c_wide;
        sn_cycles = c.c_cycles;
      })

let total_hits (sns : snapshot list) =
  List.fold_left (fun a s -> a + s.sn_hits) 0 sns

let total_cycles (sns : snapshot list) =
  List.fold_left (fun a s -> a + s.sn_cycles) 0 sns

(** Hottest sites: by modeled cycles descending, then hits, then id
    (total order, so reports are deterministic). *)
let top ?(n = 10) (sns : snapshot list) : snapshot list =
  let sorted =
    List.sort
      (fun a b ->
        match compare b.sn_cycles a.sn_cycles with
        | 0 -> (
            match compare b.sn_hits a.sn_hits with
            | 0 -> compare a.sn_id b.sn_id
            | c -> c)
        | c -> c)
      sns
  in
  List.filteri (fun i _ -> i < n) sorted

(** [perf annotate]-style table of the hottest check sites. *)
let render ?(n = 10) (sns : snapshot list) : string =
  let live = List.filter (fun s -> s.sn_hits > 0) sns in
  if live = [] then "(no check sites were executed)\n"
  else begin
    let total = total_cycles live in
    let hot = top ~n live in
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%7s %9s %6s %10s %10s %-9s %-18s %s\n" "cyc%" "cycles"
         "site" "hits" "wide" "approach" "function" "construct");
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "%6.2f%% %9d %6d %10d %10d %-9s %-18s %s\n"
             (if total = 0 then 0.0
              else 100.0 *. float_of_int s.sn_cycles /. float_of_int total)
             s.sn_cycles s.sn_id s.sn_hits s.sn_wide s.sn_approach s.sn_func
             s.sn_construct))
      hot;
    let shown = List.length hot and all = List.length live in
    if all > shown then
      Buffer.add_string b
        (Printf.sprintf "... and %d more sites (%d registered, %d executed)\n"
           (all - shown) (List.length sns) all);
    Buffer.contents b
  end

let snapshot_to_json (s : snapshot) : Json.t =
  Json.Obj
    [
      ("id", Json.Int s.sn_id);
      ("func", Json.Str s.sn_func);
      ("construct", Json.Str s.sn_construct);
      ("approach", Json.Str s.sn_approach);
      ("hits", Json.Int s.sn_hits);
      ("wide", Json.Int s.sn_wide);
      ("cycles", Json.Int s.sn_cycles);
    ]

let to_json (sns : snapshot list) : Json.t =
  Json.List (List.map snapshot_to_json sns)
