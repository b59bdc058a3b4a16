(** Metrics registry: counters, gauges and histograms under one
    namespace, with deterministic serialization.

    This replaces the VM's former ad-hoc counter table and also absorbs
    the instrumenter's static statistics, so "checks inserted", "checks
    executed" and "modeled cycles" live side by side and serialize the
    same way.  Determinism contract: two identical runs produce
    byte-identical {!to_json} output — every exported view sorts by
    metric name, and histogram buckets are fixed powers of two.

    Labels are encoded into the metric name with {!labeled}
    (canonically sorted), so a labeled metric is just a name in the
    same flat namespace. *)

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
      (** bucket [i] counts observations with value < 2^i; the last
          bucket is the overflow bucket *)
}

let n_buckets = 32

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

(** Canonical labeled-metric name: [name{k1="v1",k2="v2"}] with keys
    sorted, so the same label set always yields the same name. *)
let labeled name labels =
  match labels with
  | [] -> name
  | _ ->
      let sorted = List.sort compare labels in
      let parts =
        List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) sorted
      in
      Printf.sprintf "%s{%s}" name (String.concat "," parts)

(* One flat namespace, three kinds: registering the same name under two
   different kinds would make [to_json] emit it twice with unrelated
   meanings and would silently split what looks like one metric.  The
   collision check runs only on first registration of a name, so the
   hot-path increment stays a single hash lookup. *)
let check_kind t name ~kind =
  let clash other tbl = if Hashtbl.mem tbl name then Some other else None in
  let taken =
    match clash "counter" t.counters with
    | Some _ as c when kind <> "counter" -> c
    | _ -> (
        match clash "gauge" t.gauges with
        | Some _ as c when kind <> "gauge" -> c
        | _ -> (
            match clash "histogram" t.histograms with
            | Some _ as c when kind <> "histogram" -> c
            | _ -> None))
  in
  match taken with
  | None -> ()
  | Some other ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as a %s (wanted %s)"
           name other kind)

(* --- counters -------------------------------------------------------- *)

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None ->
      check_kind t name ~kind:"counter";
      Hashtbl.add t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* A counter resolved once: [h_cell] is the counter's own cell once it
   exists, [unresolved] (never written) until the first bump creates it
   through [incr], so a handle never adds a zero entry. *)
type handle = { h_reg : t; h_name : string; mutable h_cell : int ref }

let unresolved = ref 0

let handle t name =
  {
    h_reg = t;
    h_name = name;
    h_cell =
      (match Hashtbl.find_opt t.counters name with
      | Some r -> r
      | None -> unresolved);
  }

let bump h =
  let r = h.h_cell in
  if r != unresolved then r := !r + 1
  else begin
    incr h.h_reg h.h_name;
    h.h_cell <- Hashtbl.find h.h_reg.counters h.h_name
  end

(** All counters, sorted by name — the deterministic view report code
    must use (hash-table fold order is unspecified). *)
let counters_alist t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- gauges ---------------------------------------------------------- *)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None ->
      check_kind t name ~kind:"gauge";
      Hashtbl.add t.gauges name (ref v)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0

let gauges_alist t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- histograms ------------------------------------------------------ *)

let bucket_of v =
  (* index of the first power of two strictly greater than [v] *)
  let rec go i = if i >= n_buckets - 1 || v < 1 lsl i then i else go (i + 1) in
  go 0

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        check_kind t name ~kind:"histogram";
        let h =
          {
            h_count = 0;
            h_sum = 0;
            h_min = max_int;
            h_max = min_int;
            h_buckets = Array.make n_buckets 0;
          }
        in
        Hashtbl.add t.histograms name h;
        h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

type histogram_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;  (** (upper bound exclusive, count), non-empty buckets only *)
}

let histogram t name : histogram_snapshot option =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h ->
      let buckets = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.h_buckets.(i) > 0 then
          buckets := (1 lsl i, h.h_buckets.(i)) :: !buckets
      done;
      Some
        {
          count = h.h_count;
          sum = h.h_sum;
          min = (if h.h_count = 0 then 0 else h.h_min);
          max = (if h.h_count = 0 then 0 else h.h_max);
          buckets = !buckets;
        }

let histograms_alist t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.histograms []
  |> List.sort String.compare
  |> List.filter_map (fun k ->
         Option.map (fun s -> (k, s)) (histogram t k))

(* --- merging --------------------------------------------------------- *)

(** Merge [src] into [dst]: counters and histograms add (count, sum,
    bucket-wise), gauges take the maximum — every per-metric operation
    is associative and commutative, so merging worker registries in any
    grouping yields the same registry.  [dst] and [src] must be distinct
    registries. *)
let merge dst src =
  if dst == src then invalid_arg "Metrics.merge: dst and src are the same";
  Hashtbl.iter (fun k r -> incr ~by:!r dst k) src.counters;
  Hashtbl.iter
    (fun k r ->
      match Hashtbl.find_opt dst.gauges k with
      | Some d -> d := max !d !r
      | None -> Hashtbl.add dst.gauges k (ref !r))
    src.gauges;
  Hashtbl.iter
    (fun k h ->
      match Hashtbl.find_opt dst.histograms k with
      | None ->
          Hashtbl.add dst.histograms k
            {
              h_count = h.h_count;
              h_sum = h.h_sum;
              h_min = h.h_min;
              h_max = h.h_max;
              h_buckets = Array.copy h.h_buckets;
            }
      | Some d ->
          d.h_count <- d.h_count + h.h_count;
          d.h_sum <- d.h_sum + h.h_sum;
          d.h_min <- min d.h_min h.h_min;
          d.h_max <- max d.h_max h.h_max;
          Array.iteri
            (fun i n -> d.h_buckets.(i) <- d.h_buckets.(i) + n)
            h.h_buckets)
    src.histograms

(* --- serialization --------------------------------------------------- *)

let histogram_to_json (s : histogram_snapshot) : Json.t =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Int s.sum);
      ("min", Json.Int s.min);
      ("max", Json.Int s.max);
      ( "buckets",
        Json.List
          (List.map
             (fun (ub, n) -> Json.Obj [ ("lt", Json.Int ub); ("n", Json.Int n) ])
             s.buckets) );
    ]

let to_json t : Json.t =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters_alist t))
      );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (gauges_alist t)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, s) -> (k, histogram_to_json s))
             (histograms_alist t)) );
    ]

let to_string t = Json.to_string (to_json t)
