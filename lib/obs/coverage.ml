(** Deterministic per-function block/edge coverage maps.  See the
    interface for the registration/keying contract; the implementation
    mirrors {!Site}: dense arrays on the hot path, a persistent
    descriptor index for {!register_fn} and {!merge}. *)

type fn = {
  f_name : string;
  f_succ : int array array;  (** block [i] -> successor block ids *)
  f_ebase : int array;  (** block [i] -> first edge id of its out-edges *)
  f_blocks : int array;  (** per-block hit counters *)
  f_edges : int array;  (** flat per-edge hit counters *)
}

let same_geometry a b = a.f_name = b.f_name && a.f_succ = b.f_succ

(* Generated programs reuse function names and often share a geometry
   prefix, and [Hashtbl.hash] stops after 10 meaningful words, so the
   key hash folds in every successor of every block. *)
let geometry_hash f =
  let h = ref (Hashtbl.hash f.f_name) in
  Array.iter
    (fun s ->
      h := (!h * 65599) + Array.length s;
      Array.iter (fun d -> h := (!h * 31) + d) s)
    f.f_succ;
  !h land max_int

module Index = Hashtbl.Make (struct
  type t = fn

  let equal = same_geometry
  let hash = geometry_hash
end)

type t = {
  mutable fns : fn list;  (** most recently registered first *)
  index : fn Index.t;  (** (name, geometry) -> the entry in [fns] *)
}

let create () = { fns = []; index = Index.create 16 }

let add t f =
  t.fns <- f :: t.fns;
  Index.add t.index f f

let n_edges succ = Array.fold_left (fun n s -> n + Array.length s) 0 succ

let ebase_of succ =
  let n = Array.length succ in
  let base = Array.make n 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    base.(i) <- !acc;
    acc := !acc + Array.length succ.(i)
  done;
  base

let register_fn t ~name ~succ =
  let probe = { f_name = name; f_succ = succ; f_ebase = [||]; f_blocks = [||]; f_edges = [||] } in
  match Index.find_opt t.index probe with
  | Some f -> f
  | None ->
      let f =
        {
          f_name = name;
          f_succ = Array.map Array.copy succ;
          f_ebase = ebase_of succ;
          f_blocks = Array.make (Array.length succ) 0;
          f_edges = Array.make (n_edges succ) 0;
        }
      in
      add t f;
      f

let enter f b =
  if b >= 0 && b < Array.length f.f_blocks then
    f.f_blocks.(b) <- f.f_blocks.(b) + 1

let transition f ~src ~dst =
  if dst >= 0 && dst < Array.length f.f_blocks then begin
    f.f_blocks.(dst) <- f.f_blocks.(dst) + 1;
    if src >= 0 && src < Array.length f.f_succ then begin
      let succ = f.f_succ.(src) in
      let base = f.f_ebase.(src) in
      let n = Array.length succ in
      let rec go k =
        if k < n then
          if succ.(k) = dst then f.f_edges.(base + k) <- f.f_edges.(base + k) + 1
          else go (k + 1)
      in
      go 0
    end
  end

let counters f = (f.f_blocks, f.f_succ, f.f_ebase, f.f_edges)

(* --- snapshots ------------------------------------------------------ *)

type snapshot = {
  cv_func : string;
  cv_succ : int array array;
  cv_block_hits : int array;
  cv_edge_hits : int array;
}

let snapshot_of_fn f =
  {
    cv_func = f.f_name;
    cv_succ = Array.map Array.copy f.f_succ;
    cv_block_hits = Array.copy f.f_blocks;
    cv_edge_hits = Array.copy f.f_edges;
  }

let snapshot t =
  List.sort
    (fun a b -> compare (a.cv_func, a.cv_succ) (b.cv_func, b.cv_succ))
    (List.map snapshot_of_fn t.fns)

let edges s =
  let out = ref [] in
  let eid = ref (Array.length s.cv_edge_hits - 1) in
  for src = Array.length s.cv_succ - 1 downto 0 do
    for k = Array.length s.cv_succ.(src) - 1 downto 0 do
      out := (src, s.cv_succ.(src).(k), s.cv_edge_hits.(!eid)) :: !out;
      decr eid
    done
  done;
  !out

type totals = {
  tt_functions : int;
  tt_functions_hit : int;
  tt_blocks : int;
  tt_blocks_hit : int;
  tt_edges : int;
  tt_edges_hit : int;
}

let count_pos a = Array.fold_left (fun n x -> if x > 0 then n + 1 else n) 0 a

let totals_of snaps =
  List.fold_left
    (fun tt s ->
      {
        tt_functions = tt.tt_functions + 1;
        tt_functions_hit =
          (tt.tt_functions_hit
          + if count_pos s.cv_block_hits > 0 then 1 else 0);
        tt_blocks = tt.tt_blocks + Array.length s.cv_block_hits;
        tt_blocks_hit = tt.tt_blocks_hit + count_pos s.cv_block_hits;
        tt_edges = tt.tt_edges + Array.length s.cv_edge_hits;
        tt_edges_hit = tt.tt_edges_hit + count_pos s.cv_edge_hits;
      })
    {
      tt_functions = 0;
      tt_functions_hit = 0;
      tt_blocks = 0;
      tt_blocks_hit = 0;
      tt_edges = 0;
      tt_edges_hit = 0;
    }
    snaps

let totals t = totals_of (snapshot t)

(* --- cell keys ------------------------------------------------------ *)

let geometry_key s =
  s.cv_func ^ "/"
  ^ String.concat "|"
      (Array.to_list
         (Array.map
            (fun a ->
              String.concat "," (List.map string_of_int (Array.to_list a)))
            s.cv_succ))

let cell_keys s =
  let g = Digest.to_hex (Digest.string (geometry_key s)) in
  let out = ref [] in
  Array.iteri
    (fun i h -> if h > 0 then out := Printf.sprintf "%s:e%d" g i :: !out)
    s.cv_edge_hits;
  Array.iteri
    (fun i h -> if h > 0 then out := Printf.sprintf "%s:b%d" g i :: !out)
    s.cv_block_hits;
  List.sort String.compare !out

let cells_of snaps =
  List.sort_uniq String.compare (List.concat_map cell_keys snaps)

let fingerprint snaps =
  Digest.to_hex (Digest.string (String.concat "\n" (cells_of snaps)))

let of_snapshots snaps =
  let t = create () in
  List.iter
    (fun s ->
      let f = register_fn t ~name:s.cv_func ~succ:s.cv_succ in
      Array.iteri (fun i v -> f.f_blocks.(i) <- f.f_blocks.(i) + v) s.cv_block_hits;
      Array.iteri (fun i v -> f.f_edges.(i) <- f.f_edges.(i) + v) s.cv_edge_hits)
    snaps;
  t

(* --- merge ---------------------------------------------------------- *)

let add_into dst src =
  Array.iteri (fun i v -> dst.f_blocks.(i) <- dst.f_blocks.(i) + v) src.f_blocks;
  Array.iteri (fun i v -> dst.f_edges.(i) <- dst.f_edges.(i) + v) src.f_edges

let merge dst src =
  if dst == src then invalid_arg "Coverage.merge: dst and src are the same";
  List.iter
    (fun sf ->
      match Index.find_opt dst.index sf with
      | Some df -> add_into df sf
      | None ->
          add dst
            {
              sf with
              f_succ = Array.map Array.copy sf.f_succ;
              f_ebase = Array.copy sf.f_ebase;
              f_blocks = Array.copy sf.f_blocks;
              f_edges = Array.copy sf.f_edges;
            })
    (* oldest first, so registration order is preserved in [dst] *)
    (List.rev src.fns)

(* --- JSON ----------------------------------------------------------- *)

let int_array_json a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let snapshot_to_json s =
  Json.Obj
    [
      ("func", Json.Str s.cv_func);
      ( "succ",
        Json.List (Array.to_list (Array.map int_array_json s.cv_succ)) );
      ("blocks", int_array_json s.cv_block_hits);
      ("edges", int_array_json s.cv_edge_hits);
    ]

let to_json t = Json.List (List.map snapshot_to_json (snapshot t))

let fail fmt = Printf.ksprintf invalid_arg fmt

let int_array_of_json what = function
  | Json.List l ->
      Array.of_list
        (List.map
           (function
             | Json.Int i when i >= 0 -> i
             | _ -> fail "Coverage.snapshot_of_json: bad %s entry" what)
           l)
  | _ -> fail "Coverage.snapshot_of_json: %s is not an array" what

let snapshot_of_json j =
  let member k =
    match Json.member k j with
    | Some v -> v
    | None -> fail "Coverage.snapshot_of_json: missing %S" k
  in
  let cv_func =
    match member "func" with
    | Json.Str s -> s
    | _ -> fail "Coverage.snapshot_of_json: func is not a string"
  in
  let cv_succ =
    match member "succ" with
    | Json.List l -> Array.of_list (List.map (int_array_of_json "succ") l)
    | _ -> fail "Coverage.snapshot_of_json: succ is not an array"
  in
  let cv_block_hits = int_array_of_json "blocks" (member "blocks") in
  let cv_edge_hits = int_array_of_json "edges" (member "edges") in
  if Array.length cv_block_hits <> Array.length cv_succ then
    fail "Coverage.snapshot_of_json: %s: %d block counters for %d blocks"
      cv_func
      (Array.length cv_block_hits)
      (Array.length cv_succ);
  let expect_edges = n_edges cv_succ in
  if Array.length cv_edge_hits <> expect_edges then
    fail "Coverage.snapshot_of_json: %s: %d edge counters for %d edges"
      cv_func
      (Array.length cv_edge_hits)
      expect_edges;
  Array.iter
    (Array.iter (fun s ->
         if s < 0 || s >= Array.length cv_succ then
           fail "Coverage.snapshot_of_json: %s: successor %d out of range"
             cv_func s))
    cv_succ;
  { cv_func; cv_succ; cv_block_hits; cv_edge_hits }
