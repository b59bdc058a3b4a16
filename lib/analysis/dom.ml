(** Dominator tree and dominance frontiers.

    Implementation of Cooper, Harvey, Kennedy — "A Simple, Fast Dominance
    Algorithm".  Used by SSA construction (mem2reg), GVN, LICM, and the
    dominance-based check elimination of §5.3 of the paper. *)

type t = {
  cfg : Cfg.t;
  idom : int array;  (** immediate dominator; [idom.(0) = 0]; -1 if unreachable *)
  children : int list array;  (** dominator-tree children *)
  dfs_in : int array;
  dfs_out : int array;  (** dominance query via DFS intervals *)
}

let build (cfg : Cfg.t) : t =
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.rev_postorder cfg in
  (* position of each block in reverse postorder *)
  let rpo_pos = Array.make n (-1) in
  Array.iteri (fun pos b -> rpo_pos.(b) <- pos) rpo;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_pos.(!f1) > rpo_pos.(!f2) do
        f1 := idom.(!f1)
      done;
      while rpo_pos.(!f2) > rpo_pos.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> 0 then begin
          (* pick first processed predecessor *)
          let new_idom = ref (-1) in
          List.iter
            (fun p ->
              if idom.(p) <> -1 then
                if !new_idom = -1 then new_idom := p
                else new_idom := intersect p !new_idom)
            cfg.preds.(b);
          if !new_idom <> -1 && idom.(b) <> !new_idom then begin
            idom.(b) <- !new_idom;
            changed := true
          end
        end)
      rpo
  done;
  let children = Array.make n [] in
  for b = n - 1 downto 1 do
    if idom.(b) <> -1 then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  (* DFS numbering of the dominator tree for O(1) dominance queries *)
  let dfs_in = Array.make n (-1) in
  let dfs_out = Array.make n (-1) in
  let counter = ref 0 in
  let rec dfs b =
    dfs_in.(b) <- !counter;
    incr counter;
    List.iter dfs children.(b);
    dfs_out.(b) <- !counter;
    incr counter
  in
  if n > 0 then dfs 0;
  { cfg; idom; children; dfs_in; dfs_out }

(** [dominates t a b]: does block [a] dominate block [b]?  Reflexive.
    False when either block is unreachable. *)
let dominates t a b =
  t.dfs_in.(a) >= 0 && t.dfs_in.(b) >= 0
  && t.dfs_in.(a) <= t.dfs_in.(b)
  && t.dfs_out.(b) <= t.dfs_out.(a)

let strictly_dominates t a b = a <> b && dominates t a b

let idom t b = if b = 0 then None else if t.idom.(b) = -1 then None else Some t.idom.(b)

(** Dominance frontier per block (Cooper-Harvey-Kennedy §4). *)
let frontiers (t : t) : int list array =
  let n = Cfg.n_blocks t.cfg in
  let df = Array.make n [] in
  for b = 0 to n - 1 do
    let preds = t.cfg.preds.(b) in
    if List.length preds >= 2 && t.dfs_in.(b) >= 0 then
      List.iter
        (fun p ->
          if t.dfs_in.(p) >= 0 then begin
            let runner = ref p in
            while !runner <> t.idom.(b) do
              if not (List.mem b df.(!runner)) then
                df.(!runner) <- b :: df.(!runner);
              runner := t.idom.(!runner)
            done
          end)
        preds
  done;
  df
