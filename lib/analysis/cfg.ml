(** Control-flow graph of a function, with blocks numbered densely.

    Block 0 is always the entry block.  Unreachable blocks are included in
    the numbering (analyses that care filter on [reachable]). *)

open Mi_mir

(* label tables compare with [String.equal], not the generic compare *)
module Labels = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  func : Func.t;
  blocks : Block.t array;  (** index -> block *)
  index_of : int Labels.t;  (** label -> index *)
  succs : int list array;
  preds : int list array;
  reachable : bool array;  (** from entry *)
}

let build (f : Func.t) : t =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let index_of = Labels.create n in
  Array.iteri (fun i (b : Block.t) -> Labels.replace index_of b.label i) blocks;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  (* backwards, so that each preds list comes out in ascending order *)
  for i = n - 1 downto 0 do
    let ss =
      List.map
        (fun l ->
          match Labels.find_opt index_of l with
          | Some j -> j
          | None -> invalid_arg ("Cfg.build: unknown label " ^ l))
        (Instr.successors blocks.(i).Block.term)
    in
    succs.(i) <- ss;
    List.iter (fun j -> preds.(j) <- i :: preds.(j)) ss
  done;
  let reachable = Array.make n false in
  let rec dfs i =
    if not reachable.(i) then begin
      reachable.(i) <- true;
      List.iter dfs succs.(i)
    end
  in
  if n > 0 then dfs 0;
  { func = f; blocks; index_of; succs; preds; reachable }

let n_blocks t = Array.length t.blocks

let find t label = Labels.find_opt t.index_of label

let index t label =
  match find t label with
  | Some i -> i
  | None -> invalid_arg ("Cfg.index: unknown label " ^ label)

let block t i = t.blocks.(i)
let label t i = t.blocks.(i).Block.label

(** Blocks in reverse postorder of the depth-first walk from entry
    (unreachable blocks excluded). *)
let rev_postorder t : int array =
  let n = n_blocks t in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs t.succs.(i);
      order := i :: !order
    end
  in
  if n > 0 then dfs 0;
  Array.of_list !order

(** Postorder (reverse of [rev_postorder]). *)
let postorder t : int array =
  let rpo = rev_postorder t in
  let n = Array.length rpo in
  Array.init n (fun i -> rpo.(n - 1 - i))
