(** Natural loop detection from back edges.

    A back edge is an edge [t -> h] where [h] dominates [t]; the natural
    loop of the edge is [h] plus all blocks that reach [t] without passing
    through [h].  Loops with the same header are merged.  Used by LICM and
    the loop unroller. *)

type loop = {
  header : int;
  body : int list;  (** all blocks of the loop, including the header *)
  latches : int list;  (** sources of back edges into the header *)
  depth : int;  (** nesting depth, outermost = 1 *)
  parent : int option;  (** header of the enclosing loop *)
}

type t = {
  loops : loop list;  (** outermost-first *)
  loop_of_block : (int, int) Hashtbl.t;
      (** block index -> header of the innermost containing loop *)
}

let build (cfg : Cfg.t) (dom : Dom.t) : t =
  (* collect back edges grouped by header *)
  let by_header : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun b succs ->
      if cfg.Cfg.reachable.(b) then
        List.iter
          (fun s ->
            if Dom.dominates dom s b then
              match Hashtbl.find_opt by_header s with
              | Some l -> l := b :: !l
              | None -> Hashtbl.add by_header s (ref [ b ]))
          succs)
    cfg.Cfg.succs;
  (* natural loop of each header *)
  let n = Cfg.n_blocks cfg in
  let raw_loops =
    Hashtbl.fold
      (fun header latches acc ->
        let in_loop = Array.make n false in
        in_loop.(header) <- true;
        let rec walk b =
          if not in_loop.(b) then begin
            in_loop.(b) <- true;
            List.iter walk cfg.Cfg.preds.(b)
          end
        in
        List.iter walk !latches;
        let body = ref [] in
        for b = n - 1 downto 0 do
          if in_loop.(b) then body := b :: !body
        done;
        (header, !body, List.sort compare !latches) :: acc)
      by_header []
  in
  (* nesting: loop A contains loop B if A's body contains B's header and
     A <> B *)
  let contains (_, body_a, _) (hb, _, _) = List.mem hb body_a in
  let loops =
    List.map
      (fun ((h, body, latches) as l) ->
        let enclosing =
          List.filter (fun ((h2, _, _) as l2) -> h2 <> h && contains l2 l)
            raw_loops
        in
        let depth = 1 + List.length enclosing in
        (* innermost enclosing loop = the one with max depth, i.e. smallest
           body *)
        let parent =
          match
            List.sort
              (fun (_, b1, _) (_, b2, _) ->
                compare (List.length b1) (List.length b2))
              enclosing
          with
          | [] -> None
          | (hp, _, _) :: _ -> Some hp
        in
        { header = h; body; latches; depth; parent })
      raw_loops
    |> List.sort (fun a b -> compare a.depth b.depth)
  in
  let loop_of_block = Hashtbl.create 16 in
  (* outermost first, so innermost writes last and wins *)
  List.iter
    (fun l -> List.iter (fun b -> Hashtbl.replace loop_of_block b l.header) l.body)
    loops;
  { loops; loop_of_block }

let innermost_header t b = Hashtbl.find_opt t.loop_of_block b

let find_loop t header = List.find_opt (fun l -> l.header = header) t.loops

(** Blocks outside the loop that the loop branches to. *)
let exits (cfg : Cfg.t) (l : loop) : int list =
  List.concat_map
    (fun b ->
      List.filter (fun s -> not (List.mem s l.body)) cfg.Cfg.succs.(b))
    l.body
  |> List.sort_uniq compare

(** The unique block outside the loop that jumps to the header, if any. *)
let preheader (cfg : Cfg.t) (l : loop) : int option =
  match
    List.filter (fun p -> not (List.mem p l.body)) cfg.Cfg.preds.(l.header)
  with
  | [ p ] -> if cfg.Cfg.succs.(p) = [ l.header ] then Some p else None
  | _ -> None
