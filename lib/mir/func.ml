(** MIR functions.

    Blocks are kept in a list with the entry block first.  [next_id] is the
    source of fresh SSA ids; passes that create values must allocate ids
    through {!fresh_var} so ids stay unique within the function. *)

type t = {
  fname : string;
  params : Value.var list;
  ret_ty : Ty.t option;
  mutable blocks : Block.t list;  (** entry block first; empty iff external *)
  mutable next_id : int;
  is_external : bool;
      (** declaration only: body lives in an uninstrumented library or the
          runtime; calls to it dispatch to the VM's builtin table *)
  mutable settled : Block.t list * string list;
      (** the function passes that last found nothing to change in
          exactly these blocks (compared physically) *)
}

let mk ?(is_external = false) ~name ~params ~ret_ty blocks =
  let max_id =
    List.fold_left
      (fun acc (b : Block.t) ->
        List.fold_left
          (fun acc (v : Value.var) -> max acc v.vid)
          acc (Block.defs b))
      (List.fold_left (fun acc (v : Value.var) -> max acc v.vid) (-1) params)
      blocks
  in
  {
    fname = name;
    params;
    ret_ty;
    blocks;
    next_id = max_id + 1;
    is_external;
    settled = ([], []);
  }

(** A function record of its own over the same (immutable) blocks: the
    copy's [blocks] and [next_id] change independently of [f]'s. *)
let copy f = { f with blocks = f.blocks }

let entry f =
  match f.blocks with
  | [] -> invalid_arg ("Func.entry: external function " ^ f.fname)
  | b :: _ -> b

(** Allocate a fresh SSA variable of type [ty]. *)
let fresh_var f ?(name = "t") ty : Value.var =
  let id = f.next_id in
  f.next_id <- id + 1;
  { Value.vid = id; vname = name; vty = ty }

let find_block f label =
  List.find_opt (fun (b : Block.t) -> String.equal b.label label) f.blocks

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "no block %s in %s" label f.fname)

(** Replace each block [b] by [g b] (dropping it on [None]), in order.
    [f.blocks] keeps its list when [g] returns every block itself, so a
    pass that changes nothing leaves the blocks physically as they were;
    the result says whether anything changed. *)
let filter_map_blocks f g =
  let blocks = Mi_support.Util.filter_map_keep g f.blocks in
  blocks != f.blocks
  && begin
       f.blocks <- blocks;
       true
     end

let map_blocks f g = filter_map_blocks f (fun b -> Some (g b))

(** Number of instructions (not counting phis and terminators). *)
let instr_count f =
  List.fold_left (fun acc (b : Block.t) -> acc + List.length b.body) 0 f.blocks

(** All SSA definitions in the function: params, phis, instruction results. *)
let all_defs f =
  f.params
  @ List.concat_map Block.defs f.blocks
