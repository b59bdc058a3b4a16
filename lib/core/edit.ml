(** Deferred-edit buffer for function rewriting.

    The instrumentation decides *what* to insert while walking the original
    function (whose instructions are addressed as [(block label, position)]
    pairs) and applies all edits in a single rebuild at the end, so
    positions never shift under it.  Per anchor instruction, edits can be
    inserted before it, after it, or replace it; blocks can receive new
    phis and instructions before their terminator; the entry block can be
    prepended to. *)

open Mi_mir

type anchor = { ablock : string; apos : int }

(* the edits of one block: per instruction position, what goes before
   and after it (both reversed) and its replacement *)
type slot = {
  mutable before : Instr.t list;
  mutable after : Instr.t list;
  mutable repl : Instr.t option;
}

type block_edits = {
  slots : slot option array;  (** by position in the original body *)
  mutable at_end : Instr.t list;  (** before the terminator; reversed *)
  mutable phis : Instr.phi list;  (** reversed *)
}

type t = {
  func : Func.t;
  entry_pre : Instr.t list ref;  (** reversed *)
  sizes : (string, int) Hashtbl.t;  (** body length by label *)
  edits : (string, block_edits) Hashtbl.t;  (** edited blocks only *)
}

let create (func : Func.t) =
  let sizes = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) -> Hashtbl.replace sizes b.label (List.length b.body))
    func.blocks;
  { func; entry_pre = ref []; sizes; edits = Hashtbl.create 16 }

let block_edits t label =
  match Hashtbl.find_opt t.edits label with
  | Some e -> e
  | None ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.sizes label) in
      let e = { slots = Array.make n None; at_end = []; phis = [] } in
      Hashtbl.add t.edits label e;
      e

let slot t (a : anchor) =
  let e = block_edits t a.ablock in
  if a.apos < 0 || a.apos >= Array.length e.slots then
    invalid_arg
      (Printf.sprintf "Edit: no instruction %s:%d" a.ablock a.apos);
  match e.slots.(a.apos) with
  | Some s -> s
  | None ->
      let s = { before = []; after = []; repl = None } in
      e.slots.(a.apos) <- Some s;
      s

(** Fresh SSA variable in the function being edited. *)
let fresh t ?name ty = Func.fresh_var t.func ?name ty

let insert_entry t i = t.entry_pre := i :: !(t.entry_pre)

let insert_before t anchor i =
  let s = slot t anchor in
  s.before <- i :: s.before

let insert_after t anchor i =
  let s = slot t anchor in
  s.after <- i :: s.after

let insert_at_end t block i =
  let e = block_edits t block in
  e.at_end <- i :: e.at_end

let set_replacement t anchor i =
  let s = slot t anchor in
  if s.repl <> None then
    invalid_arg "Edit.set_replacement: anchor already replaced";
  s.repl <- Some i

let add_phi t block (p : Instr.phi) =
  let e = block_edits t block in
  e.phis <- p :: e.phis

(* convenience emitters returning the defined value *)

let emit_entry t ?name ty op : Value.t =
  let dst = fresh t ?name ty in
  insert_entry t (Instr.mk ~dst op);
  Var dst

let emit_after t anchor ?name ty op : Value.t =
  let dst = fresh t ?name ty in
  insert_after t anchor (Instr.mk ~dst op);
  Var dst

let emit_before t anchor ?name ty op : Value.t =
  let dst = fresh t ?name ty in
  insert_before t anchor (Instr.mk ~dst op);
  Var dst

(** Rebuild the function with all recorded edits applied.  The edited
    function is rebuilt in place (same [Func.t]); anchors refer to the
    original layout, and blocks without edits are kept as they are. *)
let apply (t : t) : unit =
  let f = t.func in
  let entry_label =
    match f.blocks with b :: _ -> b.Block.label | [] -> ""
  in
  ignore
    (Func.map_blocks f (fun (b : Block.t) ->
         let pre =
           if String.equal b.label entry_label then List.rev !(t.entry_pre)
           else []
         in
         match Hashtbl.find_opt t.edits b.label with
         | None -> if pre = [] then b else { b with body = pre @ b.body }
         | Some e ->
             let rec rebuild pos = function
               | [] -> List.rev e.at_end
               | i :: rest -> (
                   let rest = rebuild (pos + 1) rest in
                   match e.slots.(pos) with
                   | None -> i :: rest
                   | Some s ->
                       List.rev_append s.before
                         (Option.value ~default:i s.repl
                         :: List.rev_append s.after rest))
             in
             {
               b with
               phis = b.phis @ List.rev e.phis;
               body = pre @ rebuild 0 b.body;
             })
      : bool)
