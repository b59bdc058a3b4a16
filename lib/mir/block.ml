(** Basic blocks: a label, phi nodes, a straight-line body, a terminator. *)

type t = {
  label : string;
  phis : Instr.phi list;
  body : Instr.t list;
  term : Instr.term;
}

let mk ?(phis = []) ?(body = []) ~term label = { label; phis; body; term }

(** All variables defined by this block (phi and instruction results). *)
let defs b =
  List.map (fun (p : Instr.phi) -> p.pdst) b.phis
  @ List.filter_map (fun (i : Instr.t) -> i.dst) b.body

(** Apply [g] to every operand read in the block: phi incoming values,
    instruction operands, terminator operands. *)
let iter_uses g b =
  List.iter
    (fun (p : Instr.phi) -> List.iter (fun (_, v) -> g v) p.incoming)
    b.phis;
  List.iter (Instr.iter_operands g) b.body;
  Instr.iter_term_operands g b.term

(** Rewrite every operand in the block (phi incoming values, instruction
    operands, terminator operands) with [f]. *)
let map_operands f b =
  {
    b with
    phis =
      List.map
        (fun (p : Instr.phi) ->
          { p with incoming = List.map (fun (l, v) -> (l, f v)) p.incoming })
        b.phis;
    body = List.map (Instr.map_operands f) b.body;
    term = Instr.map_term_operands f b.term;
  }

(** Rename branch targets and phi predecessor labels with [f]. *)
let map_labels f b =
  let term : Instr.term =
    match b.term with
    | Br l -> Br (f l)
    | Cbr (c, l1, l2) -> Cbr (c, f l1, f l2)
    | (Ret _ | Unreachable) as t -> t
  in
  {
    b with
    phis =
      List.map
        (fun (p : Instr.phi) ->
          { p with incoming = List.map (fun (l, v) -> (f l, v)) p.incoming })
        b.phis;
    term;
  }
