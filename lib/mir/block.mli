(** Basic blocks: a label, phi nodes, a straight-line body, a
    terminator. *)

type t = {
  label : string;
  phis : Instr.phi list;
  body : Instr.t list;
  term : Instr.term;
}

val mk : ?phis:Instr.phi list -> ?body:Instr.t list -> term:Instr.term -> string -> t

val defs : t -> Value.var list
(** All variables defined by this block (phi and instruction results). *)

val iter_uses : (Value.t -> unit) -> t -> unit
(** Apply a function to every operand read in the block: phi incoming
    values, instruction operands, terminator operands. *)

val map_operands : (Value.t -> Value.t) -> t -> t
(** Rewrite every operand in the block (phi incoming values, instruction
    operands, terminator operands). *)

val map_labels : (string -> string) -> t -> t
(** Rename branch targets and phi predecessor labels. *)
