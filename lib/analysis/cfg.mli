(** Control-flow graph of a function, with blocks numbered densely.
    Block 0 is always the entry block; unreachable blocks keep their
    numbers and are marked in {!field-reachable}. *)

open Mi_mir

module Labels : Hashtbl.S with type key = string

type t = {
  func : Func.t;
  blocks : Block.t array;  (** index -> block *)
  index_of : int Labels.t;  (** label -> index *)
  succs : int list array;
  preds : int list array;
  reachable : bool array;  (** from entry *)
}

val build : Func.t -> t
val n_blocks : t -> int

val find : t -> string -> int option
(** Index of the block with the given label, if any. *)

val index : t -> string -> int
(** Index of the block with the given label; raises on unknown labels. *)

val block : t -> int -> Block.t
val label : t -> int -> string

val rev_postorder : t -> int array
(** Blocks in reverse postorder of the DFS from entry (unreachable blocks
    excluded); the iteration order the dominator solver wants. *)

val postorder : t -> int array
