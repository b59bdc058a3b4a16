(** MIR functions: blocks in order (entry first) plus a fresh-variable
    source. *)

type t = {
  fname : string;
  params : Value.var list;
  ret_ty : Ty.t option;
  mutable blocks : Block.t list;  (** entry block first; empty iff external *)
  mutable next_id : int;  (** source of fresh SSA ids — use {!fresh_var} *)
  is_external : bool;
      (** declaration only: the body lives in another translation unit or
          the runtime's builtin table *)
  mutable settled : Block.t list * string list;
      (** the function passes that last found nothing to change in
          exactly these blocks (compared physically); kept by
          [Mi_passes.Pass.func_pass] *)
}

val mk :
  ?is_external:bool ->
  name:string ->
  params:Value.var list ->
  ret_ty:Ty.t option ->
  Block.t list ->
  t
(** Builds the function and initializes [next_id] past every id used. *)

val copy : t -> t
(** Shallow copy: new mutable fields, shared immutable blocks.  Passes
    and {!fresh_var} on the copy leave the original untouched. *)

val entry : t -> Block.t
val fresh_var : t -> ?name:string -> Ty.t -> Value.var
val find_block : t -> string -> Block.t option
val find_block_exn : t -> string -> Block.t

val filter_map_blocks : t -> (Block.t -> Block.t option) -> bool
(** Replace each block [b] by [g b] (dropping it on [None]), in order.
    [blocks] keeps its list — physically — when [g] returns every block
    itself; the result says whether anything changed. *)

val map_blocks : t -> (Block.t -> Block.t) -> bool
(** {!filter_map_blocks} without dropping. *)

val iter_instrs : t -> (Block.t -> Instr.t -> unit) -> unit
val instr_count : t -> int
val all_defs : t -> Value.var list
