(** Deferred-edit buffer for function rewriting.

    Instrumentation decides what to insert while walking the original
    function — whose instructions are addressed by [(block label,
    position)] anchors — and applies every edit in a single rebuild, so
    positions never shift underneath the walk. *)

open Mi_mir

type anchor = { ablock : string; apos : int }
(** Position of an instruction in the original (pre-edit) function. *)

type t

val create : Func.t -> t

val fresh : t -> ?name:string -> Ty.t -> Value.var
(** Allocate a fresh SSA variable in the function being edited. *)

val insert_entry : t -> Instr.t -> unit
(** Append to the instructions prepended to the entry block (executed in
    insertion order). *)

val insert_before : t -> anchor -> Instr.t -> unit
val insert_after : t -> anchor -> Instr.t -> unit

val insert_at_end : t -> string -> Instr.t -> unit
(** Insert just before the terminator of the named block. *)

val set_replacement : t -> anchor -> Instr.t -> unit
(** Replace the anchored instruction. At most one replacement per anchor. *)

val add_phi : t -> string -> Instr.phi -> unit
(** Add a phi to the named block. *)

val emit_entry : t -> ?name:string -> Ty.t -> Instr.op -> Value.t
(** [insert_entry] an instruction computing a fresh value; returns it. *)

val emit_after : t -> anchor -> ?name:string -> Ty.t -> Instr.op -> Value.t

val apply : t -> unit
(** Rebuild the function with all recorded edits applied (in place). *)
