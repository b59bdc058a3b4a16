(** Parser for the textual MIR produced by {!Printer}.

    Hand-written and line-oriented, with two passes per function: the
    first records the type of every SSA definition (derivable from the
    instruction syntax alone), the second builds the instructions —
    allowing uses that lexically precede their definitions (loop phis). *)

exception Parse_error of int * string
(** (line number, message) *)

val parse_module : string -> Irmod.t
(** Raises {!Parse_error}. *)

val parse_module_res : string -> (Irmod.t, string) result
