(** MIR verifier: structural well-formedness of functions and modules —
    unique SSA definitions, operand types, branch targets, phi/predecessor
    agreement.  Dominance of definitions over uses is checked separately
    by [Mi_analysis.Domcheck]. *)

type error = { where : string; what : string }
val error_to_string : error -> string

val verify_func : Func.t -> error list
val verify_module : Irmod.t -> error list

val assert_valid_module : Irmod.t -> unit
(** Raises [Failure] with all messages if the module is ill-formed. *)
