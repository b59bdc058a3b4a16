(** Textual form of MIR modules.  The syntax round-trips through
    {!Parser}: for every module [m], [Parser.parse_module
    (Printer.module_to_string m)] succeeds and prints back identically —
    checked by property tests. *)

val value_str : Value.t -> string
val instr_to_string : Instr.t -> string
val func_to_string : Func.t -> string
val module_to_string : Irmod.t -> string

val escape_bytes : string -> string
(** The escaping used inside [bytes "..."] initializer fields. *)
