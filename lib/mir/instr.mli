(** MIR instructions, phi nodes, and block terminators. *)

type binop =
  | Add
  | Sub
  | Mul
  | SDiv
  | UDiv
  | SRem
  | URem
  | Shl
  | LShr
  | AShr
  | And
  | Or
  | Xor

type fbinop = FAdd | FSub | FMul | FDiv

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type fcmp = FEq | FNe | FLt | FLe | FGt | FGe

(** Casts carry both source and destination types.  [IntToPtr] and
    [PtrToInt] are the casts §4.4 of the paper analyzes. *)
type cast = Zext | Sext | Trunc | Bitcast | IntToPtr | PtrToInt | SiToFp | FpToSi

type gep_index = { stride : int; idx : Value.t }
(** One scaled index of a [gep]: contributes [stride * idx] bytes. *)

type op =
  | Bin of binop * Ty.t * Value.t * Value.t
  | FBin of fbinop * Value.t * Value.t
  | Icmp of icmp * Ty.t * Value.t * Value.t
  | Fcmp of fcmp * Value.t * Value.t
  | Cast of cast * Ty.t * Value.t * Ty.t  (** from-type, value, to-type *)
  | Load of Ty.t * Value.t  (** [Load (ty, addr)] *)
  | Store of Ty.t * Value.t * Value.t  (** [Store (ty, value, addr)] *)
  | Gep of Value.t * gep_index list  (** base address + scaled indices *)
  | Select of Ty.t * Value.t * Value.t * Value.t  (** cond, then, else *)
  | Call of string * Value.t list  (** direct call; result in [dst] *)
  | Alloca of { size : int; align : int }  (** stack allocation, bytes *)
  | Memcpy of Value.t * Value.t * Value.t  (** dst, src, len (memmove) *)
  | Memset of Value.t * Value.t * Value.t  (** dst, byte, len *)

type t = { dst : Value.var option; op : op }

type phi = { pdst : Value.var; incoming : (string * Value.t) list }
(** [incoming] pairs a predecessor block label with the value flowing in
    along that edge. *)

type term =
  | Ret of Value.t option
  | Br of string
  | Cbr of Value.t * string * string  (** cond, then-label, else-label *)
  | Unreachable

val mk : ?dst:Value.var -> op -> t

val operands : t -> Value.t list
(** Operand values read by an instruction (not the destination). *)

val iter_operands : (Value.t -> unit) -> t -> unit
(** [List.iter g (operands i)], in the same order, without the list. *)

val map_operands : (Value.t -> Value.t) -> t -> t
val map_term_operands : (Value.t -> Value.t) -> term -> term
val term_operands : term -> Value.t list
val iter_term_operands : (Value.t -> unit) -> term -> unit

val successors : term -> string list
(** Successor labels, deduplicated. *)

val result_ty : op -> Ty.t option
(** Result type of an operation; [None] for void ops and for [Call]
    (whose result type is given by the destination variable). *)

val binop_to_string : binop -> string
val fbinop_to_string : fbinop -> string
val icmp_to_string : icmp -> string
val fcmp_to_string : fcmp -> string
val cast_to_string : cast -> string
