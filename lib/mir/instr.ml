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

(** Casts carry both source and destination types. [Bitcast] reinterprets
    bits between same-sized types (e.g. [i64]<->[f64]); [IntToPtr] and
    [PtrToInt] are the casts §4.4 of the paper discusses. *)
type cast = Zext | Sext | Trunc | Bitcast | IntToPtr | PtrToInt | SiToFp | FpToSi

(** One scaled index of a [gep]: contributes [stride * idx] bytes. *)
type gep_index = { stride : int; idx : Value.t }

type op =
  | Bin of binop * Ty.t * Value.t * Value.t
  | FBin of fbinop * Value.t * Value.t
  | Icmp of icmp * Ty.t * Value.t * Value.t
  | Fcmp of fcmp * Value.t * Value.t
  | Cast of cast * Ty.t * Value.t * Ty.t  (** from-type, value, to-type *)
  | Load of Ty.t * Value.t  (** [Load (ty, addr)] *)
  | Store of Ty.t * Value.t * Value.t  (** [Store (ty, value, addr)] *)
  | Gep of Value.t * gep_index list  (** base address + scaled indices *)
  | Select of Ty.t * Value.t * Value.t * Value.t  (** cond, if-true, if-false *)
  | Call of string * Value.t list  (** direct call; result in [dst] *)
  | Alloca of { size : int; align : int }  (** stack allocation, bytes *)
  | Memcpy of Value.t * Value.t * Value.t  (** dst, src, len-bytes *)
  | Memset of Value.t * Value.t * Value.t  (** dst, byte, len-bytes *)

type t = { dst : Value.var option; op : op }

type phi = { pdst : Value.var; incoming : (string * Value.t) list }
(** [incoming] pairs a predecessor block label with the value flowing in
    along that edge. *)

type term =
  | Ret of Value.t option
  | Br of string
  | Cbr of Value.t * string * string  (** cond, then-label, else-label *)
  | Unreachable

let mk ?dst op : t = { dst; op }

(** Operand values read by an instruction (not including the destination). *)
let operands (i : t) : Value.t list =
  match i.op with
  | Bin (_, _, a, b) | Icmp (_, _, a, b) | FBin (_, a, b) | Fcmp (_, a, b) ->
      [ a; b ]
  | Cast (_, _, v, _) -> [ v ]
  | Load (_, addr) -> [ addr ]
  | Store (_, v, addr) -> [ v; addr ]
  | Gep (base, idxs) -> base :: List.map (fun gi -> gi.idx) idxs
  | Select (_, c, a, b) -> [ c; a; b ]
  | Call (_, args) -> args
  | Alloca _ -> []
  | Memcpy (a, b, c) | Memset (a, b, c) -> [ a; b; c ]

(** [List.iter g (operands i)], without building the list. *)
let iter_operands g (i : t) =
  match i.op with
  | Bin (_, _, a, b) | Icmp (_, _, a, b) | FBin (_, a, b) | Fcmp (_, a, b) ->
      g a;
      g b
  | Cast (_, _, v, _) | Load (_, v) -> g v
  | Store (_, v, addr) ->
      g v;
      g addr
  | Gep (base, idxs) ->
      g base;
      List.iter (fun gi -> g gi.idx) idxs
  | Select (_, c, a, b) | Memcpy (c, a, b) | Memset (c, a, b) ->
      g c;
      g a;
      g b
  | Call (_, args) -> List.iter g args
  | Alloca _ -> ()

(** Rewrite every operand of [i] with [f]. *)
let map_operands f (i : t) : t =
  let op =
    match i.op with
    | Bin (o, ty, a, b) -> Bin (o, ty, f a, f b)
    | FBin (o, a, b) -> FBin (o, f a, f b)
    | Icmp (o, ty, a, b) -> Icmp (o, ty, f a, f b)
    | Fcmp (o, a, b) -> Fcmp (o, f a, f b)
    | Cast (c, t1, v, t2) -> Cast (c, t1, f v, t2)
    | Load (ty, addr) -> Load (ty, f addr)
    | Store (ty, v, addr) -> Store (ty, f v, f addr)
    | Gep (base, idxs) ->
        Gep (f base, List.map (fun gi -> { gi with idx = f gi.idx }) idxs)
    | Select (ty, c, a, b) -> Select (ty, f c, f a, f b)
    | Call (callee, args) -> Call (callee, List.map f args)
    | Alloca a -> Alloca a
    | Memcpy (a, b, c) -> Memcpy (f a, f b, f c)
    | Memset (a, b, c) -> Memset (f a, f b, f c)
  in
  { i with op }

let map_term_operands f (t : term) : term =
  match t with
  | Ret (Some v) -> Ret (Some (f v))
  | Ret None | Unreachable | Br _ -> t
  | Cbr (c, l1, l2) -> Cbr (f c, l1, l2)

let iter_term_operands g = function
  | Ret (Some v) | Cbr (v, _, _) -> g v
  | Ret None | Unreachable | Br _ -> ()

let term_operands = function
  | Ret (Some v) -> [ v ]
  | Ret None | Unreachable | Br _ -> []
  | Cbr (c, _, _) -> [ c ]

(** Successor labels of a terminator. *)
let successors = function
  | Ret _ | Unreachable -> []
  | Br l -> [ l ]
  | Cbr (_, l1, l2) -> if String.equal l1 l2 then [ l1 ] else [ l1; l2 ]

(** Result type of an operation, if it produces a value. *)
let result_ty (op : op) : Ty.t option =
  match op with
  | Bin (_, ty, _, _) -> Some ty
  | FBin _ -> Some Ty.F64
  | Icmp _ | Fcmp _ -> Some Ty.I1
  | Cast (_, _, _, to_ty) -> Some to_ty
  | Load (ty, _) -> Some ty
  | Store _ -> None
  | Gep _ -> Some Ty.Ptr
  | Select (ty, _, _, _) -> Some ty
  | Call _ -> None (* determined by the dst var, if any *)
  | Alloca _ -> Some Ty.Ptr
  | Memcpy _ | Memset _ -> None

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | SDiv -> "sdiv"
  | UDiv -> "udiv"
  | SRem -> "srem"
  | URem -> "urem"
  | Shl -> "shl"
  | LShr -> "lshr"
  | AShr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let fbinop_to_string = function
  | FAdd -> "fadd"
  | FSub -> "fsub"
  | FMul -> "fmul"
  | FDiv -> "fdiv"

let icmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Ugt -> "ugt"
  | Uge -> "uge"

let fcmp_to_string = function
  | FEq -> "feq"
  | FNe -> "fne"
  | FLt -> "flt"
  | FLe -> "fle"
  | FGt -> "fgt"
  | FGe -> "fge"

let cast_to_string = function
  | Zext -> "zext"
  | Sext -> "sext"
  | Trunc -> "trunc"
  | Bitcast -> "bitcast"
  | IntToPtr -> "inttoptr"
  | PtrToInt -> "ptrtoint"
  | SiToFp -> "sitofp"
  | FpToSi -> "fptosi"
