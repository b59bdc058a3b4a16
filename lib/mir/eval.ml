(** Evaluation of MIR arithmetic, shared by the VM interpreter and the
    constant-folding passes so both agree exactly.

    Integer representation: a value of type [iW] with [W <= 32] is kept in
    canonical signed form (sign-extended into the OCaml int).  [i64] and
    [ptr] values are OCaml native ints; since OCaml ints are 63 bits wide,
    [i64] arithmetic wraps at 63 rather than 64 bits.  This is a documented
    substrate simplification (see DESIGN.md): addresses stay far below
    2^47, and the benchmark programs do not rely on 64-bit wraparound. *)

exception Div_by_zero
(** Raised on [sdiv]/[udiv]/[srem]/[urem] with zero divisor — undefined
    behavior in C; the VM turns it into a runtime error report. *)

(* Canonicalize [x] as a value of integer type [ty]: truncate and
   sign-extend for sub-64-bit widths. *)
let normalize (ty : Ty.t) x =
  match ty with
  | I1 -> x land 1
  | I8 -> (x land 0xff) - (if x land 0x80 <> 0 then 0x100 else 0)
  | I16 -> (x land 0xffff) - (if x land 0x8000 <> 0 then 0x10000 else 0)
  | I32 ->
      (x land 0xffffffff)
      - (if x land 0x80000000 <> 0 then 0x100000000 else 0)
  | I64 | Ptr -> x
  | F64 -> invalid_arg "Eval.normalize: float type"

(* Unsigned view of a canonical value of type [ty] (for [ty] <> I64/Ptr). *)
let unsigned (ty : Ty.t) x =
  match ty with
  | I1 -> x land 1
  | I8 -> x land 0xff
  | I16 -> x land 0xffff
  | I32 -> x land 0xffffffff
  | I64 | Ptr | F64 -> invalid_arg "Eval.unsigned: wide type"

(* Unsigned comparison of native ints viewed as 63-bit unsigned values. *)
let ucmp_native a b = compare (a lxor min_int) (b lxor min_int)

(* [normalize ty] is applied at each use rather than bound once as a
   partial application: a local closure would be allocated on every
   call, and the interpreter evaluates binops on its hot path. *)
let binop (op : Instr.binop) (ty : Ty.t) a b =
  match op with
  | Add -> normalize ty (a + b)
  | Sub -> normalize ty (a - b)
  | Mul -> normalize ty (a * b)
  | SDiv ->
      if b = 0 then raise Div_by_zero;
      normalize ty (a / b)
  | SRem ->
      if b = 0 then raise Div_by_zero;
      normalize ty (a mod b)
  | UDiv ->
      if b = 0 then raise Div_by_zero;
      if ty = Ty.I64 || ty = Ty.Ptr then
        (* 63-bit unsigned division via Int64 *)
        Int64.to_int
          (Int64.unsigned_div (Int64.of_int a) (Int64.of_int b))
      else normalize ty (unsigned ty a / unsigned ty b)
  | URem ->
      if b = 0 then raise Div_by_zero;
      if ty = Ty.I64 || ty = Ty.Ptr then
        Int64.to_int
          (Int64.unsigned_rem (Int64.of_int a) (Int64.of_int b))
      else normalize ty (unsigned ty a mod unsigned ty b)
  | Shl -> normalize ty (a lsl (b land 63))
  | LShr ->
      if ty = Ty.I64 || ty = Ty.Ptr then (a lsr (b land 63)) land max_int
      else normalize ty (unsigned ty a lsr (b land 63))
  | AShr -> normalize ty (a asr (b land 63))
  | And -> normalize ty (a land b)
  | Or -> normalize ty (a lor b)
  | Xor -> normalize ty (a lxor b)

let fbinop (op : Instr.fbinop) a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FMul -> a *. b
  | FDiv -> a /. b

(* Unsigned predicates: native unsigned order for [i64]/[ptr], the
   unsigned view of the canonical value for narrower types.  No local
   helper closure: this runs on the interpreter's hot path. *)
let icmp (op : Instr.icmp) (ty : Ty.t) a b =
  let wide = ty = Ty.I64 || ty = Ty.Ptr in
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> a < b
    | Sle -> a <= b
    | Sgt -> a > b
    | Sge -> a >= b
    | Ult -> if wide then ucmp_native a b < 0 else unsigned ty a < unsigned ty b
    | Ule ->
        if wide then ucmp_native a b <= 0 else unsigned ty a <= unsigned ty b
    | Ugt -> if wide then ucmp_native a b > 0 else unsigned ty a > unsigned ty b
    | Uge ->
        if wide then ucmp_native a b >= 0 else unsigned ty a >= unsigned ty b
  in
  if r then 1 else 0

let fcmp (op : Instr.fcmp) a b =
  let r =
    match op with
    | FEq -> a = b
    | FNe -> a <> b
    | FLt -> a < b
    | FLe -> a <= b
    | FGt -> a > b
    | FGe -> a >= b
  in
  if r then 1 else 0

(* Integer-to-integer / pointer casts on canonical representations. *)
let cast_int (c : Instr.cast) (from_ty : Ty.t) (to_ty : Ty.t) x =
  match c with
  | Zext -> normalize to_ty (unsigned from_ty x)
  | Sext -> normalize to_ty x (* already sign-extended canonically *)
  | Trunc -> normalize to_ty x
  | IntToPtr | PtrToInt | Bitcast -> x
  | SiToFp | FpToSi -> invalid_arg "Eval.cast_int: float cast"
