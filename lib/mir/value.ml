(** SSA values and operands.

    A [var] is an SSA name: it is defined exactly once (as an instruction or
    phi destination, or as a function parameter) and identified by [vid],
    which is unique within its function.  [vname] is a hint for printing
    only; identity is [vid]. *)

type var = { vid : int; vname : string; vty : Ty.t }

type t =
  | Var of var
  | Int of Ty.t * int  (** typed integer immediate; [Int (Ptr, 0)] is null *)
  | Flt of float
  | Glob of string  (** address of a global; type [Ptr] *)
  | Fn of string  (** address of a function; type [Ptr] *)

let var_equal a b = a.vid = b.vid
let var_compare a b = compare a.vid b.vid

let ty_of = function
  | Var v -> v.vty
  | Int (ty, _) -> ty
  | Flt _ -> Ty.F64
  | Glob _ | Fn _ -> Ty.Ptr

let null = Int (Ty.Ptr, 0)
let i64 k = Int (Ty.I64, k)
let i32 k = Int (Ty.I32, k)
let i1 b = Int (Ty.I1, if b then 1 else 0)

let equal a b =
  match (a, b) with
  | Var x, Var y -> x.vid = y.vid
  | Int (t1, k1), Int (t2, k2) -> Ty.equal t1 t2 && k1 = k2
  | Flt x, Flt y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Glob g1, Glob g2 | Fn g1, Fn g2 -> String.equal g1 g2
  | _ -> false

(** Structural keys, for hashing values: two keys are equal exactly when
    the values are {!equal}, except that floats compare by bits with
    every NaN of one sign sharing a key ([-0.0] and [0.0] stay
    distinct). *)
type key =
  | K_var of int  (** [vid] *)
  | K_int of Ty.t * int
  | K_flt of int64
  | K_glob of string
  | K_fn of string

let nan_key = Int64.bits_of_float Float.nan
let neg_nan_key = Int64.bits_of_float (-.Float.nan)

let key = function
  | Var x -> K_var x.vid
  | Int (ty, k) -> K_int (ty, k)
  | Flt f when Float.is_nan f ->
      K_flt (if Float.sign_bit f then neg_nan_key else nan_key)
  | Flt f -> K_flt (Int64.bits_of_float f)
  | Glob g -> K_glob g
  | Fn f -> K_fn f

let var_to_string v = Printf.sprintf "%%%s.%d" v.vname v.vid

let to_string = function
  | Var v -> var_to_string v
  | Int (Ty.Ptr, 0) -> "null"
  | Int (ty, k) -> Printf.sprintf "%d:%s" k (Ty.to_string ty)
  | Flt f -> Printf.sprintf "%h" f
  | Glob g -> "@" ^ g
  | Fn f -> "&" ^ f

let pp fmt v = Format.pp_print_string fmt (to_string v)

(** Maps and sets over SSA variables, keyed by id. *)
module VMap = Map.Make (struct
  type t = var

  let compare = var_compare
end)

module VSet = Set.Make (struct
  type t = var

  let compare = var_compare
end)

module VTbl = Hashtbl.Make (struct
  type t = var

  let equal = var_equal
  let hash v = v.vid
end)
