(** SSA values and operands. *)

type var = { vid : int; vname : string; vty : Ty.t }
(** An SSA name: defined exactly once (instruction/phi destination or
    function parameter).  Identity is [vid], unique within a function;
    [vname] is a printing hint. *)

type t =
  | Var of var
  | Int of Ty.t * int  (** typed integer immediate; [Int (Ptr, 0)] is null *)
  | Flt of float
  | Glob of string  (** address of a global; type [Ptr] *)
  | Fn of string  (** address of a function; type [Ptr] *)

val var_equal : var -> var -> bool
val var_compare : var -> var -> int
val ty_of : t -> Ty.t

val null : t
val i64 : int -> t
val i32 : int -> t
val i1 : bool -> t

val equal : t -> t -> bool
(** Structural equality ([Var]s by id). *)

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

val key : t -> key


val var_to_string : var -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Maps, sets and hash tables over SSA variables, keyed by id. *)

module VMap : Map.S with type key = var
module VSet : Set.S with type elt = var
module VTbl : Hashtbl.S with type key = var
