(** Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy,
    "A Simple, Fast Dominance Algorithm").

    Used by SSA construction, GVN, LICM, and the dominance-based check
    elimination of the paper's §5.3. *)

type t = {
  cfg : Cfg.t;
  idom : int array;
      (** immediate dominator per block; [idom.(0) = 0]; -1 if
          unreachable *)
  children : int list array;  (** dominator-tree children *)
  dfs_in : int array;
  dfs_out : int array;  (** O(1) dominance queries via DFS intervals *)
}

val build : Cfg.t -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]?  Reflexive;
    false when either block is unreachable. *)

val strictly_dominates : t -> int -> int -> bool

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry block and unreachable
    blocks. *)

val frontiers : t -> int list array
(** Dominance frontier of every block (for SSA phi placement). *)
