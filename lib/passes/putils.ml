(** Shared utilities for the optimization passes. *)

open Mi_mir
module Cfg = Mi_analysis.Cfg

(** Substitute variables in the whole function: [subst] maps a variable to
    its replacement value, and chains [a -> b -> c] resolve to the end.
    Only the blocks that read a substituted variable are rewritten. *)
let substitute (f : Func.t) (subst : Value.t Value.VTbl.t) : unit =
  if Value.VTbl.length subst > 0 then begin
    let rec resolve v =
      match v with
      | Value.Var x -> (
          match Value.VTbl.find_opt subst x with
          | Some v' when not (Value.equal v v') -> resolve v'
          | _ -> v)
      | _ -> v
    in
    let reads_subst b =
      let exception Found in
      try
        Block.iter_uses
          (function
            | Value.Var x when Value.VTbl.mem subst x -> raise Found
            | _ -> ())
          b;
        false
      with Found -> true
    in
    ignore
      (Func.map_blocks f (fun b ->
           if reads_subst b then Block.map_operands resolve b else b)
        : bool)
  end

(** Number of reads of each variable in the function (operands of
    instructions, phis, terminators), indexed by [vid] over
    [0 .. f.next_id - 1]. *)
let use_counts (f : Func.t) : int array =
  let t = Array.make f.next_id 0 in
  let note = function Value.Var x -> t.(x.vid) <- t.(x.vid) + 1 | _ -> () in
  List.iter (Block.iter_uses note) f.blocks;
  t

(** Remove the blocks not reachable from entry by [cfg] — built from the
    current [f.blocks] — and drop phi incoming entries from them.
    Returns at once, [false], when every block is reachable; [true] if
    anything changed. *)
let remove_unreachable (cfg : Cfg.t) (f : Func.t) : bool =
  Array.exists not cfg.reachable
  &&
  let live l =
    match Cfg.find cfg l with
    | Some i -> cfg.reachable.(i)
    | None -> false
  in
  let live_incoming (p : Instr.phi) =
    List.for_all (fun (l, _) -> live l) p.incoming
  in
  Func.filter_map_blocks f (fun (b : Block.t) ->
      if not (live b.label) then None
      else if List.for_all live_incoming b.phis then Some b
      else
        Some
          {
            b with
            phis =
              List.map
                (fun (p : Instr.phi) ->
                  {
                    p with
                    incoming = List.filter (fun (l, _) -> live l) p.incoming;
                  })
                b.phis;
          })

(** Structural keys of pure instructions, for GVN's hash table (Click's
    hash-based value numbering).  Two keys are equal exactly when the
    instructions compute the same value: the same op and types over the
    same operands, commutative operands in key order.  Floats compare
    by bits, except that every NaN of one sign shares a key; [-0.0] and
    [0.0] stay distinct ({!Value.key}). *)
type key =
  | K_bin of Instr.binop * Ty.t * Value.key * Value.key
  | K_fbin of Instr.fbinop * Value.key * Value.key
  | K_icmp of Instr.icmp * Ty.t * Value.key * Value.key
  | K_fcmp of Instr.fcmp * Value.key * Value.key
  | K_cast of Instr.cast * Ty.t * Value.key * Ty.t
  | K_gep of Value.key * (int * Value.key) list  (** (stride, index) *)
  | K_select of Ty.t * Value.key * Value.key * Value.key
  | K_call of string * Value.key list

(** The key of a pure instruction; [None] for anything GVN must not
    merge (memory access, allocation, impure calls). *)
let op_key (op : Instr.op) : key option =
  let k = Value.key in
  match op with
  | Bin (o, ty, a, b) -> (
      let a = k a and b = k b in
      match o with
      | Add | Mul | And | Or | Xor ->
          Some
            (if compare a b <= 0 then K_bin (o, ty, a, b)
             else K_bin (o, ty, b, a))
      | _ -> Some (K_bin (o, ty, a, b)))
  | FBin (o, a, b) -> Some (K_fbin (o, k a, k b))
  | Icmp (o, ty, a, b) -> Some (K_icmp (o, ty, k a, k b))
  | Fcmp (o, a, b) -> Some (K_fcmp (o, k a, k b))
  | Cast (c, t1, x, t2) -> Some (K_cast (c, t1, k x, t2))
  | Gep (base, idxs) ->
      Some
        (K_gep
           ( k base,
             List.map (fun gi -> (gi.Instr.stride, k gi.Instr.idx)) idxs ))
  | Select (ty, c, a, b) -> Some (K_select (ty, k c, k a, k b))
  | Call (callee, args) when Pass.Effects.is_pure_call callee ->
      Some (K_call (callee, List.map k args))
  | _ -> None
