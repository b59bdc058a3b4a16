(** Canonical counted-loop recognition.

    A {e counted loop} is the shape the scalar optimizer leaves hot
    loops in at every extension point past LICM/GVN: an induction phi
    in the header that starts at a constant, advances by a constant
    positive step along every latch, and is tested once — in the
    header — against a constant exclusive bound, with that test as the
    loop's only exit.  The check-elimination passes (loop-invariant
    check hoisting with range widening, and the static in-bounds
    constraint pass) both key on this shape: it gives the induction
    variable a closed-form value interval [[init, last]] that is exact,
    not an approximation. *)

open Mi_mir

type counted = {
  iv : Value.var;  (** the induction phi defined in the header *)
  init : int;  (** first value (from the preheader edge) *)
  step : int;  (** constant per-iteration increment, > 0 *)
  bound : int;  (** exclusive upper bound of the header test *)
  last : int;
      (** largest value the induction variable takes inside the body:
          [init + step * ((bound - 1 - init) / step)] *)
}

let in_body (l : Loops.loop) b = List.mem b l.Loops.body

(* The defining instruction of a variable inside one block, if any. *)
let def_in_block (b : Block.t) (x : Value.var) : Instr.t option =
  List.find_opt
    (fun (i : Instr.t) ->
      match i.Instr.dst with
      | Some d -> Value.var_equal d x
      | None -> false)
    b.Block.body

(* Does [v] advance [iv] by a constant positive step?  The latch value
   must be [iv + step] (either operand order) with the addition defined
   anywhere in the loop body. *)
let step_of (cfg : Cfg.t) (l : Loops.loop) (iv : Value.var) (v : Value.t) :
    int option =
  match v with
  | Value.Var x ->
      let def =
        List.fold_left
          (fun acc bi ->
            match acc with
            | Some _ -> acc
            | None -> def_in_block (Cfg.block cfg bi) x)
          None l.Loops.body
      in
      (match def with
      | Some { Instr.op = Instr.Bin (Instr.Add, _, a, b); _ } -> (
          match (a, b) with
          | Value.Var y, Value.Int (_, k) when Value.var_equal y iv && k > 0 ->
              Some k
          | Value.Int (_, k), Value.Var y when Value.var_equal y iv && k > 0 ->
              Some k
          | _ -> None)
      | _ -> None)
  | _ -> None

(** Recognize [l] as a canonical counted loop.  Requirements:

    - the loop has a preheader (so there is one entry edge);
    - the header terminator is a conditional branch on an
      [Icmp (Slt|Ult) iv bound] defined in the header, with [bound] a
      constant, branching into the body when true and out of the loop
      when false;
    - the header test is the {e only} exit: no other body block
      branches outside the loop;
    - [iv] is a header phi whose preheader incoming is a constant and
      whose incoming along {e every} latch is [iv + step] for one
      constant [step > 0];
    - the loop runs at least one iteration ([init < bound]).

    Under these conditions the body executes exactly for the induction
    values [init, init+step, ..., last] — the interval the caller may
    treat as exact. *)
let counted_loop (cfg : Cfg.t) (l : Loops.loop) : counted option =
  match Loops.preheader cfg l with
  | None -> None
  | Some pre -> (
      let header = Cfg.block cfg l.Loops.header in
      (* single-exit: only the header may branch out of the loop *)
      let single_exit =
        List.for_all
          (fun bi ->
            bi = l.Loops.header
            || List.for_all (fun s -> in_body l s) cfg.Cfg.succs.(bi))
          l.Loops.body
      in
      if not single_exit then None
      else
        match header.Block.term with
        | Instr.Cbr (Value.Var cond, t_lbl, e_lbl) -> (
            let t_idx = Cfg.index cfg t_lbl and e_idx = Cfg.index cfg e_lbl in
            if not (in_body l t_idx && not (in_body l e_idx)) then None
            else
              match def_in_block header cond with
              | Some
                  {
                    Instr.op =
                      Instr.Icmp
                        ((Instr.Slt | Instr.Ult), _, Value.Var iv, Value.Int (_, bound));
                    _;
                  } -> (
                  let phi =
                    List.find_opt
                      (fun (p : Instr.phi) -> Value.var_equal p.Instr.pdst iv)
                      header.Block.phis
                  in
                  match phi with
                  | None -> None
                  | Some p -> (
                      let incoming_of lbl =
                        List.assoc_opt lbl p.Instr.incoming
                      in
                      let init =
                        match incoming_of (Cfg.label cfg pre) with
                        | Some (Value.Int (_, k)) -> Some k
                        | _ -> None
                      in
                      let steps =
                        List.map
                          (fun latch ->
                            match incoming_of (Cfg.label cfg latch) with
                            | Some v -> step_of cfg l iv v
                            | None -> None)
                          l.Loops.latches
                      in
                      match (init, steps) with
                      | Some init, s :: rest
                        when s <> None && List.for_all (( = ) s) rest ->
                          let step = Option.get s in
                          if init >= bound then None
                          else
                            Some
                              {
                                iv;
                                init;
                                step;
                                bound;
                                last = init + (step * ((bound - 1 - init) / step));
                              }
                      | _ -> None))
              | _ -> None)
        | _ -> None)
