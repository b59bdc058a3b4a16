(** Canonical counted-loop recognition: a header induction phi with a
    constant init, constant positive step along every latch, and a
    single [Icmp (Slt|Ult) iv bound] header exit against a constant
    bound.  Gives the induction variable the {e exact} value interval
    [[init, last]] that the check-elimination passes (hoisting with
    range widening, static in-bounds proofs) rely on. *)

open Mi_mir

type counted = {
  iv : Value.var;  (** the induction phi defined in the header *)
  init : int;  (** first value (preheader edge), [init < bound] *)
  step : int;  (** constant per-iteration increment, > 0 *)
  bound : int;  (** exclusive upper bound of the header test *)
  last : int;  (** largest value taken inside the body *)
}

val in_body : Loops.loop -> int -> bool
(** Is block index [b] part of the loop's body (header included)? *)

val counted_loop : Cfg.t -> Loops.loop -> counted option
(** Recognize a canonical counted loop: preheader present, header test
    is the only exit, induction phi with constant init and uniform
    constant positive step, at least one iteration.  When [Some], the
    body executes exactly for induction values
    [init, init+step, ..., last]. *)
