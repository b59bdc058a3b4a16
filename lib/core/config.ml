(** Instrumentation configuration.

    Mirrors the MemInstrument command-line flags listed in the paper's
    artifact appendix (A.6): the approach selection ([-mi-config]), the
    mode ([-mi-mode=geninvariants]), the dominance-based check elimination
    ([-mi-opt-dominance]), and the SoftBound policies for size-zero global
    declarations and integer-to-pointer casts.

    The approach is an open name resolved against a registry of
    configuration bases: each checker scheme registers its basis (and
    aliases) through {!register_basis} when it registers itself in
    [Mi_core.Checker], so adding a checker never touches this module. *)

type approach = string

type mode =
  | Full  (** witnesses + invariants + dereference checks *)
  | Geninvariants
      (** witnesses + invariants only — the "metadata" configuration of
          Figures 10/11, measuring the cost of maintaining the approach's
          invariant without any access checks *)
  | Noop  (** leave the module untouched (baseline) *)

type t = {
  approach : approach;
  mode : mode;
  opt_dominance : bool;
      (** eliminate checks dominated by an equivalent check (§5.3) *)
  opt_hoist : bool;
      (** hoist loop checks to a widened preheader check (requires the
          checker's abort-on-failure semantics to permit early abort) *)
  opt_static : bool;
      (** delete checks the constraint pass proves in-bounds statically
          (CHOP-style value-range propagation) *)
  sb_size_zero_wide_upper : bool;
      (** [-mi-sb-size-zero-wide-upper]: extern globals declared without a
          size get a wide upper bound instead of null bounds (§4.3) *)
  sb_inttoptr_wide : bool;
      (** [-mi-sb-inttoptr-wide-bounds]: pointers cast from integers get
          wide bounds instead of null bounds (§4.4) *)
  sb_wrapper_checks : bool;
      (** safety checks inside C-library wrappers; disabled by default for
          runtime comparability (§5.1.2) *)
  lf_stack : bool;  (** Low-Fat stack-variable protection [12] *)
  lf_globals : bool;  (** Low-Fat global-variable protection [11] *)
}

(** The paper's SoftBound configuration basis (appendix A.6). *)
let softbound =
  {
    approach = "softbound";
    mode = Full;
    opt_dominance = false;
    opt_hoist = false;
    opt_static = false;
    sb_size_zero_wide_upper = true;
    sb_inttoptr_wide = true;
    sb_wrapper_checks = false;
    lf_stack = false;
    lf_globals = false;
  }

(** The paper's Low-Fat Pointers configuration basis (appendix A.6). *)
let lowfat =
  {
    approach = "lowfat";
    mode = Full;
    opt_dominance = false;
    opt_hoist = false;
    opt_static = false;
    sb_size_zero_wide_upper = true;
    sb_inttoptr_wide = true;
    sb_wrapper_checks = false;
    lf_stack = true;
    lf_globals = true;
  }

(** The temporal lock-and-key configuration basis (CETS-style). *)
let temporal =
  {
    approach = "temporal";
    mode = Full;
    opt_dominance = false;
    opt_hoist = false;
    opt_static = false;
    sb_size_zero_wide_upper = true;
    sb_inttoptr_wide = true;
    sb_wrapper_checks = false;
    lf_stack = false;
    lf_globals = false;
  }

(* --- approach-basis registry ---------------------------------------- *)

(* Populated by checker schemes at module-initialization time (see
   [Mi_core.Checker.register] and [Mi_core.Schemes]); kept in
   registration order so enumerations are deterministic. *)
let bases : (string * (string list * t)) list ref = ref []

let register_basis ?(aliases = []) (c : t) =
  if List.mem_assoc c.approach !bases then
    invalid_arg ("Config.register_basis: duplicate approach " ^ c.approach);
  bases := !bases @ [ (c.approach, (aliases, c)) ]

(* an optional caller-imposed filter on the enumeration (mi-experiments
   [--approach]): lookups stay total — an experiment pinned to one
   approach keeps working — only the default enumeration narrows *)
let restriction : string list option ref = ref None

let known_approaches () =
  let all = List.map fst !bases in
  match !restriction with
  | None -> all
  | Some keep -> List.filter (fun n -> List.mem n keep) all

let find_approach name =
  let n = String.lowercase_ascii name in
  List.find_map
    (fun (nm, (aliases, c)) ->
      if nm = n || List.mem n aliases then Some c else None)
    !bases

let of_approach name =
  match find_approach name with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "unknown approach %S (known: %s)" name
           (String.concat ", " (known_approaches ())))

let restrict_approaches names =
  restriction := Some (List.map (fun n -> (of_approach n).approach) names)

(** The "optimized" configurations of Figures 9-11. *)
let optimized c = { c with opt_dominance = true }

(** Every check-elimination pass on: dominance, loop-invariant hoisting
    with range widening, and the static in-bounds constraint pass — the
    configuration the [checkelim] experiment measures.  Each pass is
    still subject to the checker's capability veto at instrumentation
    time. *)
let optimized_full c =
  { c with opt_dominance = true; opt_hoist = true; opt_static = true }

(** The "metadata" configurations of Figures 10/11. *)
let metadata_only c = { c with mode = Geninvariants }

let approach_name (a : approach) : string = a

let to_string c =
  String.concat ""
    [
      c.approach;
      (match c.mode with
      | Full -> ""
      | Geninvariants -> "+geninvariants"
      | Noop -> "+noop");
      (if c.opt_dominance then "+domopt" else "");
      (if c.opt_hoist then "+hoistopt" else "");
      (if c.opt_static then "+staticopt" else "");
      (if c.sb_size_zero_wide_upper then "" else "+sz0null");
      (if c.sb_inttoptr_wide then "" else "+i2pnull");
      (if c.sb_wrapper_checks then "+wrapchecks" else "");
      (if c.approach = "lowfat" then
         (if c.lf_stack then "" else "+nostack")
         ^ if c.lf_globals then "" else "+noglobals"
       else "");
    ]

(* Inverse of [to_string]: the basis of the named approach with every
   field [to_string] encodes reset to the value its absence stands for,
   then each token applied. *)
let of_string s =
  match String.split_on_char '+' s with
  | [] -> assert false
  | name :: tokens -> (
      match find_approach name with
      | None -> Error (Printf.sprintf "unknown approach %S" name)
      | Some basis ->
          let lowfat = basis.approach = "lowfat" in
          let unset =
            {
              basis with
              mode = Full;
              opt_dominance = false;
              opt_hoist = false;
              opt_static = false;
              sb_size_zero_wide_upper = true;
              sb_inttoptr_wide = true;
              sb_wrapper_checks = false;
              lf_stack = (if lowfat then true else basis.lf_stack);
              lf_globals = (if lowfat then true else basis.lf_globals);
            }
          in
          List.fold_left
            (fun acc tok ->
              Result.bind acc (fun c ->
                  match tok with
                  | "geninvariants" -> Ok { c with mode = Geninvariants }
                  | "noop" -> Ok { c with mode = Noop }
                  | "domopt" -> Ok { c with opt_dominance = true }
                  | "hoistopt" -> Ok { c with opt_hoist = true }
                  | "staticopt" -> Ok { c with opt_static = true }
                  | "sz0null" -> Ok { c with sb_size_zero_wide_upper = false }
                  | "i2pnull" -> Ok { c with sb_inttoptr_wide = false }
                  | "wrapchecks" -> Ok { c with sb_wrapper_checks = true }
                  | "nostack" when lowfat -> Ok { c with lf_stack = false }
                  | "noglobals" when lowfat -> Ok { c with lf_globals = false }
                  | _ ->
                      Error
                        (Printf.sprintf "unknown configuration token %S in %S"
                           tok s)))
            (Ok unset) tokens)
