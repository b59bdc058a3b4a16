(** Pass interface and manager.

    Passes rewrite functions or modules in place and report whether they
    changed anything, which lets the manager iterate cleanup groups to a
    fixed point (bounded, to stay predictable). *)

open Mi_mir

type t = { name : string; run : Irmod.t -> bool }

(** Lift a per-function transformation to a module pass over defined,
    non-runtime functions.

    A function pass sees only the function's blocks, and a run that
    changes nothing leaves them physically as they were (every pass
    writes back only on change).  So a pass that found nothing in
    exactly these blocks finds nothing again: [f.settled] remembers
    which passes did, and they skip [f] until its blocks change. *)
let func_pass name (run_func : Func.t -> bool) : t =
  let run_settled (f : Func.t) =
    let blocks, passes = f.settled in
    if blocks == f.blocks && List.mem name passes then false
    else
      let changed = run_func f in
      if not changed then
        f.settled <-
          (if blocks == f.blocks then (blocks, name :: passes)
           else (f.blocks, [ name ]));
      changed
  in
  {
    name;
    run =
      (fun m ->
        List.fold_left
          (fun changed f -> run_settled f || changed)
          false (Irmod.defined_funcs m));
  }

(* [MI_PASS_DEBUG=1] prints each pass as it starts — the low-tech way to
   find a looping or crashing pass when tracing never gets to flush *)
let debug = try Sys.getenv "MI_PASS_DEBUG" = "1" with Not_found -> false

let debug_announce (p : t) (m : Irmod.t) =
  if debug then
    Printf.eprintf "[pass] %s (%d instrs)\n%!" p.name (Irmod.instr_count m)

let run_one (p : t) (m : Irmod.t) : bool =
  debug_announce p m;
  p.run m

(* With a recording tracer, each pass runs under its own span carrying
   the instruction-count delta it caused; counting costs a walk of the
   module, so it happens only then. *)
let traced_run tracer (p : t) (m : Irmod.t) : bool =
  match tracer with
  | Some tr when Mi_obs.Trace.recording tr ->
      debug_announce p m;
      let before = Irmod.instr_count m in
      Mi_obs.Trace.begin_span tr ~cat:"pass"
        ~args:[ ("instrs_before", Mi_obs.Trace.Aint before) ]
        p.name;
      let finish changed =
        let after = Irmod.instr_count m in
        Mi_obs.Trace.end_span tr
          ~args:
            [
              ("instrs_after", Mi_obs.Trace.Aint after);
              ("instrs_delta", Mi_obs.Trace.Aint (after - before));
              ("changed", Mi_obs.Trace.Astr (string_of_bool changed));
            ]
          p.name
      in
      let changed =
        try p.run m
        with e ->
          finish true;
          raise e
      in
      finish changed;
      changed
  | _ -> run_one p m

(** Run [passes] in order once; true if any changed the module. *)
let run_list ?tracer (passes : t list) (m : Irmod.t) : bool =
  List.fold_left
    (fun changed p -> traced_run tracer p m || changed)
    false passes

(** Iterate [passes] until no pass changes the module, at most
    [max_rounds] times. *)
let run_fixpoint ?tracer ?(max_rounds = 4) (passes : t list) (m : Irmod.t) :
    bool =
  let changed_any = ref false in
  let rec go n =
    if n < max_rounds && run_list ?tracer passes m then begin
      changed_any := true;
      go (n + 1)
    end
  in
  go 0;
  !changed_any

(** Call-effect summaries used by the optimization passes.  Calls into the
    check runtime may abort; unknown calls may do anything. *)
module Effects = struct
  let is_pure_call name =
    match Intrinsics.classify name with
    | Intrinsics.Pure -> true
    | _ -> false

  let removable_call name = Intrinsics.removable_if_unused name

  let may_abort_call name =
    if Intrinsics.is_builtin name then Intrinsics.may_abort name
    else true (* unknown callee: assume the worst *)

  let may_write_call name =
    if Intrinsics.is_builtin name then
      match Intrinsics.classify name with
      | Intrinsics.Pure -> false
      | Intrinsics.Read_meta -> false
      | Intrinsics.May_abort ->
          (* checks read nothing and write nothing in user memory *)
          false
      | Intrinsics.Effectful | Intrinsics.Allocating -> true
    else true

  (** Is this instruction free of side effects (it may still read
      memory)? Such instructions are removable when their result is
      unused. *)
  let removable (i : Instr.t) =
    match i.op with
    | Bin (_, _, _, _)
    | FBin _ | Icmp _ | Fcmp _ | Cast _ | Load _ | Gep _ | Select _
    | Alloca _ ->
        true
    | Store _ | Memcpy _ | Memset _ -> false
    | Call (callee, _) -> removable_call callee

  (** Can this instruction be executed speculatively (hoisted past
      branches and aborting calls)?  Loads are not speculatable; neither
      are divisions (divide-by-zero traps). *)
  let speculatable (i : Instr.t) =
    match i.op with
    | Bin ((SDiv | UDiv | SRem | URem), _, _, _) -> false
    | Bin _ | FBin _ | Icmp _ | Fcmp _ | Cast _ | Gep _ | Select _ -> true
    | Call (callee, _) -> is_pure_call callee
    | Load _ | Store _ | Memcpy _ | Memset _ | Alloca _ -> false

  (** Does the instruction possibly write user memory? *)
  let may_write (i : Instr.t) =
    match i.op with
    | Store _ | Memcpy _ | Memset _ -> true
    | Call (callee, _) -> may_write_call callee
    | _ -> false

  (** Does the instruction possibly abort or not return? *)
  let may_abort (i : Instr.t) =
    match i.op with
    | Call (callee, _) -> may_abort_call callee
    | _ -> false
end
