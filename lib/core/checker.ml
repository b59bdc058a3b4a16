(** The pluggable checker interface and its registry.

    A checker (SoftBound, Low-Fat, the temporal lock-and-key checker,
    ...) is the approach-specific half of the instrumentation pass: the
    generic half ([Mi_core.Instrument]) discovers targets (Table 1),
    memoizes witnesses over SSA definitions and drives placement, while
    everything that differs between approaches — what a witness is made
    of, how each definition kind sources one, which intrinsics maintain
    the invariant, and how a dereference check is spelled — lives behind
    a {!t} record resolved by name through {!find}.

    Checkers self-register at module-initialization time (see
    [Mi_core.Schemes]), mirroring the experiment registry of
    [Mi_bench_kit.Experiments]; registering a checker also registers its
    configuration basis in {!Mi_core.Config}, so CLI approach lookup,
    the experiment matrix and the instrumenter all share one namespace.

    A checker's runtime (one typed implementation per intrinsic, from
    which the VM derives the boxed builtin) is registered separately, on
    the VM side, through [Mi_runtimes] — the compiler half here emits
    calls {e by intrinsic name}, which is the contract binding the two
    halves together. *)

open Mi_mir

(* The types are documented in checker.mli. *)

type witness = Value.t array

type ctx = {
  config : Config.t;
  m : Irmod.t;
  f : Func.t;
  edit : Edit.t;
  mutable witness_of : Value.t -> witness;
  new_site : string -> Value.t;
  count_invariant : unit -> unit;
  set_call_ret : Edit.anchor -> witness -> unit;
  get_call_ret : Edit.anchor -> witness option;
}

type hazard = Spatial | Uaf | Double_free
type precision = Exact | Size_class

type t = {
  name : string;
  aliases : string list;
  descr : string;
  counter_ns : string;
  table_name : string;
  basis : Config.t;
  components : (string * string * Ty.t) array;
  guarantees : hazard list;
  precision : precision;
  wide : witness;
  w_const : ctx -> Value.t -> witness;
  w_global : ctx -> string -> witness;
  w_param : ctx -> Value.var -> idx:int -> witness;
  w_alloca : ctx -> Edit.anchor -> Value.var -> size:int -> witness;
  w_load : ctx -> Edit.anchor -> Value.var -> addr:Value.t -> witness;
  w_inttoptr : ctx -> Edit.anchor -> Value.var -> witness;
  w_cast_other : ctx -> Value.var -> witness;
  w_call :
    ctx ->
    Edit.anchor ->
    Value.var ->
    callee:string ->
    args:Value.t list ->
    witness option;
  w_call_fallback : ctx -> Edit.anchor -> Value.var -> witness;
  emit_ptr_store : ctx -> Itarget.ptr_store -> unit;
  emit_call : ctx -> Itarget.call -> unit;
  emit_ret : ctx -> Itarget.ptr_ret -> unit;
  emit_escape : ctx -> Itarget.ptr_escape_cast -> unit;
  emit_memop_invariant : ctx -> Itarget.memop -> unit;
  check_op :
    ptr:Value.t -> width:Value.t -> witness -> site:Value.t -> Instr.op;
  prepare_func : Config.t -> Func.t -> unit;
  module_ctor : Config.t -> Irmod.t -> Func.t option;
}

let is_temporal = function Spatial -> false | Uaf | Double_free -> true
let check_elim_sound c = not (List.exists is_temporal c.guarantees)

(* --- shared helpers for schemes -------------------------------------- *)

(* Keep in sync with Mi_vm.Layout; duplicated to avoid a core -> vm
   dependency (the instrumentation is compiler-side, the VM is the
   "hardware").  The verifier tests assert the values match. *)
let wide_bound = 0x7FFF_FFFF_FFFF

let vi64 k = Value.Int (Ty.I64, k)
let vptr k = Value.Int (Ty.Ptr, k)
let call1 name args = Instr.Call (name, args)

let anchor_str (a : Edit.anchor) =
  a.Edit.ablock ^ ":" ^ string_of_int a.Edit.apos

(* slot index of a pointer parameter on the shadow stack: 1 + its rank
   among the pointer-typed parameters *)
let ptr_param_slot (f : Func.t) idx =
  let rank = ref 0 in
  let result = ref None in
  List.iteri
    (fun i (p : Value.var) ->
      if Ty.is_ptr p.vty then begin
        incr rank;
        if i = idx then result := Some !rank
      end)
    f.params;
  !result

(** Replace every alloca of [f] with a call to [intrinsic (size)] — the
    mirrored/keyed stack-allocation pre-pass shared by the Low-Fat and
    temporal schemes. *)
let replace_allocas intrinsic (f : Func.t) : unit =
  let edit = Edit.create f in
  List.iter
    (fun (b : Block.t) ->
      List.iteri
        (fun pos (i : Instr.t) ->
          match i.op with
          | Instr.Alloca { size; _ } ->
              Edit.set_replacement edit
                { Edit.ablock = b.Block.label; apos = pos }
                { i with op = call1 intrinsic [ vi64 size ] }
          | _ -> ())
        b.body)
    f.blocks;
  Edit.apply edit

(* --- registry --------------------------------------------------------- *)

let registry : t list ref = ref []

let register (c : t) =
  if c.name <> c.basis.Config.approach then
    invalid_arg
      (Printf.sprintf "Checker.register: name %S <> basis approach %S" c.name
         c.basis.Config.approach);
  if List.exists (fun x -> x.name = c.name) !registry then
    invalid_arg ("Checker.register: duplicate checker " ^ c.name);
  Config.register_basis ~aliases:c.aliases c.basis;
  registry := !registry @ [ c ]

let find name =
  let n = String.lowercase_ascii name in
  List.find_opt (fun c -> c.name = n || List.mem n c.aliases) !registry

let find_exn name =
  match find name with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "unknown checker %S (known: %s)" name
           (String.concat ", " (List.map (fun c -> c.name) !registry)))

let known_names () = List.map (fun c -> c.name) !registry
let all () = !registry

let print_registry () =
  List.iter
    (fun c ->
      Printf.printf "%-12s %s%s\n" c.name c.descr
        (match c.aliases with
        | [] -> ""
        | al -> Printf.sprintf " (aliases: %s)" (String.concat ", " al)))
    !registry

let resolve name =
  match Config.find_approach name with
  | Some cfg -> Ok cfg
  | None ->
      Error
        (Printf.sprintf "unknown approach %s; registered approaches:\n%s" name
           (String.concat ""
              (List.map (Printf.sprintf "  %s\n") (Config.known_approaches ()))))
