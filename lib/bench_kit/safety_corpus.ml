(** The artifact-style safety corpus (appendix A.5) as a library: small
    generated programs with heap, stack, and global out-of-bounds reads
    and writes, each with an oracle for the expected verdict of both
    instrumentations.

    [test_safety_corpus] runs every case against its oracle; the
    mutation engine ({!Mutation}) reuses the same programs as the
    killing test suite for check-deletion mutants.  The corpus is
    structured so that {e every} access check the instrumenter places in
    a generated [main] is the reporting check of at least one kind:

    - the body access is the reporting site of the classic kinds
      ([Just_past], [Past_class], underflows, ...);
    - [Init_oob] drives the {e init-loop store} out of bounds (the loop
      upper bound extends past the size class) while the body access
      stays in bounds — the init store check reports;
    - [Tail_oob] keeps init and body in bounds but reads past the size
      class in the {e trailing print} — the print load check reports.

    Expected verdicts follow the checkers' declared guarantees
    ([Checker.guarantees]): a checker reports exactly the kinds whose
    hazard class it guarantees.  For spatial kinds, [Exact] bounds
    (SoftBound) report every violation in an instrumented access;
    [Size_class] bounds (Low-Fat) pad allocations to their power-of-two
    size class, so accesses into the padding are not reported while
    accesses beyond the class or before the base are. *)

module Checker = Mi_core.Checker
module Config = Mi_core.Config

type region = Heap | Stack | Global
type elem = Char | Long
type access = Read | Write

type kind =
  | In_bounds
  | Last_elem
  | Just_past  (** first element past the object *)
  | Past_class  (** beyond the low-fat size class *)
  | Underflow_one
  | Underflow_far
  | Cross_end_width  (** 8-byte access straddling the exact bound *)
  | Init_oob  (** the init loop itself runs past the size class *)
  | Tail_oob  (** the trailing print reads past the size class *)
  | Uaf_init  (** the init loop writes a dead object (others stay live) *)
  | Uaf_use  (** the body access reads/writes a dead object *)
  | Uaf_tail  (** the trailing print reads a dead object *)
  | Double_free  (** the object is freed twice (heap only) *)
  | Temporal_ok  (** free after the last use: must stay clean everywhere *)

let regions = [ Heap; Stack; Global ]
let elems = [ Char; Long ]
let accesses = [ Read; Write ]

(** The spatial kinds, valid for every family. *)
let all_kinds =
  [
    In_bounds; Last_elem; Just_past; Past_class; Underflow_one; Underflow_far;
    Cross_end_width; Init_oob; Tail_oob;
  ]

(** Temporal kinds valid for a family of the given region.  Heap
    families free [malloc]ed objects; stack families materialize the
    dead object as a {e dangling stack reference} (a helper returns a
    pointer to its local array, dead once the frame exits).  Globals
    have static storage duration — temporal safety is trivial, so no
    temporal kinds exist for them. *)
let temporal_kinds_for = function
  | Heap -> [ Uaf_init; Uaf_use; Uaf_tail; Double_free; Temporal_ok ]
  | Stack -> [ Uaf_init; Uaf_use; Uaf_tail ]
  | Global -> []

let is_temporal_kind = function
  | Uaf_init | Uaf_use | Uaf_tail | Double_free | Temporal_ok -> true
  | _ -> false

let region_name = function Heap -> "heap" | Stack -> "stack" | Global -> "global"
let elem_name = function Char -> "char" | Long -> "long"
let access_name = function Read -> "read" | Write -> "write"

let kind_name = function
  | In_bounds -> "in_bounds"
  | Last_elem -> "last_elem"
  | Just_past -> "just_past"
  | Past_class -> "past_class"
  | Underflow_one -> "underflow1"
  | Underflow_far -> "underflow_far"
  | Cross_end_width -> "cross_end_width"
  | Init_oob -> "init_oob"
  | Tail_oob -> "tail_oob"
  | Uaf_init -> "uaf_init"
  | Uaf_use -> "uaf_use"
  | Uaf_tail -> "uaf_tail"
  | Double_free -> "double_free"
  | Temporal_ok -> "temporal_ok"

(* array extents chosen so that "just past" lands in low-fat padding *)
let n_elems = function Char -> 20 | Long -> 10
let elem_size = function Char -> 1 | Long -> 8

(* first index beyond the low-fat size class:
   object size char 20 -> class 32; long 80 -> class 128 *)
let past_class_index = function Char -> 40 | Long -> 17

let index_of_kind elem = function
  | In_bounds -> 1
  | Last_elem -> n_elems elem - 1
  | Just_past -> n_elems elem
  | Past_class -> past_class_index elem
  | Underflow_one -> -1
  | Underflow_far -> -50
  | Cross_end_width -> n_elems elem (* only used with the i64 overlay *)
  | Init_oob | Tail_oob -> 1 (* the body access stays in bounds *)
  | Uaf_init | Uaf_use | Uaf_tail | Double_free | Temporal_ok ->
      1 (* spatially in bounds: the violation, if any, is temporal *)

(** The hazard class a kind violates; [None] for the clean kinds. *)
let hazard_of_kind = function
  | In_bounds | Last_elem | Temporal_ok -> None
  | Just_past | Past_class | Underflow_one | Underflow_far | Cross_end_width
  | Init_oob | Tail_oob ->
      Some Checker.Spatial
  | Uaf_init | Uaf_use | Uaf_tail -> Some Checker.Uaf
  | Double_free -> Some Checker.Double_free

(* size-class geometry oracle mirroring the Low-Fat runtime *)
let size_class_detects elem kind =
  let size = n_elems elem * elem_size elem in
  let cls = Mi_support.Util.round_up_pow2 (size + 1) in
  match kind with
  | Cross_end_width ->
      (* 8-byte access at byte offset (size - 1) *)
      let off = size - 1 in
      off + 8 > cls
  | Init_oob | Tail_oob ->
      (* both reach past_class_index, past the class by construction *)
      (past_class_index elem * elem_size elem) + elem_size elem > cls
  | k ->
      let off = index_of_kind elem k * elem_size elem in
      let width = elem_size elem in
      off < 0 || off + width > cls

let guarantees approach hazard =
  List.mem hazard (Checker.find_exn approach).Checker.guarantees

(** Whether a clean (non-reporting) run of this case may legitimately
    end in a VM trap instead of a normal exit: the double-free program
    run under an approach that does not guarantee double frees, whose
    [free] forwards to the standard allocator and traps there ("free of
    non-allocated").  Callers that demand [Exited] must excuse these. *)
let may_trap approach kind =
  kind = Double_free && not (guarantees approach Checker.Double_free)

let spatial_program region elem access kind : string =
  let n = n_elems elem in
  let ty = elem_name elem in
  let decl =
    match region with
    | Heap ->
        Printf.sprintf "  %s *a = (%s *)malloc(%d * sizeof(%s));" ty ty n ty
    | Stack -> Printf.sprintf "  %s a[%d];" ty n
    | Global -> "  /* global */"
  in
  let global_decl =
    match region with
    | Global -> Printf.sprintf "%s a[%d];\n" ty n
    | _ -> ""
  in
  (* Init_oob: the loop bound extends one past the class-crossing index,
     so the loop's store check is the reporting site *)
  let init_bound =
    match kind with Init_oob -> past_class_index elem + 1 | _ -> n
  in
  let body =
    match kind with
    | Cross_end_width ->
        (* overlay an 8-byte access on the last byte of the object *)
        let off = (n * elem_size elem) - 1 in
        (match access with
        | Read -> Printf.sprintf "  print_int(*(long *)((char *)a + %d));" off
        | Write -> Printf.sprintf "  *(long *)((char *)a + %d) = 7;" off)
    | k -> (
        let idx = index_of_kind elem k in
        match access with
        | Read -> Printf.sprintf "  print_int(a[%d]);" idx
        | Write -> Printf.sprintf "  a[%d] = 7;" idx)
  in
  (* Tail_oob: the trailing print is the out-of-bounds access, so the
     print's load check is the reporting site *)
  let tail_index = match kind with Tail_oob -> past_class_index elem | _ -> 0 in
  Printf.sprintf
    {|%s
int main(void) {
%s
  long i;
  for (i = 0; i < %d; i++) a[i] = (%s)i;
%s
  print_int(a[%d]);
  return 0;
}
|}
    global_decl decl init_bound ty body tail_index

(* Temporal corpus programs.  Like the spatial ones, every program
   places exactly three access checks in [main] — the init-loop store,
   the body access, the trailing print — and each Uaf_* kind makes
   exactly one of them the unique reporting site (the accesses after the
   kill touch only the dead object; the others touch a live one), so
   deleting that check flips the verdict and the mutation engine can
   kill every temporal mutant. *)

let body_access ty access target idx =
  match access with
  | Read -> Printf.sprintf "  print_int(%s[%d]);" target idx
  | Write -> Printf.sprintf "  %s[%d] = (%s)7;" target idx ty

(* heap: the dead object is a freed malloc block *)
let temporal_heap_program elem access kind : string =
  let n = n_elems elem in
  let ty = elem_name elem in
  let alloc v = Printf.sprintf "  %s *%s = (%s *)malloc(%d * sizeof(%s));" ty v ty n ty in
  match kind with
  | Uaf_init ->
      (* only the init loop touches the dead object *)
      Printf.sprintf "int main(void) {\n%s\n%s\n  long i;\n  free(a);\n\
        \  for (i = 0; i < %d; i++) a[i] = (%s)i;\n%s\n  print_int(b[0]);\n\
        \  return 0;\n}\n"
        (alloc "a") (alloc "b") n ty (body_access ty access "b" 1)
  | Uaf_use ->
      (* only the body access touches the dead object *)
      Printf.sprintf "int main(void) {\n%s\n%s\n  long i;\n\
        \  for (i = 0; i < %d; i++) a[i] = (%s)i;\n  free(a);\n%s\n\
        \  print_int(b[0]);\n  return 0;\n}\n"
        (alloc "a") (alloc "b") n ty (body_access ty access "a" 1)
  | Uaf_tail ->
      (* only the trailing print touches the dead object *)
      Printf.sprintf "int main(void) {\n%s\n  long i;\n\
        \  for (i = 0; i < %d; i++) a[i] = (%s)i;\n%s\n  free(a);\n\
        \  print_int(a[0]);\n  return 0;\n}\n"
        (alloc "a") n ty (body_access ty access "a" 1)
  | Double_free ->
      Printf.sprintf "int main(void) {\n%s\n  long i;\n\
        \  for (i = 0; i < %d; i++) a[i] = (%s)i;\n%s\n  print_int(a[0]);\n\
        \  free(a);\n  free(a);\n  return 0;\n}\n"
        (alloc "a") n ty (body_access ty access "a" 1)
  | Temporal_ok ->
      Printf.sprintf "int main(void) {\n%s\n  long i;\n\
        \  for (i = 0; i < %d; i++) a[i] = (%s)i;\n%s\n  print_int(a[0]);\n\
        \  free(a);\n  return 0;\n}\n"
        (alloc "a") n ty (body_access ty access "a" 1)
  | _ -> invalid_arg "not a temporal kind"

(* stack: the dead object is a helper's local array, dead once the
   helper's frame exits (a dangling stack reference) *)
let temporal_stack_program elem access kind : string =
  let n = n_elems elem in
  let ty = elem_name elem in
  let mk = Printf.sprintf "%s *mk(void) {\n  %s x[%d];\n  return x;\n}\n" ty ty n in
  match kind with
  | Uaf_init ->
      (* the init loop writes through the dangling reference *)
      mk
      ^ Printf.sprintf "int main(void) {\n  %s b[%d];\n  %s *p;\n  long i;\n\
          \  p = mk();\n  for (i = 0; i < %d; i++) p[i] = (%s)i;\n%s\n\
          \  print_int(b[0]);\n  return 0;\n}\n"
          ty n ty n ty (body_access ty access "b" 1)
  | Uaf_use ->
      mk
      ^ Printf.sprintf "int main(void) {\n  %s a[%d];\n  %s *p;\n  long i;\n\
          \  for (i = 0; i < %d; i++) a[i] = (%s)i;\n  p = mk();\n%s\n\
          \  print_int(a[0]);\n  return 0;\n}\n"
          ty n ty n ty (body_access ty access "p" 1)
  | Uaf_tail ->
      mk
      ^ Printf.sprintf "int main(void) {\n  %s a[%d];\n  %s *p;\n  long i;\n\
          \  for (i = 0; i < %d; i++) a[i] = (%s)i;\n%s\n  p = mk();\n\
          \  print_int(p[0]);\n  return 0;\n}\n"
          ty n ty n ty (body_access ty access "a" 1)
  | _ -> invalid_arg "temporal stack kind without a stack realization"

let program region elem access kind : string =
  if is_temporal_kind kind then
    match region with
    | Heap -> temporal_heap_program elem access kind
    | Stack -> temporal_stack_program elem access kind
    | Global -> invalid_arg "no temporal kinds for globals"
  else spatial_program region elem access kind

(** Expected verdict of the oracle: does [approach] report a violation
    for this case?  Only for a hazard class it guarantees, and for a
    spatial one only beyond the extent its bounds cover. *)
let detects approach elem kind =
  match hazard_of_kind kind with
  | Some h when guarantees approach h ->
      h <> Checker.Spatial
      || (Checker.find_exn approach).Checker.precision = Checker.Exact
      || size_class_detects elem kind
  | _ -> false

(** The setup every corpus case runs under: the approach's basis
    configuration at O1 (all checks kept). *)
let setup approach : Harness.setup =
  {
    (Harness.with_config (Config.of_approach approach) Harness.baseline) with
    level = Mi_passes.Pipeline.O1;
  }

type family = { fam_region : region; fam_elem : elem; fam_access : access }

let family_name f =
  Printf.sprintf "%s_%s_%s" (region_name f.fam_region) (elem_name f.fam_elem)
    (access_name f.fam_access)

(** The 12 (region x elem x access) program families. *)
let families =
  List.concat_map
    (fun fam_region ->
      List.concat_map
        (fun fam_elem ->
          List.map
            (fun fam_access -> { fam_region; fam_elem; fam_access })
            accesses)
        elems)
    regions
