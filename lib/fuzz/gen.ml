(** Generator v2: random, spatially-safe MiniC programs over the {e
    full} language surface, for differential fuzzing.

    Where the retired [Progen] exercised only [long] scalars and
    modulo-indexed arrays, this generator reaches every construct the
    paper's Table 1 discussion singles out as hard for instrumentations:

    - all integer C types ([char]/[int]/[long]) as locals, globals and
      array elements;
    - structs with nested field access, pointers to structs ([->]) and
      struct copies via [memcpy] (the §5.1.2 idiom);
    - pointers and pointer arithmetic, kept in bounds by construction;
    - the byte intrinsics [memcpy]/[memset]/[memmove] over generated
      buffers (including overlapping [memmove]);
    - int↔ptr round-trips (§4.4) — the integer never reaches program
      output, so results stay address-independent;
    - size-less [extern T a[];] declarations whose definition lives in a
      sibling translation unit (§4.3);
    - multi-function call graphs, including pointer-taking helpers.

    Every program records which grammar {e productions} it used, so a
    coverage test can prove the generator never silently regresses to a
    sliver of the surface, and the arrays it creates as {e sites} — the
    places a known out-of-bounds access can be injected to derive an
    unsafe mutant ({!mutate}).

    Safety by construction: all indices are reduced modulo the extent
    ([((e % n + n) % n)]), all intrinsic lengths are bounded by the
    smallest involved object, and no pointer or address-derived integer
    ever flows into program output.  A generated program must therefore
    behave identically at every optimization level, under either
    instrumentation, at every extension point, and under either VM
    dispatch mode. *)

module Rng = Mi_support.Rng
module Bench = Mi_bench_kit.Bench

type elem = Char | Int | Long

let elem_name = function Char -> "char" | Int -> "int" | Long -> "long"
let elem_size = function Char -> 1 | Int -> 4 | Long -> 8
let elems = [| Char; Int; Long |]

type region = Stack | Heap | Global | Extern

let region_name = function
  | Stack -> "stack"
  | Heap -> "heap"
  | Global -> "global"
  | Extern -> "extern"

(** An injectable array site: an object [main] can reach by name, with
    its true geometry.  [si_wide_sb] marks size-less extern
    declarations, where SoftBound only has a wide upper bound (§4.3) and
    an overflow past the definition is {e by design} not reported — the
    justification of the mutant whitelist. *)
type site = {
  si_array : string;
  si_extent : int;  (** elements *)
  si_elem : elem;
  si_region : region;
  si_wide_sb : bool;
}

type prog = {
  p_seed : int;
  p_sources : Bench.source list;
  p_sites : site list;
  p_frees : site list;
      (** heap sites the program frees in its epilogue — after every
          digest print, so the safe program never touches a dead object.
          Temporal mutants ({!mutate_temporal}) splice after these
          frees; spatial mutants ({!mutate}) splice before them. *)
  p_productions : string list;  (** sorted, deduplicated *)
  p_features : int list;
      (** enabled feature indices ([0..n_features-1]), sorted — the
          campaign driver scores these against the VM coverage each seed
          discovers and boosts the winners ({!generate}'s [boost]) *)
}

(** The full production catalog.  The grammar-coverage test asserts that
    a fixed seed block exercises {e exactly} this set: a missing tag
    means the generator regressed; an unknown tag means the catalog is
    stale. *)
let all_productions =
  [
    "call.helper";
    "call.ptr_helper";
    "cast.int_ptr";
    "cond";
    "extern.size_less";
    "global.array";
    "global.scalar";
    "heap.array";
    "heap.free";
    "if";
    "incdec";
    "intrinsic.memcpy";
    "intrinsic.memmove";
    "intrinsic.memset";
    "local.array";
    "loop.do";
    "loop.for";
    "loop.while";
    "opassign";
    "ptr.arith";
    "ptr.deref";
    "ptr.index";
    "struct.access";
    "struct.arrow";
    "struct.def";
    "struct.memcpy";
    "struct.nested";
    "type.char";
    "type.int";
    "type.long";
  ]

(* ------------------------------------------------------------------ *)
(* Generation context                                                  *)
(* ------------------------------------------------------------------ *)

type ctx = {
  rng : Rng.t;
  buf : Buffer.t;
  mutable n_names : int;
  prods : (string, unit) Hashtbl.t;
  scalars : (string * elem) list ref;  (** assignable, printable *)
  readonly : string list ref;  (** loop counters: read-only *)
  arrays : site list ref;  (** arrays in scope *)
  ptrs : (string * elem * int) list ref;
      (** pointer name, element, in-bounds extent from its base *)
  spaths : (string * elem) list ref;  (** struct field paths in scope *)
  funcs : string list ref;  (** helpers taking one long *)
  pfuncs : string list ref;  (** helpers taking a long pointer *)
}

let prod ctx p = Hashtbl.replace ctx.prods p ()

let elem_prod ctx e =
  prod ctx
    (match e with Char -> "type.char" | Int -> "type.int" | Long -> "type.long")

let pf ctx fmt = Printf.ksprintf (Buffer.add_string ctx.buf) fmt

let fresh ctx stem =
  ctx.n_names <- ctx.n_names + 1;
  Printf.sprintf "%s%d" stem ctx.n_names

let pick ctx l = List.nth l (Rng.int ctx.rng (List.length l))

let readable_scalars ctx =
  List.map fst !(ctx.scalars) @ !(ctx.readonly)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* always-in-bounds index into an extent-[n] object *)
let rec gen_index ctx extent : string =
  let e = gen_expr ctx 1 in
  Printf.sprintf "((%s %% %d + %d) %% %d)" e extent extent extent

(* an arithmetic expression over everything readable in scope; the
   result is a number, never an address *)
and gen_expr ctx depth : string =
  let leaf () =
    match Rng.int ctx.rng 8 with
    | 0 -> string_of_int (Rng.int_range ctx.rng (-20) 20)
    | 1 | 2 when readable_scalars ctx <> [] ->
        pick ctx (readable_scalars ctx)
    | 3 | 4 when !(ctx.arrays) <> [] ->
        let s = pick ctx !(ctx.arrays) in
        Printf.sprintf "%s[%s]" s.si_array (gen_index ctx s.si_extent)
    | 5 when !(ctx.spaths) <> [] ->
        let path, _ = pick ctx !(ctx.spaths) in
        prod ctx "struct.access";
        path
    | 6 when !(ctx.ptrs) <> [] ->
        let p, _, rem = pick ctx !(ctx.ptrs) in
        prod ctx "ptr.index";
        Printf.sprintf "%s[%s]" p (gen_index ctx rem)
    | _ -> string_of_int (Rng.int_range ctx.rng 1 9)
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int ctx.rng 12 with
    | 0 | 1 ->
        Printf.sprintf "(%s + %s)" (gen_expr ctx (depth - 1))
          (gen_expr ctx (depth - 1))
    | 2 ->
        Printf.sprintf "(%s - %s)" (gen_expr ctx (depth - 1))
          (gen_expr ctx (depth - 1))
    | 3 ->
        Printf.sprintf "(%s * %s)"
          (gen_expr ctx (depth - 1))
          (string_of_int (Rng.int_range ctx.rng 1 5))
    | 4 ->
        Printf.sprintf "(%s / %d)" (gen_expr ctx (depth - 1))
          (Rng.int_range ctx.rng 1 7)
    | 5 ->
        Printf.sprintf "(%s %% %d)" (gen_expr ctx (depth - 1))
          (Rng.int_range ctx.rng 2 17)
    | 6 ->
        (* bit ops: mask keeps magnitudes tame *)
        let op = pick ctx [ "&"; "|"; "^" ] in
        Printf.sprintf "(%s %s %d)" (gen_expr ctx (depth - 1)) op
          (Rng.int_range ctx.rng 1 63)
    | 7 ->
        if Rng.bool ctx.rng then
          Printf.sprintf "(%s >> %d)" (gen_expr ctx (depth - 1))
            (Rng.int_range ctx.rng 1 4)
        else
          Printf.sprintf "((%s & 1023) << %d)"
            (gen_expr ctx (depth - 1))
            (Rng.int_range ctx.rng 1 4)
    | 8 when !(ctx.funcs) <> [] ->
        prod ctx "call.helper";
        Printf.sprintf "%s(%s)" (pick ctx !(ctx.funcs))
          (gen_expr ctx (depth - 1))
    | 9 ->
        prod ctx "cond";
        (* the lowerer requires ternary arm types to agree modulo decay
           (it cannot insert conversions after the arm blocks close), so
           pin both arms to [long] with explicit casts *)
        Printf.sprintf "(%s > %s ? (long)(%s) : (long)(%s))"
          (gen_expr ctx (depth - 1))
          (gen_expr ctx 0)
          (gen_expr ctx (depth - 1))
          (gen_expr ctx (depth - 1))
    | _ -> leaf ()

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let scalar_decl ctx ~indent =
  let pad = String.make indent ' ' in
  let e = Rng.choose ctx.rng elems in
  elem_prod ctx e;
  let v = fresh ctx "v" in
  pf ctx "%s%s %s = %s;\n" pad (elem_name e) v (gen_expr ctx 2);
  ctx.scalars := (v, e) :: !(ctx.scalars)

let rec gen_stmt ctx ~indent ~depth =
  let pad = String.make indent ' ' in
  match Rng.int ctx.rng 14 with
  | 0 -> scalar_decl ctx ~indent
  | 1 when !(ctx.scalars) <> [] ->
      pf ctx "%s%s = %s;\n" pad
        (fst (pick ctx !(ctx.scalars)))
        (gen_expr ctx depth)
  | 2 when !(ctx.arrays) <> [] ->
      let s = pick ctx !(ctx.arrays) in
      pf ctx "%s%s[%s] = %s;\n" pad s.si_array
        (gen_index ctx s.si_extent)
        (gen_expr ctx depth)
  | 3 when !(ctx.ptrs) <> [] ->
      let p, _, rem = pick ctx !(ctx.ptrs) in
      prod ctx "ptr.index";
      pf ctx "%s%s[%s] = %s;\n" pad p (gen_index ctx rem)
        (gen_expr ctx depth)
  | 4 when !(ctx.ptrs) <> [] ->
      let p, _, rem = pick ctx !(ctx.ptrs) in
      prod ctx "ptr.deref";
      let off = Rng.int ctx.rng rem in
      if Rng.bool ctx.rng then
        pf ctx "%s*(%s + %d) = %s;\n" pad p off (gen_expr ctx depth)
      else pf ctx "%sacc += *(%s + %d);\n" pad p off
  | 5 when !(ctx.spaths) <> [] ->
      let path, e = pick ctx !(ctx.spaths) in
      prod ctx "struct.access";
      elem_prod ctx e;
      pf ctx "%s%s = %s;\n" pad path (gen_expr ctx depth)
  | 6 when !(ctx.scalars) <> [] ->
      prod ctx "if";
      let s = fst (pick ctx !(ctx.scalars)) in
      let cond =
        if Rng.bool ctx.rng then
          Printf.sprintf "%s > %s" s (gen_expr ctx 1)
        else begin
          (* short-circuiting condition *)
          let op = if Rng.bool ctx.rng then "&&" else "||" in
          Printf.sprintf "%s > %s %s %s < %s" s (gen_expr ctx 0) op s
            (gen_expr ctx 0)
        end
      in
      pf ctx "%sif (%s) { %s = %s - 1; } else { %s = %s + 2; }\n" pad cond s
        s s s
  | 7 when !(ctx.scalars) <> [] ->
      prod ctx "opassign";
      let s = fst (pick ctx !(ctx.scalars)) in
      let op = pick ctx [ "+="; "-="; "^=" ] in
      pf ctx "%s%s %s %s;\n" pad s op (gen_expr ctx 1)
  | 8 when !(ctx.scalars) <> [] ->
      prod ctx "incdec";
      let s = fst (pick ctx !(ctx.scalars)) in
      pf ctx "%s%s%s;\n" pad s (if Rng.bool ctx.rng then "++" else "--")
  | 9 when !(ctx.pfuncs) <> [] ->
      (* pointer-taking helper over any long array in scope *)
      let longs =
        List.filter
          (fun s -> s.si_elem = Long && s.si_extent >= 4)
          !(ctx.arrays)
      in
      if longs = [] then pf ctx "%sacc += 1;\n" pad
      else begin
        prod ctx "call.ptr_helper";
        let s = pick ctx longs in
        pf ctx "%sacc += %s(%s);\n" pad (pick ctx !(ctx.pfuncs)) s.si_array
      end
  | 10 when !(ctx.funcs) <> [] ->
      prod ctx "call.helper";
      pf ctx "%sacc += %s(%s);\n" pad (pick ctx !(ctx.funcs))
        (gen_expr ctx 1)
  | _ when !(ctx.scalars) <> [] ->
      pf ctx "%sacc += %s;\n" pad (fst (pick ctx !(ctx.scalars)))
  | _ -> pf ctx "%sacc += 1;\n" pad

and gen_loop ctx ~indent ~depth =
  let pad = String.make indent ' ' in
  let i = fresh ctx "i" in
  let n = Rng.int_range ctx.rng 2 10 in
  let body () =
    ctx.readonly := i :: !(ctx.readonly);
    let saved_scalars = !(ctx.scalars) in
    for _ = 1 to Rng.int_range ctx.rng 1 3 do
      gen_stmt ctx ~indent:(indent + 2) ~depth
    done;
    ctx.scalars := saved_scalars;
    ctx.readonly := List.tl !(ctx.readonly)
  in
  match Rng.int ctx.rng 4 with
  | 0 ->
      prod ctx "loop.while";
      pf ctx "%slong %s = 0;\n" pad i;
      pf ctx "%swhile (%s < %d) {\n" pad i n;
      body ();
      pf ctx "%s  %s = %s + 1;\n" pad i i;
      pf ctx "%s}\n" pad
  | 1 ->
      prod ctx "loop.do";
      pf ctx "%slong %s = 0;\n" pad i;
      pf ctx "%sdo {\n" pad;
      body ();
      pf ctx "%s  %s = %s + 1;\n" pad i i;
      pf ctx "%s} while (%s < %d);\n" pad i (Rng.int_range ctx.rng 1 4)
  | _ ->
      prod ctx "loop.for";
      pf ctx "%slong %s;\n" pad i;
      pf ctx "%sfor (%s = 0; %s < %d; %s++) {\n" pad i i n i;
      body ();
      pf ctx "%s}\n" pad

(* ------------------------------------------------------------------ *)
(* Helpers (the call graph)                                            *)
(* ------------------------------------------------------------------ *)

let gen_helper ctx =
  let name = fresh ctx "helper" in
  pf ctx "long %s(long x) {\n" name;
  let saved_scalars = !(ctx.scalars) in
  let saved_ptrs = !(ctx.ptrs) in
  let saved_spaths = !(ctx.spaths) in
  ctx.scalars := [ ("x", Long) ];
  ctx.ptrs := [];
  ctx.spaths := [];
  pf ctx "  long acc = x %% 100;\n";
  ctx.scalars := ("acc", Long) :: !(ctx.scalars);
  for _ = 1 to Rng.int_range ctx.rng 1 3 do
    gen_stmt ctx ~indent:2 ~depth:1
  done;
  pf ctx "  return acc;\n}\n\n";
  ctx.scalars := saved_scalars;
  ctx.ptrs := saved_ptrs;
  ctx.spaths := saved_spaths;
  ctx.funcs := name :: !(ctx.funcs)

(* a helper taking a pointer parameter; callers pass arrays of extent
   >= 4, so the fixed accesses are in bounds *)
let gen_ptr_helper ctx =
  let name = fresh ctx "psum" in
  pf ctx "long %s(long *p) {\n" name;
  pf ctx "  long acc = p[0] + p[1] * 3;\n";
  pf ctx "  p[%d] = acc %% 50;\n" (Rng.int_range ctx.rng 2 3);
  pf ctx "  return acc + p[%d];\n}\n\n" (Rng.int_range ctx.rng 0 3);
  ctx.pfuncs := name :: !(ctx.pfuncs)

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

(* deterministic element initializer for index [i] of array [k] *)
let init_expr k i = Printf.sprintf "%s * %d + %d" i (3 + (k mod 5)) (k mod 7)

let emit_init_loop ctx ~indent (s : site) =
  let pad = String.make indent ' ' in
  let i = fresh ctx "ii" in
  pf ctx "%slong %s;\n" pad i;
  pf ctx "%sfor (%s = 0; %s < %d; %s++) %s[%s] = %s;\n" pad i i s.si_extent i
    s.si_array i
    (init_expr ctx.n_names i)

(* number of rotating must-hit features; any block of >= this many
   consecutive seeds hits every one *)
let n_features = 11

(* A boosted feature is forced on, but the random draw is still consumed
   when the rotation alone would not decide, so the rng stream — and
   with it everything generated after the flag — is identical with and
   without the boost.  Boosting changes the flag, never the dice.

   Every enablement source records the feature index independently
   (rotation, random draw, boost, and derived rebindings like
   free→heap), so a boosted feature whose draw also hit — or a feature
   both drawn and forced by a rebinding — is recorded more than once;
   {!generate} deduplicates the vector before publishing it as
   [p_features], keeping the campaign's feature scoring one-vote-per-
   feature-per-seed. *)
let feature ctx ~record ~boost seed k p =
  if seed mod n_features = k then begin
    record k;
    true
  end
  else begin
    let hit = Rng.float ctx.rng < p in
    if hit then record k;
    if List.mem k boost then begin
      record k;
      true
    end
    else hit
  end

(* the two mutation splice points of every generated main unit: spatial
   mutants land at the anchor comment — after the digest prints but
   while every object is still live — and temporal mutants land after
   the free epilogue, just before the closing return *)
let spatial_anchor = "  /* mutation anchor: all objects live */\n"
let main_suffix = "  return 0;\n}\n"

(** Generate the program for [seed].  Deterministic: the same seed and
    [boost] always yield the same sources, sites and productions.
    [boost] lists feature indices to force on — the campaign driver
    passes the features whose seeds recently discovered new VM coverage
    ({!prog.p_features} records what a seed ended up using). *)
let generate ?(boost = []) ~seed () : prog =
  let ctx =
    {
      rng = Rng.create ((seed * 2) + 1);
      buf = Buffer.create 2048;
      n_names = 0;
      prods = Hashtbl.create 64;
      scalars = ref [];
      readonly = ref [];
      arrays = ref [];
      ptrs = ref [];
      spaths = ref [];
      funcs = ref [];
      pfuncs = ref [];
    }
  in
  let feats = ref [] in
  let record k = feats := k :: !feats in
  let feat = feature ctx ~record ~boost seed in
  let use_ext = feat 0 0.5 in
  let use_struct = feat 1 0.6 in
  let use_nested = use_struct && feat 2 0.5 in
  let use_heap = feat 3 0.6 in
  let use_intptr = feat 4 0.5 in
  let use_memcpy = feat 5 0.5 in
  let use_memset = feat 6 0.5 in
  let use_memmove = feat 7 0.5 in
  let use_ptr_helper = feat 8 0.5 in
  let use_struct_cpy = use_struct && feat 9 0.5 in
  let use_free = feat 10 0.5 in
  (* a free needs a heap object to free: the free feature forces the
     heap feature along (flag only — both dice were already thrown) *)
  if use_free then record 3;
  let use_heap = use_heap || use_free in

  (* --- sibling unit defining the size-less extern array (§4.3) ----- *)
  let ext_site, ext_unit =
    if not use_ext then (None, None)
    else begin
      let e = elems.(seed mod 3) in
      let extent = Rng.int_range ctx.rng 8 24 in
      let name = "extbuf" in
      let b = Buffer.create 256 in
      Printf.bprintf b "%s %s[%d];\n" (elem_name e) name extent;
      Printf.bprintf b "void ext_fill(void) {\n  long i;\n";
      Printf.bprintf b "  for (i = 0; i < %d; i++) %s[i] = i * 5 %% 90;\n"
        extent name;
      Printf.bprintf b "}\n";
      prod ctx "extern.size_less";
      elem_prod ctx e;
      ( Some
          {
            si_array = name;
            si_extent = extent;
            si_elem = e;
            si_region = Extern;
            si_wide_sb = true;
          },
        Some (Buffer.contents b) )
    end
  in

  (* --- main unit ---------------------------------------------------- *)
  (match ext_site with
  | Some s ->
      pf ctx "extern %s %s[];\n" (elem_name s.si_elem) s.si_array;
      pf ctx "void ext_fill(void);\n\n"
  | None -> ());

  (* struct definitions *)
  let struct_name = ref "" and box_name = ref "" in
  let struct_fields = ref [] in
  if use_struct then begin
    prod ctx "struct.def";
    struct_name := fresh ctx "pt";
    let fields =
      List.map
        (fun fname ->
          let e = Rng.choose ctx.rng elems in
          elem_prod ctx e;
          (fname, e))
        [ "x"; "y"; "t" ]
    in
    struct_fields := fields;
    pf ctx "struct %s {" !struct_name;
    List.iter (fun (f, e) -> pf ctx " %s %s;" (elem_name e) f) fields;
    pf ctx " };\n";
    if use_nested then begin
      prod ctx "struct.nested";
      box_name := fresh ctx "box";
      pf ctx "struct %s { struct %s p; long w; };\n" !box_name !struct_name
    end;
    pf ctx "\n"
  end;

  (* globals *)
  for _ = 1 to Rng.int_range ctx.rng 0 2 do
    let g = fresh ctx "g" in
    let e = Rng.choose ctx.rng elems in
    let extent = Rng.int_range ctx.rng 4 16 in
    prod ctx "global.array";
    elem_prod ctx e;
    pf ctx "%s %s[%d];\n" (elem_name e) g extent;
    ctx.arrays :=
      {
        si_array = g;
        si_extent = extent;
        si_elem = e;
        si_region = Global;
        si_wide_sb = false;
      }
      :: !(ctx.arrays)
  done;
  (let gs = fresh ctx "gs" in
   let e = Rng.choose ctx.rng elems in
   prod ctx "global.scalar";
   elem_prod ctx e;
   pf ctx "%s %s = %d;\n" (elem_name e) gs (Rng.int_range ctx.rng 0 40);
   ctx.scalars := (gs, e) :: !(ctx.scalars));
  pf ctx "\n";

  (* helper call graph: later helpers may call earlier ones *)
  for _ = 1 to Rng.int_range ctx.rng 1 2 do
    gen_helper ctx
  done;
  if use_ptr_helper then gen_ptr_helper ctx;

  (* main *)
  pf ctx "int main(void) {\n";
  pf ctx "  long acc = 0;\n";
  let saved_globals_arrays = !(ctx.arrays) in
  ctx.scalars := ("acc", Long) :: !(ctx.scalars);

  (* local arrays: [a1] is always a long array (pointer-helper fodder);
     the second rotates through the element types *)
  let n_arrays = Rng.int_range ctx.rng 2 3 in
  for k = 0 to n_arrays - 1 do
    let a = fresh ctx "a" in
    let e = if k = 0 then Long else elems.((seed + k) mod 3) in
    let extent = Rng.int_range ctx.rng 4 16 in
    let heap = use_heap && k = n_arrays - 1 in
    elem_prod ctx e;
    if heap then begin
      prod ctx "heap.array";
      pf ctx "  %s *%s = (%s *)malloc(%d * sizeof(%s));\n" (elem_name e) a
        (elem_name e) extent (elem_name e)
    end
    else begin
      prod ctx "local.array";
      pf ctx "  %s %s[%d];\n" (elem_name e) a extent
    end;
    let s =
      {
        si_array = a;
        si_extent = extent;
        si_elem = e;
        si_region = (if heap then Heap else Stack);
        si_wide_sb = false;
      }
    in
    emit_init_loop ctx ~indent:2 s;
    ctx.arrays := s :: !(ctx.arrays)
  done;
  (* init global arrays too *)
  List.iter (emit_init_loop ctx ~indent:2) saved_globals_arrays;

  (* struct locals *)
  if use_struct then begin
    let sv = fresh ctx "s" in
    pf ctx "  struct %s %s;\n" !struct_name sv;
    List.iter
      (fun (f, e) ->
        elem_prod ctx e;
        pf ctx "  %s.%s = %d;\n" sv f (Rng.int_range ctx.rng 0 60))
      !struct_fields;
    ctx.spaths :=
      List.map (fun (f, e) -> (Printf.sprintf "%s.%s" sv f, e))
        !struct_fields
      @ !(ctx.spaths);
    (* pointer to struct: arrow access *)
    if Rng.bool ctx.rng then begin
      prod ctx "struct.arrow";
      let sp = fresh ctx "sp" in
      pf ctx "  struct %s *%s = &%s;\n" !struct_name sp sv;
      ctx.spaths :=
        List.map
          (fun (f, e) -> (Printf.sprintf "%s->%s" sp f, e))
          !struct_fields
        @ !(ctx.spaths)
    end;
    if use_nested then begin
      let bv = fresh ctx "b" in
      pf ctx "  struct %s %s;\n" !box_name bv;
      List.iter
        (fun (f, _) ->
          pf ctx "  %s.p.%s = %d;\n" bv f (Rng.int_range ctx.rng 0 60))
        !struct_fields;
      pf ctx "  %s.w = %d;\n" bv (Rng.int_range ctx.rng 0 60);
      prod ctx "struct.nested";
      ctx.spaths :=
        ((bv ^ ".w"), Long)
        :: List.map
             (fun (f, e) -> (Printf.sprintf "%s.p.%s" bv f, e))
             !struct_fields
        @ !(ctx.spaths)
    end;
    if use_struct_cpy then begin
      prod ctx "struct.memcpy";
      let s2 = fresh ctx "s" in
      pf ctx "  struct %s %s;\n" !struct_name s2;
      pf ctx "  memcpy(&%s, &%s, sizeof(struct %s));\n" s2 sv !struct_name;
      ctx.spaths :=
        List.map (fun (f, e) -> (Printf.sprintf "%s.%s" s2 f, e))
          !struct_fields
        @ !(ctx.spaths)
    end
  end;

  (* the extern array is initialized by its defining unit *)
  (match ext_site with
  | Some s ->
      pf ctx "  ext_fill();\n";
      ctx.arrays := s :: !(ctx.arrays)
  | None -> ());

  (* pointers into arrays (in-bounds by construction) *)
  let n_ptrs = Rng.int_range ctx.rng 1 2 in
  for _ = 1 to n_ptrs do
    let s = pick ctx !(ctx.arrays) in
    let off = Rng.int ctx.rng (s.si_extent - 1) in
    let p = fresh ctx "p" in
    prod ctx "ptr.arith";
    if off = 0 then
      pf ctx "  %s *%s = %s;\n" (elem_name s.si_elem) p s.si_array
    else
      pf ctx "  %s *%s = &%s[%d];\n" (elem_name s.si_elem) p s.si_array off;
    ctx.ptrs := (p, s.si_elem, s.si_extent - off) :: !(ctx.ptrs);
    (* occasionally derive a second pointer by arithmetic *)
    if Rng.bool ctx.rng && s.si_extent - off > 2 then begin
      let q = fresh ctx "q" in
      let j = Rng.int_range ctx.rng 1 (s.si_extent - off - 1) in
      pf ctx "  %s *%s = %s + %d;\n" (elem_name s.si_elem) q p j;
      ctx.ptrs := (q, s.si_elem, s.si_extent - off - j) :: !(ctx.ptrs)
    end
  done;

  (* int<->ptr round-trip: the integer is address-derived and must never
     reach program output, so it lives in its own (untracked) names *)
  if use_intptr && !(ctx.ptrs) <> [] then begin
    prod ctx "cast.int_ptr";
    let p, e, rem = pick ctx !(ctx.ptrs) in
    let ip = fresh ctx "ip" in
    let rp = fresh ctx "rp" in
    pf ctx "  long %s = (long)%s;\n" ip p;
    pf ctx "  %s *%s = (%s *)%s;\n" (elem_name e) rp (elem_name e) ip;
    pf ctx "  acc += %s[%d];\n" rp (Rng.int ctx.rng rem);
    ctx.ptrs := (rp, e, rem) :: !(ctx.ptrs)
  end;

  (* byte intrinsics over generated buffers *)
  let byte_len (s : site) max_elems =
    elem_size s.si_elem * min max_elems s.si_extent
  in
  if use_memset then begin
    prod ctx "intrinsic.memset";
    let s = pick ctx !(ctx.arrays) in
    pf ctx "  memset(%s, %d, %d);\n" s.si_array
      (Rng.int ctx.rng 17)
      (byte_len s (Rng.int_range ctx.rng 1 8))
  end;
  if use_memcpy && List.length !(ctx.arrays) >= 2 then begin
    prod ctx "intrinsic.memcpy";
    let s1 = pick ctx !(ctx.arrays) in
    let rest = List.filter (fun s -> s.si_array <> s1.si_array) !(ctx.arrays) in
    let s2 = pick ctx rest in
    let n = min (byte_len s1 8) (byte_len s2 8) in
    pf ctx "  memcpy(%s, %s, %d);\n" s1.si_array s2.si_array n
  end;
  if use_memmove then begin
    prod ctx "intrinsic.memmove";
    (* overlapping move inside one array *)
    let s = pick ctx !(ctx.arrays) in
    let esz = elem_size s.si_elem in
    let o1 = Rng.int ctx.rng 2 and o2 = Rng.int ctx.rng 2 in
    let room = s.si_extent - max o1 o2 in
    let n = esz * max 1 (min room (Rng.int_range ctx.rng 1 6)) in
    pf ctx "  memmove(%s + %d, %s + %d, %d);\n" s.si_array o1 s.si_array o2 n
  end;

  (* the statement soup *)
  for _ = 1 to Rng.int_range ctx.rng 3 7 do
    if Rng.int ctx.rng 3 = 0 then gen_loop ctx ~indent:2 ~depth:2
    else gen_stmt ctx ~indent:2 ~depth:2
  done;

  (* digest epilogue: print everything address-independent *)
  pf ctx "  print_int(acc);\n";
  List.iter
    (fun (s : site) ->
      let i = fresh ctx "k" in
      pf ctx "  { long %s; long h = 0;\n" i;
      pf ctx "    for (%s = 0; %s < %d; %s++) h = h * 31 + %s[%s];\n" i i
        s.si_extent i s.si_array i;
      pf ctx "    print_int(h %% 1000000007); }\n")
    !(ctx.arrays);
  List.iter
    (fun (s, _) -> pf ctx "  print_int(%s %% 997);\n" s)
    !(ctx.scalars);
  List.iter
    (fun (path, _) -> pf ctx "  print_int(%s %% 997);\n" path)
    !(ctx.spaths);
  pf ctx "%s" spatial_anchor;

  (* free epilogue: heap objects die only after every digest print, so
     the safe program never touches a dead object — the lock-and-key
     checker must run it clean *)
  let frees =
    if use_free then
      List.filter (fun s -> s.si_region = Heap) (List.rev !(ctx.arrays))
    else []
  in
  if frees <> [] then prod ctx "heap.free";
  List.iter (fun s -> pf ctx "  free(%s);\n" s.si_array) frees;
  pf ctx "%s" main_suffix;

  let sites = List.rev !(ctx.arrays) in
  let productions =
    List.sort_uniq String.compare
      (Hashtbl.fold (fun k () a -> k :: a) ctx.prods [])
  in
  (* every enablement source recorded independently above; the published
     vector is the deduplicated, sorted set *)
  let features = List.sort_uniq compare !feats in
  let sources =
    (match ext_unit with
    | Some code -> [ Bench.src "ext" code ]
    | None -> [])
    @ [ Bench.src "main" (Buffer.contents ctx.buf) ]
  in
  {
    p_seed = seed;
    p_sources = sources;
    p_sites = sites;
    p_frees = frees;
    p_productions = productions;
    p_features = features;
  }

(* ------------------------------------------------------------------ *)
(* Unsafe mutants                                                      *)
(* ------------------------------------------------------------------ *)

type access = Read | Write

let access_name = function Read -> "read" | Write -> "write"

(** The hazard class a mutant injects.  [Spatial] is an out-of-bounds
    access to a live object; [Uaf] and [Double_free] touch a heap object
    {e after} the program's free epilogue killed it.  The judge
    ({!Oracle.judge_mutant}) holds each checker to the classes it
    guarantees and excuses the others with a written justification. *)
type mutant_kind = Mi_core.Checker.hazard = Spatial | Uaf | Double_free

(** One derived unsafe program: the original with a single known-bad
    statement spliced into [main].  Spatial mutants index past the
    Low-Fat size class of the site ([max 16 (round_up_pow2 (size+1))],
    the runtime's own geometry), so both spatial approaches must report
    — except SoftBound on a size-less extern declaration, whose wide
    upper bound cannot see the overflow (§4.3): those carry the
    whitelist justification instead.  Temporal mutants access (or
    re-free) a freed heap site in bounds, so only the lock-and-key
    checker can report. *)
type mutant = {
  m_prog : prog;
  m_site : site;
  m_kind : mutant_kind;
  m_access : access;
  m_index : int;
  m_sources : Bench.source list;
  m_sb_whitelist : string option;
      (** [Some why]: SoftBound is excused from reporting, with the
          written justification *)
}

let mutant_name (m : mutant) =
  match m.m_kind with
  | Spatial ->
      Printf.sprintf "seed%d/%s-%s[%d]-%s" m.m_prog.p_seed
        (region_name m.m_site.si_region)
        m.m_site.si_array m.m_index
        (access_name m.m_access)
  | Uaf ->
      Printf.sprintf "seed%d/uaf-%s-%s[%d]-%s" m.m_prog.p_seed
        (region_name m.m_site.si_region)
        m.m_site.si_array m.m_index
        (access_name m.m_access)
  | Double_free ->
      Printf.sprintf "seed%d/dfree-%s-%s" m.m_prog.p_seed
        (region_name m.m_site.si_region)
        m.m_site.si_array

(* first element index past the Low-Fat size class of the object *)
let oob_index (s : site) =
  let size = s.si_extent * elem_size s.si_elem in
  let cls = max 16 (Mi_support.Util.round_up_pow2 (size + 1)) in
  (cls / elem_size s.si_elem) + 1

(* first occurrence of [sub] in [code] *)
let find_sub code sub =
  let n = String.length code and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub code i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* splice [stmt] into the main unit, immediately before the first
   occurrence of [anchor] *)
let splice_main ~anchor stmt (sources : Bench.source list) =
  List.map
    (fun (s : Bench.source) ->
      if s.src_name <> "main" then s
      else
        match find_sub s.code anchor with
        | Some i ->
            {
              s with
              code =
                String.sub s.code 0 i ^ stmt
                ^ String.sub s.code i (String.length s.code - i);
            }
        | None -> invalid_arg "Gen.splice_main: unexpected main-unit shape")
    sources

(** Derive the [mseed]-th spatial mutant of [prog]: one out-of-bounds
    access to a live object, spliced at the {!spatial_anchor} (before
    the free epilogue).  Deterministic.  Most mutants target
    precisely-bounded sites; with low probability a size-less extern
    site is chosen instead to exercise the whitelist path. *)
let mutate (prog : prog) ~mseed : mutant =
  let rng = Rng.create (((prog.p_seed * 8191) + mseed) * 2) in
  let precise, wide =
    List.partition (fun s -> not s.si_wide_sb) prog.p_sites
  in
  let site =
    if wide <> [] && (precise = [] || Rng.int rng 8 = 0) then
      List.nth wide (Rng.int rng (List.length wide))
    else List.nth precise (Rng.int rng (List.length precise))
  in
  let access = if Rng.bool rng then Read else Write in
  let index = oob_index site in
  (* the access must stay observable: a read feeds [print_int] (a load
     into dead [acc] would be DCE'd at O3 before the late instrumentation
     point, deleting the check with it); a store has a side effect and
     survives on its own *)
  let stmt =
    match access with
    | Write -> Printf.sprintf "  %s[%d] = 1;\n" site.si_array index
    | Read -> Printf.sprintf "  print_int(%s[%d]);\n" site.si_array index
  in
  {
    m_prog = prog;
    m_site = site;
    m_kind = Spatial;
    m_access = access;
    m_index = index;
    m_sources = splice_main ~anchor:spatial_anchor stmt prog.p_sources;
    m_sb_whitelist =
      (if site.si_wide_sb then
         Some
           (Printf.sprintf
              "size-less extern declaration %s[]: SoftBound carries a wide \
               upper bound (§4.3), so an overflow past the definition is \
               not reportable by design"
              site.si_array)
       else None);
  }

(** Derive the [mseed]-th temporal mutant of [prog]: an in-bounds
    access to — or a second [free] of — a heap object the free epilogue
    already killed, spliced after the frees.  [None] when the program
    freed nothing ({!prog.p_frees} empty); callers fall back to
    {!mutate}.  Deterministic.  The spatial checkers' bounds metadata is
    unaffected by [free], so only the lock-and-key checker can report
    these. *)
let mutate_temporal (prog : prog) ~mseed : mutant option =
  match prog.p_frees with
  | [] -> None
  | frees ->
      let rng = Rng.create (((prog.p_seed * 4099) + mseed) * 2) in
      let site = List.nth frees (Rng.int rng (List.length frees)) in
      let kind = if Rng.int rng 3 = 0 then Double_free else Uaf in
      let access = if Rng.bool rng then Read else Write in
      let stmt =
        match kind with
        | Double_free -> Printf.sprintf "  free(%s);\n" site.si_array
        (* in bounds on purpose: the only thing wrong is the lifetime *)
        | _ when access = Write -> Printf.sprintf "  %s[0] = 1;\n" site.si_array
        | _ -> Printf.sprintf "  print_int(%s[0]);\n" site.si_array
      in
      Some
        {
          m_prog = prog;
          m_site = site;
          m_kind = kind;
          m_access = access;
          m_index = 0;
          m_sources = splice_main ~anchor:main_suffix stmt prog.p_sources;
          m_sb_whitelist = None;
        }

(* ------------------------------------------------------------------ *)
(* Structural evolution: splice and grow                               *)
(* ------------------------------------------------------------------ *)

(* The coverage-guided loop breeds offspring from corpus entries by
   operating on the generator's AST (parse → transform → re-print), so
   every offspring is well-typed MiniC by construction and the safe
   oracle keeps applying:

   - {!splice} grafts a helper function (with its transitive closure of
     callee helpers and referenced globals, all α-renamed) from a donor
     program into an acceptor and calls it from [main];
   - {!grow} inserts fresh control flow — a bounded counting loop
     around an existing statement, or a bounded arithmetic-iteration
     epilogue — into [main].

   Both operations change the control-flow geometry of the offspring's
   functions, so its {!Mi_obs.Coverage} cells are disjoint from the
   parent's (the cell key hashes the full successor geometry): novelty
   is structural, never a re-count of old ground.  Soundness argument
   (DESIGN.md "Fuzzing"): generator helper bodies only reference their
   parameters, locals, earlier helpers and global arrays/scalars — all
   copied and renamed along — and VM globals are zero-initialized, so a
   grafted helper computes deterministically in the acceptor; grown
   loops are bounded by construction and duplicate only statements
   without declarations or frees. *)

module Ast = Mi_minic.Ast
module Ctypes = Mi_minic.Ctypes
module Cparse = Mi_minic.Cparse

let pos0 = { Ast.line = 0; Ast.col = 0 }
let e_ k = { Ast.e = k; Ast.epos = pos0 }
let s_ k = { Ast.s = k; Ast.spos = pos0 }
let eint n = e_ (Ast.Eint n)
let eid n = e_ (Ast.Eident n)
let ebin op a b = e_ (Ast.Ebin (op, a, b))

(* normalized non-negative modulus, mirroring the generator's
   always-in-bounds index idiom *)
let emodn e n = ebin Ast.Bmod (ebin Ast.Badd (ebin Ast.Bmod e (eint n)) (eint n)) (eint n)

let rec map_idents_e f (e : Ast.expr) : Ast.expr =
  let m = map_idents_e f in
  let k =
    match e.Ast.e with
    | Ast.Eident id -> Ast.Eident (f id)
    | Ast.Ecall (g, args) -> Ast.Ecall (f g, List.map m args)
    | Ast.Ebin (op, a, b) -> Ast.Ebin (op, m a, m b)
    | Ast.Eun (op, a) -> Ast.Eun (op, m a)
    | Ast.Eassign (a, b) -> Ast.Eassign (m a, m b)
    | Ast.Eopassign (op, a, b) -> Ast.Eopassign (op, m a, m b)
    | Ast.Eincdec (w, d, a) -> Ast.Eincdec (w, d, m a)
    | Ast.Eindex (a, i) -> Ast.Eindex (m a, m i)
    | Ast.Emember (a, fl) -> Ast.Emember (m a, fl)
    | Ast.Earrow (a, fl) -> Ast.Earrow (m a, fl)
    | Ast.Ederef a -> Ast.Ederef (m a)
    | Ast.Eaddr a -> Ast.Eaddr (m a)
    | Ast.Ecast (t, a) -> Ast.Ecast (t, m a)
    | Ast.Esizeof_e a -> Ast.Esizeof_e (m a)
    | Ast.Econd (c, a, b) -> Ast.Econd (m c, m a, m b)
    | (Ast.Eint _ | Ast.Efloat _ | Ast.Estr _ | Ast.Esizeof_ty _) as k -> k
  in
  { e with Ast.e = k }

let rec map_idents_init f = function
  | Ast.Iexpr e -> Ast.Iexpr (map_idents_e f e)
  | Ast.Ilist l -> Ast.Ilist (List.map (map_idents_init f) l)

let rec map_idents_s f (s : Ast.stmt) : Ast.stmt =
  let ms = List.map (map_idents_s f) in
  let me = map_idents_e f in
  let k =
    match s.Ast.s with
    | Ast.Sexpr e -> Ast.Sexpr (me e)
    | Ast.Sdecl (t, n, i) -> Ast.Sdecl (t, n, Option.map (map_idents_init f) i)
    | Ast.Sif (c, a, b) -> Ast.Sif (me c, ms a, ms b)
    | Ast.Swhile (c, b) -> Ast.Swhile (me c, ms b)
    | Ast.Sdo (b, c) -> Ast.Sdo (ms b, me c)
    | Ast.Sfor (i, c, st, b) ->
        Ast.Sfor
          (Option.map (map_idents_s f) i, Option.map me c, Option.map me st, ms b)
    | Ast.Sreturn e -> Ast.Sreturn (Option.map me e)
    | (Ast.Sbreak | Ast.Scontinue) as k -> k
    | Ast.Sblock b -> Ast.Sblock (ms b)
    | Ast.Sseq b -> Ast.Sseq (ms b)
  in
  { s with Ast.s = k }

(* all identifiers (variables and callees) a subtree references *)
let rec idents_e acc (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Eident id -> id :: acc
  | Ast.Ecall (g, args) -> List.fold_left idents_e (g :: acc) args
  | Ast.Ebin (_, a, b) | Ast.Eassign (a, b) | Ast.Eopassign (_, a, b)
  | Ast.Eindex (a, b) ->
      idents_e (idents_e acc a) b
  | Ast.Eun (_, a) | Ast.Eincdec (_, _, a) | Ast.Emember (a, _)
  | Ast.Earrow (a, _) | Ast.Ederef a | Ast.Eaddr a | Ast.Ecast (_, a)
  | Ast.Esizeof_e a ->
      idents_e acc a
  | Ast.Econd (c, a, b) -> idents_e (idents_e (idents_e acc c) a) b
  | Ast.Eint _ | Ast.Efloat _ | Ast.Estr _ | Ast.Esizeof_ty _ -> acc

let rec idents_init acc = function
  | Ast.Iexpr e -> idents_e acc e
  | Ast.Ilist l -> List.fold_left idents_init acc l

let rec idents_s acc (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Sexpr e -> idents_e acc e
  | Ast.Sdecl (_, _, i) -> (
      match i with Some i -> idents_init acc i | None -> acc)
  | Ast.Sif (c, a, b) ->
      List.fold_left idents_s (List.fold_left idents_s (idents_e acc c) a) b
  | Ast.Swhile (c, b) -> List.fold_left idents_s (idents_e acc c) b
  | Ast.Sdo (b, c) -> idents_e (List.fold_left idents_s acc b) c
  | Ast.Sfor (i, c, st, b) ->
      let acc = match i with Some i -> idents_s acc i | None -> acc in
      let acc = match c with Some c -> idents_e acc c | None -> acc in
      let acc = match st with Some st -> idents_e acc st | None -> acc in
      List.fold_left idents_s acc b
  | Ast.Sreturn (Some e) -> idents_e acc e
  | Ast.Sreturn None | Ast.Sbreak | Ast.Scontinue -> acc
  | Ast.Sblock b | Ast.Sseq b -> List.fold_left idents_s acc b

let func_idents (fn : Ast.func) = List.fold_left idents_s [] fn.Ast.f_body

let find_main_src (sources : Bench.source list) =
  List.find_opt (fun (s : Bench.source) -> s.Bench.src_name = "main") sources

let with_main_code (sources : Bench.source list) code =
  List.map
    (fun (s : Bench.source) ->
      if s.Bench.src_name = "main" then { s with Bench.code } else s)
    sources

(* integer-typed (non-pointer, non-array) parameters only: such a
   helper can be called from any context with a constant argument *)
let graftable (fn : Ast.func) =
  fn.Ast.f_name <> "main"
  && fn.Ast.f_params <> []
  && List.for_all
       (fun (p : Ast.param) ->
         match p.Ast.p_ty with
         | Ctypes.Cptr _ | Ctypes.Carr _ -> false
         | _ -> true)
       fn.Ast.f_params

(* wrap a copy of [stmt] in a bounded counting loop with a fresh
   counter; inserted right after the original, so every name the copy
   references is still in scope *)
let wrap_in_loop ~ctr ~n stmt =
  s_
    (Ast.Sblock
       [
         s_ (Ast.Sdecl (Ctypes.Clong, ctr, Some (Ast.Iexpr (eint 0))));
         s_
           (Ast.Swhile
              ( ebin Ast.Blt (eid ctr) (eint n),
                [
                  stmt;
                  s_
                    (Ast.Sexpr
                       (e_
                          (Ast.Eassign
                             (eid ctr, ebin Ast.Badd (eid ctr) (eint 1)))));
                ] ));
       ])

(* insert [stmts] immediately before the trailing return of a body *)
let insert_before_return stmts body =
  let rec go = function
    | [ ({ Ast.s = Ast.Sreturn _; _ } as r) ] -> stmts @ [ r ]
    | [ last ] -> last :: stmts
    | s :: rest -> s :: go rest
    | [] -> stmts
  in
  go body

(** Splice: graft one graftable helper of [donor] — with the transitive
    closure of the donor helpers it calls and the donor globals it
    references, all α-renamed with an ["_x<mseed>"] suffix — into
    [acceptor], and print its value from [main].  Returns [None] when
    either program has no parseable main unit or the donor has no
    graftable helper.  Deterministic in [(acceptor, donor, mseed)];
    campaign drivers keep [mseed] globally unique so repeated splices
    into one lineage never collide (generator names contain no ['_']
    except [ext_fill], which is never grafted). *)
let splice ~(acceptor : Bench.source list) ~(donor : Bench.source list)
    ~mseed : Bench.source list option =
  match (find_main_src acceptor, find_main_src donor) with
  | Some amain, Some dmain -> (
      try
        let aprog = Cparse.parse_program amain.Bench.code in
        let dprog = Cparse.parse_program dmain.Bench.code in
        let rng = Rng.create ((mseed * 2) + 1) in
        let dfuncs =
          List.filter_map
            (function
              | Ast.Dfunc f when f.Ast.f_name <> "main" -> Some f | _ -> None)
            dprog
        in
        let dglobals =
          List.filter_map
            (function
              | Ast.Dglobal g when not g.Ast.g_extern -> Some g | _ -> None)
            dprog
        in
        let candidates = List.filter graftable dfuncs in
        if candidates = [] then None
        else begin
          let root = List.nth candidates (Rng.int rng (List.length candidates)) in
          (* transitive closure of donor helpers/globals [root] needs *)
          let fnames = List.map (fun f -> f.Ast.f_name) dfuncs in
          let gnames = List.map (fun g -> g.Ast.g_name) dglobals in
          let needed = Hashtbl.create 16 in
          let rec need fn =
            if not (Hashtbl.mem needed fn.Ast.f_name) then begin
              Hashtbl.replace needed fn.Ast.f_name ();
              List.iter
                (fun id ->
                  if List.mem id gnames then Hashtbl.replace needed id ()
                  else if List.mem id fnames then
                    match
                      List.find_opt (fun f -> f.Ast.f_name = id) dfuncs
                    with
                    | Some callee -> need callee
                    | None -> ())
                (func_idents fn)
            end
          in
          need root;
          let suffix = Printf.sprintf "_x%d" mseed in
          let rn id = if Hashtbl.mem needed id then id ^ suffix else id in
          let grafted =
            List.filter_map
              (function
                | Ast.Dglobal g when Hashtbl.mem needed g.Ast.g_name ->
                    Some
                      (Ast.Dglobal
                         {
                           g with
                           Ast.g_name = rn g.Ast.g_name;
                           Ast.g_init = Option.map (map_idents_init rn) g.Ast.g_init;
                         })
                | Ast.Dfunc f when Hashtbl.mem needed f.Ast.f_name ->
                    Some
                      (Ast.Dfunc
                         {
                           f with
                           Ast.f_name = rn f.Ast.f_name;
                           Ast.f_body = List.map (map_idents_s rn) f.Ast.f_body;
                         })
                | _ -> None)
              dprog
          in
          let arg = Rng.int_range rng 1 9 in
          (* drive the graft from a small counting loop with a varying
             argument: the loop both exercises the helper on several
             inputs and changes main's control-flow geometry, so the
             offspring's main cells are fresh, not a re-count *)
          let ctr = "spc" ^ suffix in
          let call =
            s_
              (Ast.Sexpr
                 (e_
                    (Ast.Ecall
                       ( "print_int",
                         [
                           emodn
                             (e_
                                (Ast.Ecall
                                   ( rn root.Ast.f_name,
                                     [ ebin Ast.Badd (eint arg) (eid ctr) ] )))
                             997;
                         ] ))))
          in
          let call = wrap_in_loop ~ctr ~n:3 call in
          let out = ref [] and placed = ref false in
          List.iter
            (fun d ->
              match d with
              | Ast.Dfunc f when f.Ast.f_name = "main" && not !placed ->
                  placed := true;
                  out :=
                    Ast.Dfunc
                      { f with Ast.f_body = insert_before_return [ call ] f.Ast.f_body }
                    :: List.rev_append grafted !out
              | d -> out := d :: !out)
            aprog;
          if not !placed then None
          else
            Some
              (with_main_code acceptor
                 (Cprint.program_to_string (List.rev !out)))
        end
      with _ -> None)
  | _ -> None

(* a statement is duplication-safe when re-executing a copy of it right
   after the original preserves safety and termination: no declarations
   (redefinition), no [free]/[malloc] (lifetime), no return/break/
   continue at its own level (control escape) *)
let rec dup_safe (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Sdecl _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue -> false
  | Ast.Sexpr e -> expr_dup_safe e
  | Ast.Sif (c, a, b) ->
      expr_dup_safe c && List.for_all dup_safe a && List.for_all dup_safe b
  | Ast.Swhile (c, b) -> expr_dup_safe c && List.for_all dup_safe b
  | Ast.Sdo (b, c) -> expr_dup_safe c && List.for_all dup_safe b
  | Ast.Sfor (i, c, st, b) ->
      (match i with Some i -> dup_safe i | None -> true)
      && (match c with Some c -> expr_dup_safe c | None -> true)
      && (match st with Some st -> expr_dup_safe st | None -> true)
      && List.for_all dup_safe b
  | Ast.Sblock b | Ast.Sseq b -> List.for_all dup_safe b

and expr_dup_safe (e : Ast.expr) =
  List.for_all (fun id -> id <> "free" && id <> "malloc") (idents_e [] e)

(* a bounded arithmetic-iteration epilogue over [acc] (always in scope
   in generated mains): fresh if/while geometry plus an observing
   [print_int], step-capped so fuel use stays bounded *)
let iteration_epilogue ~stem =
  let v = stem ^ "v" and st = stem ^ "s" in
  [
    s_ (Ast.Sdecl (Ctypes.Clong, v, Some (Ast.Iexpr (ebin Ast.Badd (emodn (eid "acc") 23) (eint 5)))));
    s_ (Ast.Sdecl (Ctypes.Clong, st, Some (Ast.Iexpr (eint 0))));
    s_
      (Ast.Swhile
         ( ebin Ast.Bland
             (ebin Ast.Bgt (eid v) (eint 1))
             (ebin Ast.Blt (eid st) (eint 40)),
           [
             s_
               (Ast.Sif
                  ( ebin Ast.Beq (ebin Ast.Bmod (eid v) (eint 2)) (eint 0),
                    [ s_ (Ast.Sexpr (e_ (Ast.Eassign (eid v, ebin Ast.Bdiv (eid v) (eint 2))))) ],
                    [
                      s_
                        (Ast.Sexpr
                           (e_
                              (Ast.Eassign
                                 ( eid v,
                                   ebin Ast.Badd
                                     (ebin Ast.Bmul (eid v) (eint 3))
                                     (eint 1) ))));
                    ] ));
             s_ (Ast.Sexpr (e_ (Ast.Eassign (eid st, ebin Ast.Badd (eid st) (eint 1)))));
           ] ));
    s_
      (Ast.Sexpr
         (e_
            (Ast.Ecall
               ("print_int", [ emodn (ebin Ast.Badd (eid v) (eid st)) 997 ]))));
  ]

(** Grow: insert fresh control flow into [main] — either a bounded
    counting loop wrapping a copy of an existing duplication-safe
    statement, or a bounded arithmetic-iteration epilogue before the
    trailing return (always the fallback when nothing is wrappable).
    Optionally also duplicates one safe statement in place.  The new
    loop/branch changes [main]'s control-flow geometry, so the
    offspring's coverage cells are guaranteed disjoint from the
    parent's — a straight-line insertion would count nothing new.
    Returns [None] when the sources have no parseable main unit.
    Deterministic in [(sources, mseed)]; fresh names are prefixed
    ["gw<mseed>"], so campaign-unique [mseed]s never collide. *)
let grow ~(sources : Bench.source list) ~mseed : Bench.source list option =
  match find_main_src sources with
  | None -> None
  | Some main -> (
      try
        let prog = Cparse.parse_program main.Bench.code in
        let rng = Rng.create ((mseed * 4) + 3) in
        let stem = Printf.sprintf "gw%d" mseed in
        let grow_body body =
          let wrappable =
            List.concat
              (List.mapi (fun i s -> if dup_safe s then [ (i, s) ] else []) body)
          in
          let body =
            if wrappable <> [] && Rng.int rng 3 > 0 then begin
              let i, s0 =
                List.nth wrappable (Rng.int rng (List.length wrappable))
              in
              let n = Rng.int_range rng 2 4 in
              let wrapped = wrap_in_loop ~ctr:(stem ^ "c") ~n s0 in
              List.concat (List.mapi (fun j s -> if j = i then [ s; wrapped ] else [ s ]) body)
            end
            else insert_before_return (iteration_epilogue ~stem) body
          in
          (* occasionally also duplicate one safe statement in place *)
          if Rng.int rng 2 = 0 then
            let dups =
              List.concat
                (List.mapi (fun i s -> if dup_safe s then [ (i, s) ] else []) body)
            in
            if dups = [] then body
            else
              let i, s0 = List.nth dups (Rng.int rng (List.length dups)) in
              List.concat
                (List.mapi (fun j s -> if j = i then [ s; s0 ] else [ s ]) body)
          else body
        in
        let out = ref [] and placed = ref false in
        List.iter
          (fun d ->
            match d with
            | Ast.Dfunc f when f.Ast.f_name = "main" && not !placed ->
                placed := true;
                out := Ast.Dfunc { f with Ast.f_body = grow_body f.Ast.f_body } :: !out
            | d -> out := d :: !out)
          prog;
        if not !placed then None
        else Some (with_main_code sources (Cprint.program_to_string (List.rev !out)))
      with _ -> None)
