(** VM implementations of the C-library subset the benchmarks use.

    These model the *uninstrumented* standard library of the paper's setup:
    their internal accesses are never checked, exactly like calls into a
    precompiled libc.  The SoftBound configuration replaces some of them
    with metadata-maintaining wrappers (see {!Mi_softbound.Runtime}). *)

open State

let i = function Some (I x) -> x | _ -> invalid_arg "expected int result"
let _ = i

(* Argument [k] of a call, trapping when the program passed fewer. *)
let missing args k =
  trap
    (Printf.sprintf "called with %d arguments, argument %d missing"
       (Array.length args) (k + 1))

let arg_i args k =
  if k < Array.length args then as_int args.(k) else missing args k

let arg_f args k =
  if k < Array.length args then as_float args.(k) else missing args k

let install (st : State.t) : unit =
  let reg = register_builtin st in
  let c = st.cost in

  (* --- allocation -------------------------------------------------- *)
  reg "malloc" (fun st args -> Some (I (st.malloc_hook st (arg_i args 0))));
  reg "calloc" (fun st args ->
      let n = arg_i args 0 and sz = arg_i args 1 in
      let bytes = n * sz in
      let a = st.malloc_hook st bytes in
      Memory.fill st.mem ~dst:a ~byte:0 bytes;
      charge st (Cost.memop_cost c bytes);
      Some (I a));
  reg "realloc" (fun st args ->
      let old = arg_i args 0 and n = arg_i args 1 in
      if old = 0 then Some (I (st.malloc_hook st n))
      else begin
        let old_sz =
          match Hashtbl.find_opt st.alloc_sizes old with
          | Some s -> s
          | None -> raise (Trap "realloc of non-allocated pointer")
        in
        let a = st.malloc_hook st n in
        let copy_n = min old_sz n in
        Memory.copy st.mem ~dst:a ~src:old copy_n;
        charge st (Cost.memop_cost c copy_n);
        st.free_hook st old;
        Some (I a)
      end);
  reg "free" (fun st args ->
      st.free_hook st (arg_i args 0);
      None);

  (* --- string/memory ----------------------------------------------- *)
  reg "memcmp" (fun st args ->
      let a = arg_i args 0 and b = arg_i args 1 and n = arg_i args 2 in
      charge st (Cost.memop_cost c n);
      let rec go k =
        if k >= n then 0
        else
          let x = Memory.load8 st.mem (a + k)
          and y = Memory.load8 st.mem (b + k) in
          if x <> y then compare x y else go (k + 1)
      in
      Some (I (go 0)));
  reg "strlen" (fun st args ->
      let s = Memory.load_cstring st.mem (arg_i args 0) in
      charge st (Cost.memop_cost c (String.length s));
      Some (I (String.length s)));
  reg "strcpy" (fun st args ->
      let d = arg_i args 0 in
      let s = Memory.load_cstring st.mem (arg_i args 1) in
      charge st (Cost.memop_cost c (String.length s));
      Memory.store_cstring st.mem d s;
      Some (I d));
  reg "strncpy" (fun st args ->
      let d = arg_i args 0 and n = arg_i args 2 in
      let s = Memory.load_cstring st.mem (arg_i args 1) in
      charge st (Cost.memop_cost c n);
      let len = min (String.length s) n in
      Memory.store_bytes st.mem d (String.sub s 0 len);
      for k = len to n - 1 do
        Memory.store8 st.mem (d + k) 0
      done;
      Some (I d));
  reg "strcmp" (fun st args ->
      let a = Memory.load_cstring st.mem (arg_i args 0) in
      let b = Memory.load_cstring st.mem (arg_i args 1) in
      charge st (Cost.memop_cost c (min (String.length a) (String.length b)));
      Some (I (compare a b)));
  reg "strcat" (fun st args ->
      let d = arg_i args 0 in
      let ds = Memory.load_cstring st.mem d in
      let s = Memory.load_cstring st.mem (arg_i args 1) in
      charge st (Cost.memop_cost c (String.length s));
      Memory.store_cstring st.mem (d + String.length ds) s;
      Some (I d));
  reg "strchr" (fun st args ->
      let p = arg_i args 0 and ch = arg_i args 1 land 0xff in
      let s = Memory.load_cstring st.mem p in
      charge st (Cost.memop_cost c (String.length s));
      (match String.index_opt s (Char.chr ch) with
      | Some k -> Some (I (p + k))
      | None -> if ch = 0 then Some (I (p + String.length s)) else Some (I 0)));

  (* --- integer math ------------------------------------------------- *)
  reg "abs" (fun st args ->
      charge st c.alu;
      Some (I (abs (arg_i args 0))));
  reg "labs" (fun st args ->
      charge st c.alu;
      Some (I (abs (arg_i args 0))));

  (* --- floating point ---------------------------------------------- *)
  let f1 name fn =
    reg name (fun st args ->
        charge st (4 * c.fpu);
        Some (F (fn (arg_f args 0))))
  in
  f1 "sqrt" sqrt;
  f1 "fabs" abs_float;
  f1 "sin" sin;
  f1 "cos" cos;
  f1 "exp" exp;
  f1 "log" log;
  f1 "floor" floor;
  f1 "ceil" ceil;
  reg "pow" (fun st args ->
      charge st (8 * c.fpu);
      Some (F (arg_f args 0 ** arg_f args 1)));

  (* --- output ------------------------------------------------------- *)
  reg "print_int" (fun st args ->
      Buffer.add_string st.out (string_of_int (arg_i args 0));
      None);
  reg "print_f64" (fun st args ->
      Buffer.add_string st.out (Printf.sprintf "%.6g" (arg_f args 0));
      None);
  reg "print_str" (fun st args ->
      Buffer.add_string st.out (Memory.load_cstring st.mem (arg_i args 0));
      None);
  reg "putchar" (fun st args ->
      Buffer.add_char st.out (Char.chr (arg_i args 0 land 0xff));
      None);
  reg "print_newline" (fun st _ ->
      Buffer.add_char st.out '\n';
      None);

  (* --- deterministic "randomness" ----------------------------------- *)
  reg "mi_rand" (fun st _ ->
      charge st c.alu;
      Some (I (Mi_support.Rng.bits st.rng land 0x3FFFFFFF)));
  reg "mi_srand" (fun _ _ -> None);

  (* --- process ------------------------------------------------------ *)
  reg "exit" (fun _ args -> raise (Exit_program (arg_i args 0)));
  reg "abort" (fun _ _ -> raise (Exit_program 134));
  ()
