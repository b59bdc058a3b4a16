(** The MIR interpreter.

    {!load} compiles every function into closures (Feeley & Lapalme,
    "Using Closures for Code Generation", 1987).  SSA variables become
    slots in per-frame integer/float register banks and labels become
    block indices; then each instruction becomes one closure specialised
    at load on its operation, its type and its operand kinds (register
    or immediate), with its cycle cost bound as a constant.  A block is
    its instructions' closures chained in order, each calling the next
    in tail position, ending in its terminator's closure, which returns
    the index of the next block.  Phi nodes become parallel moves on the
    edge that feeds them, run by the terminator once it has picked the
    edge.  Execution charges cycles according to the {!Cost} model,
    which is what the runtime-overhead experiments measure.

    {2 Steps and cycles}

    A block runs as segments, each ending at a direct call or at the
    terminator.  While a segment's steps stay below
    {!State.t.step_limit}, it charges them and its constant cycles once,
    at entry, and runs closures that charge neither; an instruction that
    can raise gives back the charges of the instructions after it before
    the exception leaves it.  Otherwise the segment runs a timed twin,
    built on first need, in which every instruction and the terminator
    take their own {!tick} and charge.  Either way traps, violations,
    fuel exhaustion and poll hooks land on a fixed step with fixed cycles
    ([test/test_engine.ml] pins them for runs that stop part-way, at
    every step of a sweep).  Dynamic charges (memory operations,
    runtime calls, phi moves) are made where they happen in both forms.

    {2 Calls}

    Every call site is resolved once, at load, against the state's one
    builtin registry ({!State.t.builtins}); nothing re-resolves while
    the program runs, and loading closes the registry (registering a
    builtin afterwards raises [Invalid_argument]), as linking against
    the checker runtime does in the paper's build (Fig. 8):

    - the callee is a function of the image: the site holds its compiled
      record and arguments copy straight from the caller's register
      banks into the callee's, with no boxing;
    - fused superinstruction — the callee is a runtime intrinsic
      ({!State.register_intrinsic}) and the site's arity matches its
      typed implementation ({!State.fast_fn}): the call is one direct
      closure invocation on unboxed integers;
    - any other registered builtin: the site holds its boxed function.
      For an intrinsic that is the adapter derived from the same typed
      implementation, which traps on a malformed call;
    - an unregistered name: the site ticks and traps with
      [unresolved external: NAME].

    Resolution is invisible to the cost model: modeled cycles, steps,
    counters and site profiles are identical on the fused and boxed
    paths, only wall-clock time changes.

    An image is bound to the state it was loaded into: its closures
    hold that state's memory, cost model and builtins. *)

open Mi_mir

(* ------------------------------------------------------------------ *)
(* Compiled form                                                       *)
(* ------------------------------------------------------------------ *)

(* An operand, resolved at load. *)
type xv =
  | XI of int  (** immediate integer / resolved address *)
  | XF of float
  | XR of int  (** integer-bank register *)
  | XFR of int  (** float-bank register *)

(* Compiled code runs on a frame's integer and float register banks and
   returns the index of the next block to run, or -1 once the function
   has returned. *)
type code = int array -> float array -> int

type xfunc = {
  xname : string;
  param_slots : (bool * int) array;  (** (is_float, slot) per parameter *)
  mutable n_iregs : int;
  mutable n_fregs : int;
      (** bank sizes; final once [load] returns (a discarded result
          claims a scratch slot while its block compiles) *)
  mutable xblocks : code array;
  mutable xsucc : int array array;
      (** successor block ids per block: the coverage geometry *)
  mutable cov_blocks : int array;
  mutable cov_edges : int array;
      (** coverage counters, filled by [load] when the state carries a
          registry ([[||]] otherwise).  Block 0 is counted at frame
          entry; every other block entry and every edge is counted by
          the terminator that takes the edge, at an edge slot computed
          at load. *)
}

(* How the last frame returned: a [ret] terminator writes it and the
   caller reads it right after the frame's loop ends, so results cross
   calls unboxed. *)
type ret = { mutable rkind : int; mutable ri : int; mutable rf : float }

let r_void = 0
let r_int = 1
let r_float = 2

type image = {
  ist : State.t;  (** the state the image was loaded into *)
  xfuncs : (string, xfunc) Hashtbl.t;
  global_addr : (string, int) Hashtbl.t;
  fn_addr : (string, int) Hashtbl.t;  (** fake code addresses *)
  merged : Irmod.t;
  ret : ret;
}

exception Link_error of string

(* ------------------------------------------------------------------ *)
(* Execution primitives                                                *)
(* ------------------------------------------------------------------ *)

(* One dynamic step: one compare against [step_limit], below which
   neither the fuel test nor the poll hooks that fault injectors and
   wall-clock deadlines piggyback on have anything to do. *)
let[@inline] tick (st : State.t) =
  st.steps <- st.steps + 1;
  if st.steps >= st.step_limit then State.slow_tick st

(* Register slots are assigned at load and every bank is allocated with
   its function's final size, so slot accesses are in bounds by
   construction. *)
let[@inline] get (bank : int array) r = Array.unsafe_get bank r
let[@inline] set (bank : int array) r v = Array.unsafe_set bank r v
let[@inline] fget (bank : float array) r = Array.unsafe_get bank r
let[@inline] fset (bank : float array) r v = Array.unsafe_set bank r v

let[@inline] ival iregs = function
  | XI k -> k
  | XR r -> get iregs r
  | XF _ | XFR _ -> raise (State.Trap "float operand in integer context")

let[@inline] fval fregs = function
  | XF f -> f
  | XFR r -> fget fregs r
  | XI _ | XR _ -> raise (State.Trap "int operand in float context")

let[@inline] box_arg iregs fregs = function
  | XI k -> State.I k
  | XR r -> State.I (get iregs r)
  | XF f -> State.F f
  | XFR r -> State.F (fget fregs r)

(* Write a call result into the caller's banks; the error messages here
   are part of the engine's compatibility surface. *)
let set_call_result name (xdst : (bool * int) option) iregs fregs
    (res : State.value option) =
  match (xdst, res) with
  | None, _ -> ()
  | Some (is_f, s), Some v ->
      if is_f then fset fregs s (State.as_float v)
      else set iregs s (State.as_int v)
  | Some _, None ->
      raise (State.Trap ("void result used from call to " ^ name))

(* A direct call's result from the return channel, with the messages
   [set_call_result] gives for the boxed value. *)
let bad_result name (ret : ret) ~want_float =
  if ret.rkind = r_void then
    raise (State.Trap ("void result used from call to " ^ name))
  else if want_float then State.trap "expected float value"
  else State.trap "expected int value"

(* The frame loop.  [iregs]/[fregs] are the callee's banks, already
   loaded with the arguments; the result is left in the image's return
   channel. *)
let exec_frame (st : State.t) (xf : xfunc) (iregs : int array)
    (fregs : float array) =
  let saved_sp = st.stack_ptr in
  st.frame_enter_hook st;
  (try
     (* coverage side band: entry into block 0; never touches
        cycles/steps/counters *)
     let cb = xf.cov_blocks in
     if Array.length cb > 0 then cb.(0) <- cb.(0) + 1;
     let blocks = xf.xblocks in
     let cur = ref 0 in
     while !cur >= 0 do
       cur := (Array.unsafe_get blocks !cur) iregs fregs
     done
   with e ->
     st.frame_exit_hook st;
     st.stack_ptr <- saved_sp;
     raise e);
  st.frame_exit_hook st;
  st.stack_ptr <- saved_sp

(* ------------------------------------------------------------------ *)
(* Step accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* A stop inside a batched segment (see [segment_code]) gives back what
   the segment charged in advance for the instructions after the one
   that raised: their steps and their constant cycles.  A timed
   instruction has nothing to give back. *)
type undo = { u_steps : int; u_cycles : int }

let no_undo = { u_steps = 0; u_cycles = 0 }

let rewind (st : State.t) u e =
  st.steps <- st.steps - u.u_steps;
  st.cycles <- st.cycles - u.u_cycles;
  raise e

(* Loads and stores probe [Memory]'s direct-mapped page cache inline,
   in their closures: an access that lies inside one cached page is
   served from it, and only a miss takes [Memory]'s full path (null
   guard, page straddle, first touch, page limit), whose fault rewinds
   like any other stop.  A hit has the miss path's outcome exactly
   ({!Memory.cache_arrays}).  [probe] is the slot of the cached page
   holding the [w] bytes at [a], or -1. *)
let page_mask = Layout.page_size - 1
let slot_mask = Memory.cache_slots - 1

let[@inline] probe cidx a w =
  let idx = a lsr Layout.page_bits in
  let slot = idx land slot_mask in
  if Array.unsafe_get cidx slot = idx && a land page_mask <= Layout.page_size - w
  then slot
  else -1

(* the raw little-endian bit pattern of the [w] bytes at [a], as
   {!Memory.load} gives it *)
let[@inline] load_int st u cidx cpage mem w a =
  let s = probe cidx a w in
  if s < 0 then try Memory.load mem a w with e -> rewind st u e
  else
    let p = Array.unsafe_get cpage s and off = a land page_mask in
    match w with
    | 8 -> Int64.to_int (Bytes.get_int64_le p off)
    | 4 -> Int32.to_int (Bytes.get_int32_le p off) land 0xffffffff
    | 2 -> Bytes.get_uint16_le p off
    | _ -> Char.code (Bytes.get p off)

let[@inline] store_int st u cidx cpage mem w a v =
  let s = probe cidx a w in
  if s < 0 then try Memory.store mem a w v with e -> rewind st u e
  else
    let p = Array.unsafe_get cpage s and off = a land page_mask in
    match w with
    | 8 -> Bytes.set_int64_le p off (Int64.of_int v)
    | 4 -> Bytes.set_int32_le p off (Int32.of_int v)
    | 2 -> Bytes.set_uint16_le p off (v land 0xffff)
    | _ -> Bytes.set p off (Char.unsafe_chr (v land 0xff))

(* f64 values move as their full 64-bit pattern; a hit converts it
   without boxing an [Int64] *)
let[@inline] load_flt st u cidx cpage mem a =
  let s = probe cidx a 8 in
  if s < 0 then try Memory.load_f64 mem a with e -> rewind st u e
  else
    Int64.float_of_bits
      (Bytes.get_int64_le (Array.unsafe_get cpage s) (a land page_mask))

let[@inline] store_flt st u cidx cpage mem a f =
  let s = probe cidx a 8 in
  if s < 0 then try Memory.store_f64 mem a f with e -> rewind st u e
  else
    Bytes.set_int64_le (Array.unsafe_get cpage s) (a land page_mask)
      (Int64.bits_of_float f)

(* An instruction resolved at load, before it is chained.  [body] builds
   its closure without the step and the constant [cost]: given what to
   give back if it raises and the code that follows it.  [kinds_ok] is
   false when an operand has the wrong kind for its context, so the
   body traps part-way through; its segment always runs timed.  A direct
   call ends its segment: its callee's steps come next. *)
type xinstr = {
  cost : int;
  kinds_ok : bool;
  ends_segment : bool;
  body : undo -> code -> code;
}

let is_int = function XI _ | XR _ -> true | XF _ | XFR _ -> false
let is_flt v = not (is_int v)

(* A timed instruction: its own step, then its constant cycles, then its
   body. *)
let timed (st : State.t) cost (body : code) : code =
  if cost = 0 then fun ir fr ->
    tick st;
    body ir fr
  else fun ir fr ->
    tick st;
    st.cycles <- st.cycles + cost;
    body ir fr

(* A segment: instructions [xs.(lo) .. xs.(hi - 1)] (the last one a
   direct call or the block's terminator), then [next].  While the
   segment's [n] steps stay below [State.t.step_limit], no step in it
   would run out of fuel or reach a poll, so the segment charges its
   steps and constant cycles once, at entry, and runs bodies that charge
   neither; an instruction that raises rewinds the charges of the
   instructions after it, so every stop keeps the steps and cycles of
   the timed form.  Otherwise the segment runs timed, each instruction
   charging for itself; that chain is built on first need. *)
let segment_code (st : State.t) (xs : xinstr array) lo hi (next : code) : code
    =
  let slow = ref None in
  let timed_chain () =
    match !slow with
    | Some c -> c
    | None ->
        let c = ref next in
        for j = hi - 1 downto lo do
          let x = xs.(j) in
          c := timed st x.cost (x.body no_undo !c)
        done;
        slow := Some !c;
        !c
  in
  let ok = ref true in
  for j = lo to hi - 1 do
    if not xs.(j).kinds_ok then ok := false
  done;
  if not !ok then timed_chain ()
  else begin
    let fast = ref next and cost = ref 0 in
    for j = hi - 1 downto lo do
      let x = xs.(j) in
      fast := x.body { u_steps = hi - 1 - j; u_cycles = !cost } !fast;
      cost := !cost + x.cost
    done;
    let fast = !fast and n = hi - lo and cost = !cost in
    fun ir fr ->
      if st.steps + n < st.step_limit then begin
        st.steps <- st.steps + n;
        st.cycles <- st.cycles + cost;
        fast ir fr
      end
      else (timed_chain ()) ir fr
  end

(* A block's code: [body] cut into segments after every direct call, the
   last one ending at the terminator [term]. *)
let block_code (st : State.t) (body : xinstr list) (term : xinstr) : code =
  let xs = Array.of_list (body @ [ term ]) in
  (* the terminator's body ignores what follows it *)
  let code = ref (fun _ _ -> -1) and hi = ref (Array.length xs) in
  for j = Array.length xs - 2 downto -1 do
    if j < 0 || xs.(j).ends_segment then begin
      code := segment_code st xs (j + 1) !hi !code;
      hi := j + 1
    end
  done;
  !code

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Decide whether a call to [callee] can fuse into a superinstruction:
   the state must hold a typed intrinsic of that name and the site's
   static shape (arity, result slot, int-typed operands) must match it
   exactly.  Anything else stays a boxed call, whose adapter traps on
   the mismatch. *)
let fuse (st : State.t) callee (xdst : (bool * int) option)
    (xargs : xv array) : State.fast_fn option =
  let ints_only = Array.for_all is_int xargs in
  (* [State.fast_dispatch] off: force every runtime call through the
     boxed adapter, so both call paths are differentially testable *)
  if not (st.State.fast_dispatch && ints_only) then None
  else
    match State.find_fast_builtin st callee with
    | None -> None
    | Some ff -> (
        match (ff, xdst, Array.length xargs) with
        | State.F0 _, None, 0
        | State.F1 _, None, 1
        | State.F2 _, None, 2
        | State.F3 _, None, 3
        | State.F4 _, None, 4
        | State.F5 _, None, 5
        | State.FR1 _, (None | Some (false, _)), 1 ->
            Some ff
        | _ -> None)

(* A fused site's body: one direct call of the typed implementation on
   unboxed integers.  [fuse] has matched the site's shape to it. *)
let fused_code (st : State.t) xdst (a : xv array) (ff : State.fast_fn) u
    (next : code) : code =
  match ff with
  | State.F5 fn ->
      let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) and a3 = a.(3)
      and a4 = a.(4) in
      fun ir fr ->
        (try
           fn st (ival ir a0) (ival ir a1) (ival ir a2) (ival ir a3)
             (ival ir a4)
         with e -> rewind st u e);
        next ir fr
  | State.F4 fn ->
      let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) and a3 = a.(3) in
      fun ir fr ->
        (try fn st (ival ir a0) (ival ir a1) (ival ir a2) (ival ir a3)
         with e -> rewind st u e);
        next ir fr
  | State.F3 fn ->
      let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) in
      fun ir fr ->
        (try fn st (ival ir a0) (ival ir a1) (ival ir a2)
         with e -> rewind st u e);
        next ir fr
  | State.F2 fn ->
      let a0 = a.(0) and a1 = a.(1) in
      fun ir fr ->
        (try fn st (ival ir a0) (ival ir a1) with e -> rewind st u e);
        next ir fr
  | State.F1 fn ->
      let a0 = a.(0) in
      fun ir fr ->
        (try fn st (ival ir a0) with e -> rewind st u e);
        next ir fr
  | State.F0 fn ->
      fun ir fr ->
        (try fn st with e -> rewind st u e);
        next ir fr
  | State.FR1 fn -> (
      let a0 = a.(0) in
      match xdst with
      | Some (_, d) ->
          fun ir fr ->
            set ir d (try fn st (ival ir a0) with e -> rewind st u e);
            next ir fr
      | None ->
          fun ir fr ->
            (try ignore (fn st (ival ir a0)) with e -> rewind st u e);
            next ir fr)

(* An unfused call to a builtin, bound at load.  A name with no builtin
   traps when the call executes, after its step. *)
let builtin_code (st : State.t) callee xdst xargs : undo -> code -> code =
  match State.find_builtin st callee with
  | Some fn ->
      fun u next ir fr ->
        (try
           let vargs = Array.map (box_arg ir fr) xargs in
           set_call_result callee xdst ir fr (fn st vargs)
         with e -> rewind st u e);
        next ir fr
  | None ->
      let msg = "unresolved external: " ^ callee in
      fun u _ _ _ -> rewind st u (State.Trap msg)

(* One argument of a direct call, copied from the caller's banks into
   the callee's. *)
type arg = AReg of int * int | AImm of int * int | AFReg of int * int
  | AFImm of int * float

exception Bad_arg of string

(* The float bank of a callee that has no float slot: nothing ever reads
   or writes it, so every such call shares this one. *)
let no_fregs = [| 0.0 |]

(* The body of a call to a function of the image; its step and its
   [call_overhead] come before it.  Arity and argument kinds are checked
   at load; a mismatch compiles to a body that traps with the message
   the call would give.  The call ends its segment, so nothing charged
   in advance follows it. *)
let direct_code (st : State.t) (ret : ret) (callee : xfunc)
    (xdst : (bool * int) option) (xargs : xv array) : undo -> code -> code =
  let nparams = Array.length callee.param_slots in
  let args =
    if Array.length xargs <> nparams then
      Error
        (Printf.sprintf "call to %s with %d args, expected %d" callee.xname
           (Array.length xargs) nparams)
    else
      try
        Ok
          (Array.mapi
             (fun i (is_f, s) ->
               match (is_f, xargs.(i)) with
               | false, XI k -> AImm (s, k)
               | false, XR r -> AReg (s, r)
               | true, XF f -> AFImm (s, f)
               | true, XFR r -> AFReg (s, r)
               | false, (XF _ | XFR _) -> raise (Bad_arg "float arg for int param")
               | true, (XI _ | XR _) -> raise (Bad_arg "int arg for float param"))
             callee.param_slots)
      with Bad_arg msg -> Error msg
  in
  match args with
  | Error msg -> fun _ _ _ _ -> raise (State.Trap msg)
  | Ok args -> (
      let name = callee.xname in
      let call ir fr =
        let cir = Array.make (max callee.n_iregs 1) 0 in
        let cfr =
          if callee.n_fregs = 0 then no_fregs
          else Array.make callee.n_fregs 0.0
        in
        for j = 0 to Array.length args - 1 do
          match Array.unsafe_get args j with
          | AReg (s, r) -> set cir s (get ir r)
          | AImm (s, k) -> set cir s k
          | AFReg (s, r) -> fset cfr s (fget fr r)
          | AFImm (s, f) -> fset cfr s f
        done;
        exec_frame st callee cir cfr
      in
      match xdst with
      | None ->
          fun _ next ir fr ->
            call ir fr;
            next ir fr
      | Some (false, d) ->
          fun _ next ir fr ->
            call ir fr;
            if ret.rkind = r_int then set ir d ret.ri
            else bad_result name ret ~want_float:false;
            next ir fr
      | Some (true, d) ->
          fun _ next ir fr ->
            call ir fr;
            if ret.rkind = r_float then fset fr d ret.rf
            else bad_result name ret ~want_float:true;
            next ir fr)

(* A phi move: the value [msrc] flows into slot [mdst] along an edge. *)
type move = { mdst : int; mflt : bool; msrc : xv }

(* Coverage side band of taking an edge: the edge at flat slot [slot]
   and the entry into block [t].  Never touches cycles, steps or
   counters. *)
let[@inline] cover (xf : xfunc) slot t =
  let e = xf.cov_edges and b = xf.cov_blocks in
  Array.unsafe_set e slot (Array.unsafe_get e slot + 1);
  Array.unsafe_set b t (Array.unsafe_get b t + 1)

(* Taking the edge to block [t]: coverage when [cov], then the edge's
   phi moves with parallel semantics — every source is read before any
   destination is written, one ALU cycle per move.  [None] when there
   is nothing to do but jump. *)
let edge_code (st : State.t) (xf : xfunc) ~cov ~slot t (mv : move array) :
    code option =
  let alu = st.State.cost.Cost.alu in
  match mv with
  | [||] -> if cov then Some (fun _ _ -> cover xf slot t; t) else None
  | [| { mdst = d; mflt = false; msrc = XR s } |] ->
      if cov then
        Some
          (fun ir _ ->
            cover xf slot t;
            set ir d (get ir s);
            st.cycles <- st.cycles + alu;
            t)
      else
        Some
          (fun ir _ ->
            set ir d (get ir s);
            st.cycles <- st.cycles + alu;
            t)
  | [|
   { mdst = d1; mflt = false; msrc = XR s1 };
   { mdst = d2; mflt = false; msrc = XR s2 };
  |] ->
      (* register reads cannot trap, so the two charges add at once *)
      let k = 2 * alu in
      if cov then
        Some
          (fun ir _ ->
            cover xf slot t;
            let x1 = get ir s1 and x2 = get ir s2 in
            set ir d1 x1;
            set ir d2 x2;
            st.cycles <- st.cycles + k;
            t)
      else
        Some
          (fun ir _ ->
            let x1 = get ir s1 and x2 = get ir s2 in
            set ir d1 x1;
            set ir d2 x2;
            st.cycles <- st.cycles + k;
            t)
  | _ ->
      let n = Array.length mv in
      (* nothing runs between a read and its write-back, so one buffer
         pair per edge serves every execution *)
      let tmp_i = Array.make n 0 and tmp_f = Array.make n 0.0 in
      let moves ir fr =
        for k = 0 to n - 1 do
          let m = Array.unsafe_get mv k in
          if m.mflt then tmp_f.(k) <- fval fr m.msrc
          else tmp_i.(k) <- ival ir m.msrc
        done;
        for k = 0 to n - 1 do
          let m = Array.unsafe_get mv k in
          if m.mflt then fset fr m.mdst tmp_f.(k) else set ir m.mdst tmp_i.(k);
          st.cycles <- st.cycles + alu
        done
      in
      if cov then
        Some
          (fun ir fr ->
            cover xf slot t;
            moves ir fr;
            t)
      else
        Some
          (fun ir fr ->
            moves ir fr;
            t)

(* Slot assignment: parameters first, then phi and instruction results,
   each bank numbered in order of first definition. *)
let assign_slots (f : Func.t) =
  let slot_of : (bool * int) Value.VTbl.t = Value.VTbl.create 64 in
  let n_i = ref 0 and n_f = ref 0 in
  let assign (v : Value.var) =
    if not (Value.VTbl.mem slot_of v) then
      if Ty.is_float v.vty then begin
        Value.VTbl.add slot_of v (true, !n_f);
        incr n_f
      end
      else begin
        Value.VTbl.add slot_of v (false, !n_i);
        incr n_i
      end
  in
  List.iter assign f.params;
  List.iter
    (fun (b : Block.t) ->
      List.iter (fun (p : Instr.phi) -> assign p.pdst) b.phis;
      List.iter (fun (i : Instr.t) -> Option.iter assign i.dst) b.body)
    f.blocks;
  let xf =
    {
      xname = f.fname;
      param_slots =
        Array.of_list (List.map (Value.VTbl.find slot_of) f.params);
      n_iregs = !n_i;
      n_fregs = !n_f;
      xblocks = [||];
      xsucc = [||];
      cov_blocks = [||];
      cov_edges = [||];
    }
  in
  (xf, slot_of)

(* Compile [f] into [xf] (prepared by [assign_slots]).  Operands,
   slots and labels resolve in program order — instructions, then the
   terminator, block by block, then the phi moves — so a malformed
   function fails with the first Link_error in that order. *)
let compile_func (st : State.t) ~ret ~xfuncs ~global_addr ~fn_addr
    ~(cov : bool) (xf : xfunc) slot_of (f : Func.t) =
  let c = st.State.cost in
  let mem = st.State.mem in
  let cidx, cpage = Memory.cache_arrays mem in
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let block_idx = Hashtbl.create n in
  Array.iteri
    (fun i (b : Block.t) -> Hashtbl.replace block_idx b.label i)
    blocks;
  let bidx l =
    match Hashtbl.find_opt block_idx l with
    | Some i -> i
    | None -> raise (Link_error (f.fname ^ ": unknown label " ^ l))
  in
  let slot v =
    match Value.VTbl.find_opt slot_of v with
    | Some s -> s
    | None ->
        raise
          (Link_error
             (Printf.sprintf "%s: unassigned variable %s" f.fname
                (Value.var_to_string v)))
  in
  let xval (v : Value.t) : xv =
    match v with
    | Var x ->
        let is_f, s = slot x in
        if is_f then XFR s else XR s
    | Int (_, k) -> XI k
    | Flt fl -> XF fl
    | Glob g -> (
        match Hashtbl.find_opt global_addr g with
        | Some a -> XI a
        | None -> raise (Link_error ("unresolved global @" ^ g)))
    | Fn fn -> (
        match Hashtbl.find_opt fn_addr fn with
        | Some a -> XI a
        | None -> raise (Link_error ("unresolved function &" ^ fn)))
  in
  (* discarded results share one scratch slot per bank: a fresh slot per
     dead destination would bloat n_iregs/n_fregs and with it the bank
     allocation of every call of this function *)
  let iscratch = ref (-1) and fscratch = ref (-1) in
  let int_slot ~what (d : Value.var option) =
    match d with
    | Some v ->
        let is_f, s = slot v in
        if is_f then raise (Link_error (what ^ ": float dst"));
        s
    | None ->
        if !iscratch < 0 then begin
          iscratch := xf.n_iregs;
          xf.n_iregs <- xf.n_iregs + 1
        end;
        !iscratch
  in
  let flt_slot ~what (d : Value.var option) =
    match d with
    | Some v ->
        let is_f, s = slot v in
        if not is_f then raise (Link_error (what ^ ": int dst"));
        s
    | None ->
        if !fscratch < 0 then begin
          fscratch := xf.n_fregs;
          xf.n_fregs <- xf.n_fregs + 1
        end;
        !fscratch
  in
  (* an instruction resolves its slots and operands now; its body is
     built once per chain it runs in (see [segment_code]) *)
  let xi ~cost ~ok body = { cost; kinds_ok = ok; ends_segment = false; body } in
  let instr (i : Instr.t) : xinstr =
    match i.op with
    | Bin (op, ty, a, b) -> (
        let d = int_slot ~what:"bin" i.dst in
        let a = xval a and b = xval b in
        let ok = is_int a && is_int b in
        let k =
          match op with
          | Mul -> c.mul
          | SDiv | UDiv | SRem | URem -> c.div
          | _ -> c.alu
        in
        let wide = ty = Ty.I64 || ty = Ty.Ptr in
        match op with
        | SDiv | UDiv | SRem | URem ->
            (* [Eval.binop] raises only on a zero divisor *)
            xi ~cost:k ~ok (fun u next ir fr ->
                let x = ival ir a and y = ival ir b in
                if y = 0 then rewind st u (State.Trap "integer division by zero");
                set ir d (Eval.binop op ty x y);
                next ir fr)
        | _ ->
            xi ~cost:k ~ok (fun _ next ->
                match (op, a, b) with
                | Add, XR x, XR y when wide ->
                    fun ir fr ->
                      set ir d (get ir x + get ir y);
                      next ir fr
                | Add, XR x, XI y when wide ->
                    fun ir fr ->
                      set ir d (get ir x + y);
                      next ir fr
                | Sub, XR x, XR y when wide ->
                    fun ir fr ->
                      set ir d (get ir x - get ir y);
                      next ir fr
                | Sub, XR x, XI y when wide ->
                    fun ir fr ->
                      set ir d (get ir x - y);
                      next ir fr
                | Mul, XR x, XR y when wide ->
                    fun ir fr ->
                      set ir d (get ir x * get ir y);
                      next ir fr
                | Mul, XR x, XI y when wide ->
                    fun ir fr ->
                      set ir d (get ir x * y);
                      next ir fr
                | Add, XR x, XR y ->
                    fun ir fr ->
                      set ir d (Eval.normalize ty (get ir x + get ir y));
                      next ir fr
                | Add, XR x, XI y ->
                    fun ir fr ->
                      set ir d (Eval.normalize ty (get ir x + y));
                      next ir fr
                | _ ->
                    fun ir fr ->
                      let x = ival ir a and y = ival ir b in
                      set ir d (Eval.binop op ty x y);
                      next ir fr))
    | FBin (op, a, b) ->
        let d = flt_slot ~what:"fbin" i.dst in
        let a = xval a and b = xval b in
        xi ~cost:c.fpu ~ok:(is_flt a && is_flt b) (fun _ next ->
            match (op, a, b) with
            | FAdd, XFR x, XFR y ->
                fun ir fr ->
                  fset fr d (fget fr x +. fget fr y);
                  next ir fr
            | FSub, XFR x, XFR y ->
                fun ir fr ->
                  fset fr d (fget fr x -. fget fr y);
                  next ir fr
            | FMul, XFR x, XFR y ->
                fun ir fr ->
                  fset fr d (fget fr x *. fget fr y);
                  next ir fr
            | FDiv, XFR x, XFR y ->
                fun ir fr ->
                  fset fr d (fget fr x /. fget fr y);
                  next ir fr
            | _ ->
                fun ir fr ->
                  fset fr d (Eval.fbinop op (fval fr a) (fval fr b));
                  next ir fr)
    | Icmp (op, ty, a, b) ->
        let d = int_slot ~what:"icmp" i.dst in
        let a = xval a and b = xval b in
        (* canonical values compare signed and for equality as plain
           ints whatever their width; unsigned predicates go through
           [Eval.icmp] *)
        let b2i x = if x then 1 else 0 in
        xi ~cost:c.alu ~ok:(is_int a && is_int b) (fun _ next ->
            match (op, a, b) with
            | Slt, XR x, XR y ->
                fun ir fr ->
                  set ir d (b2i (get ir x < get ir y));
                  next ir fr
            | Slt, XR x, XI y ->
                fun ir fr ->
                  set ir d (b2i (get ir x < y));
                  next ir fr
            | Sle, XR x, XR y ->
                fun ir fr ->
                  set ir d (b2i (get ir x <= get ir y));
                  next ir fr
            | Sle, XR x, XI y ->
                fun ir fr ->
                  set ir d (b2i (get ir x <= y));
                  next ir fr
            | Sgt, XR x, XR y ->
                fun ir fr ->
                  set ir d (b2i (get ir x > get ir y));
                  next ir fr
            | Sgt, XR x, XI y ->
                fun ir fr ->
                  set ir d (b2i (get ir x > y));
                  next ir fr
            | Sge, XR x, XR y ->
                fun ir fr ->
                  set ir d (b2i (get ir x >= get ir y));
                  next ir fr
            | Sge, XR x, XI y ->
                fun ir fr ->
                  set ir d (b2i (get ir x >= y));
                  next ir fr
            | Eq, XR x, XR y ->
                fun ir fr ->
                  set ir d (b2i (get ir x = get ir y));
                  next ir fr
            | Eq, XR x, XI y ->
                fun ir fr ->
                  set ir d (b2i (get ir x = y));
                  next ir fr
            | Ne, XR x, XR y ->
                fun ir fr ->
                  set ir d (b2i (get ir x <> get ir y));
                  next ir fr
            | Ne, XR x, XI y ->
                fun ir fr ->
                  set ir d (b2i (get ir x <> y));
                  next ir fr
            | _ ->
                fun ir fr ->
                  set ir d (Eval.icmp op ty (ival ir a) (ival ir b));
                  next ir fr)
    | Fcmp (op, a, b) ->
        let d = int_slot ~what:"fcmp" i.dst in
        let a = xval a and b = xval b in
        xi ~cost:c.fpu ~ok:(is_flt a && is_flt b) (fun _ next ir fr ->
            set ir d (Eval.fcmp op (fval fr a) (fval fr b));
            next ir fr)
    | Cast (cst, from_ty, v, to_ty) -> (
        match cst with
        | SiToFp ->
            let d = flt_slot ~what:"sitofp" i.dst and v = xval v in
            xi ~cost:c.fpu ~ok:(is_int v) (fun _ next ir fr ->
                fset fr d (float_of_int (ival ir v));
                next ir fr)
        | FpToSi ->
            let d = int_slot ~what:"fptosi" i.dst and v = xval v in
            xi ~cost:c.fpu ~ok:(is_flt v) (fun _ next ir fr ->
                let x = fval fr v in
                set ir d
                  (if Float.is_nan x then 0
                   else Eval.normalize to_ty (int_of_float x));
                next ir fr)
        | Bitcast when Ty.is_float to_ty && not (Ty.is_float from_ty) ->
            (* inverse of the f64 -> i64 case below: the integer holds the
               pattern's top 63 bits, shifted back up; bit 0 reads as
               zero *)
            let d = flt_slot ~what:"bitcast" i.dst and v = xval v in
            xi ~cost:c.alu ~ok:(is_int v) (fun _ next ir fr ->
                fset fr d
                  (Int64.float_of_bits
                     (Int64.shift_left (Int64.of_int (ival ir v)) 1));
                next ir fr)
        | Bitcast when Ty.is_float from_ty && not (Ty.is_float to_ty) ->
            (* the IEEE pattern has 64 bits, the int substrate 63: keep
               the top 63 (sign, exponent, mantissa bits 51..1) so the
               round-trip preserves sign and magnitude to 1 ulp, and
               sign tests on the integer pattern work.  Truncating via
               Int64.to_int would instead clip the sign bit (so
               bitcast(bitcast(-1.0)) read +1.0) — same full-width
               discipline as Memory.load_i64_full. *)
            let d = int_slot ~what:"bitcast" i.dst and v = xval v in
            xi ~cost:c.alu ~ok:(is_flt v) (fun _ next ir fr ->
                set ir d
                  (Int64.to_int
                     (Int64.shift_right_logical
                        (Int64.bits_of_float (fval fr v))
                        1));
                next ir fr)
        | _ ->
            let d = int_slot ~what:"cast" i.dst and v = xval v in
            xi ~cost:c.alu ~ok:(is_int v) (fun _ next ->
                match (cst, v) with
                | (IntToPtr | PtrToInt | Bitcast), XR x ->
                    fun ir fr ->
                      set ir d (get ir x);
                      next ir fr
                | _ ->
                    fun ir fr ->
                      set ir d (Eval.cast_int cst from_ty to_ty (ival ir v));
                      next ir fr))
    | Load (ty, addr) when Ty.is_float ty ->
        let d = flt_slot ~what:"load" i.dst and a = xval addr in
        xi ~cost:c.load ~ok:(is_int a) (fun u next ->
            match a with
            | XR x ->
                fun ir fr ->
                  fset fr d (load_flt st u cidx cpage mem (get ir x));
                  next ir fr
            | _ ->
                fun ir fr ->
                  fset fr d (load_flt st u cidx cpage mem (ival ir a));
                  next ir fr)
    | Load (ty, addr) ->
        let d = int_slot ~what:"load" i.dst and a = xval addr in
        let w = Ty.size_of ty in
        xi ~cost:c.load ~ok:(is_int a) (fun u next ->
            match (ty, a) with
            | (I64 | Ptr), XR x ->
                fun ir fr ->
                  set ir d (load_int st u cidx cpage mem 8 (get ir x));
                  next ir fr
            | (I64 | Ptr), XI x ->
                fun ir fr ->
                  set ir d (load_int st u cidx cpage mem 8 x);
                  next ir fr
            | I32, XR x ->
                fun ir fr ->
                  set ir d
                    (Eval.normalize ty (load_int st u cidx cpage mem 4 (get ir x)));
                  next ir fr
            | _ ->
                fun ir fr ->
                  set ir d
                    (Eval.normalize ty (load_int st u cidx cpage mem w (ival ir a)));
                  next ir fr)
    | Store (ty, v, addr) when Ty.is_float ty ->
        let v = xval v and a = xval addr in
        xi ~cost:c.store ~ok:(is_flt v && is_int a) (fun u next ->
            match (a, v) with
            | XR x, XFR y ->
                fun ir fr ->
                  store_flt st u cidx cpage mem (get ir x) (fget fr y);
                  next ir fr
            | _ ->
                fun ir fr ->
                  store_flt st u cidx cpage mem (ival ir a) (fval fr v);
                  next ir fr)
    | Store (ty, v, addr) ->
        let v = xval v and a = xval addr in
        let w = Ty.size_of ty in
        xi ~cost:c.store ~ok:(is_int v && is_int a) (fun u next ->
            match (w, a, v) with
            | 8, XR x, XR y ->
                fun ir fr ->
                  store_int st u cidx cpage mem 8 (get ir x) (get ir y);
                  next ir fr
            | 8, XR x, XI y ->
                fun ir fr ->
                  store_int st u cidx cpage mem 8 (get ir x) y;
                  next ir fr
            | 8, XI x, XR y ->
                fun ir fr ->
                  store_int st u cidx cpage mem 8 x (get ir y);
                  next ir fr
            | 4, XR x, XR y ->
                fun ir fr ->
                  store_int st u cidx cpage mem 4 (get ir x) (get ir y);
                  next ir fr
            | _ ->
                fun ir fr ->
                  store_int st u cidx cpage mem w (ival ir a) (ival ir v);
                  next ir fr)
    | Gep (base, idxs) -> (
        let d = int_slot ~what:"gep" i.dst in
        let base = xval base in
        let idxs =
          Array.of_list
            (List.map (fun gi -> (gi.Instr.stride, xval gi.Instr.idx)) idxs)
        in
        let ok = is_int base && Array.for_all (fun (_, v) -> is_int v) idxs in
        let k = c.gep_term in
        match (base, idxs) with
        | XR b, [| (s, XR x) |] ->
            xi ~cost:k ~ok (fun _ next ir fr ->
                set ir d (get ir b + (s * get ir x));
                next ir fr)
        | XR b, [| (s, XI x) |] ->
            let off = s * x in
            xi ~cost:k ~ok (fun _ next ir fr ->
                set ir d (get ir b + off);
                next ir fr)
        | XR b, [| (s1, XR x1); (s2, XR x2) |] ->
            xi ~cost:(2 * k) ~ok (fun _ next ir fr ->
                set ir d (get ir b + (s1 * get ir x1) + (s2 * get ir x2));
                next ir fr)
        | XR b, [| (s1, XR x1); (s2, XI x2) |] ->
            let off = s2 * x2 in
            xi ~cost:(2 * k) ~ok (fun _ next ir fr ->
                set ir d (get ir b + (s1 * get ir x1) + off);
                next ir fr)
        | _ ->
            (* charged per index as it is read, so a misplaced float
               index traps with the charges made before it *)
            xi ~cost:0 ~ok (fun _ next ir fr ->
                let acc = ref (ival ir base) in
                for j = 0 to Array.length idxs - 1 do
                  let stride, iv = idxs.(j) in
                  acc := !acc + (stride * ival ir iv);
                  st.cycles <- st.cycles + k
                done;
                set ir d !acc;
                next ir fr))
    | Select (ty, cnd, a, b) when Ty.is_float ty ->
        let d = flt_slot ~what:"select" i.dst in
        let cnd = xval cnd and a = xval a and b = xval b in
        xi ~cost:c.select ~ok:(is_int cnd && is_flt a && is_flt b)
          (fun _ next ir fr ->
            fset fr d (if ival ir cnd <> 0 then fval fr a else fval fr b);
            next ir fr)
    | Select (_, cnd, a, b) ->
        let d = int_slot ~what:"select" i.dst in
        let cnd = xval cnd and a = xval a and b = xval b in
        xi ~cost:c.select ~ok:(is_int cnd && is_int a && is_int b)
          (fun _ next ->
            match (cnd, a, b) with
            | XR r, XR x, XR y ->
                fun ir fr ->
                  set ir d (if get ir r <> 0 then get ir x else get ir y);
                  next ir fr
            | _ ->
                fun ir fr ->
                  set ir d (if ival ir cnd <> 0 then ival ir a else ival ir b);
                  next ir fr)
    | Call (callee, args) -> (
        let xdst = Option.map slot i.dst in
        let xargs = Array.of_list (List.map xval args) in
        (* resolve now, once: image function > fused intrinsic > boxed
           builtin > unresolved trap *)
        match Hashtbl.find_opt xfuncs callee with
        | Some target ->
            {
              cost = c.call_overhead;
              kinds_ok = true;
              ends_segment = true;
              body = direct_code st ret target xdst xargs;
            }
        | None -> (
            match fuse st callee xdst xargs with
            | Some ff -> xi ~cost:0 ~ok:true (fused_code st xdst xargs ff)
            | None ->
                xi ~cost:0 ~ok:true (builtin_code st callee xdst xargs)))
    | Alloca { size; align } ->
        let d = int_slot ~what:"alloca" i.dst in
        let mask = lnot (max align 8 - 1) in
        xi ~cost:c.alu ~ok:true (fun u next ir fr ->
            let sp = (st.stack_ptr - size) land mask in
            if sp < Layout.stack_limit then
              rewind st u (State.Trap "stack overflow");
            st.stack_ptr <- sp;
            set ir d sp;
            next ir fr)
    | Memcpy (dv, sv, nv) ->
        let dv = xval dv and sv = xval sv and nv = xval nv in
        xi ~cost:0
          ~ok:(is_int dv && is_int sv && is_int nv)
          (fun u next ir fr ->
            let len = ival ir nv in
            st.cycles <- st.cycles + Cost.memop_cost c len;
            (try Memory.copy mem ~dst:(ival ir dv) ~src:(ival ir sv) len
             with e -> rewind st u e);
            next ir fr)
    | Memset (dv, bv, nv) ->
        let dv = xval dv and bv = xval bv and nv = xval nv in
        xi ~cost:0
          ~ok:(is_int dv && is_int bv && is_int nv)
          (fun u next ir fr ->
            let len = ival ir nv in
            st.cycles <- st.cycles + Cost.memop_cost c len;
            (try
               Memory.fill mem ~dst:(ival ir dv) ~byte:(ival ir bv land 0xff) len
             with e -> rewind st u e);
            next ir fr)
  in
  (* the terminator's body, given the code of each outgoing edge; its
     step and [branch] come before it *)
  let ret_is_float =
    match f.ret_ty with Some ty -> Ty.is_float ty | None -> false
  in
  let branch = c.branch in
  let term (t : Instr.term) :
      [ `Ret of code | `Br of int | `Cbr of xv * int * int ] =
    match t with
    | Ret None ->
        `Ret
          (fun _ _ ->
            ret.rkind <- r_void;
            -1)
    | Ret (Some v) -> (
        match (ret_is_float, xval v) with
        | true, XFR r ->
            `Ret
              (fun _ fr ->
                ret.rf <- fget fr r;
                ret.rkind <- r_float;
                -1)
        | true, XF x ->
            `Ret
              (fun _ _ ->
                ret.rf <- x;
                ret.rkind <- r_float;
                -1)
        | false, XR r ->
            `Ret
              (fun ir _ ->
                ret.ri <- get ir r;
                ret.rkind <- r_int;
                -1)
        | false, XI x ->
            `Ret
              (fun _ _ ->
                ret.ri <- x;
                ret.rkind <- r_int;
                -1)
        | true, ((XI _ | XR _) as v) | false, ((XF _ | XFR _) as v) ->
            (* the operand read traps, as it did when it was evaluated
               at run time *)
            `Ret
              (fun ir fr ->
                if ret_is_float then ignore (fval fr v) else ignore (ival ir v);
                -1))
    | Br l -> `Br (bidx l)
    | Cbr (cnd, l1, l2) ->
        let cnd = xval cnd in
        `Cbr (cnd, bidx l1, bidx l2)
    | Unreachable ->
        let msg = "reached unreachable in " ^ f.fname in
        `Ret
          (fun _ _ ->
            raise (State.Trap msg))
  in
  let compiled =
    Array.map
      (fun (b : Block.t) ->
        let body = List.map instr b.body in
        (body, term b.term))
      blocks
  in
  (* phi moves, per (target block, predecessor block) *)
  let moves = Array.make n [||] in
  Array.iteri
    (fun ti (b : Block.t) ->
      if b.phis <> [] then begin
      let preds = Hashtbl.create 4 in
      List.iter
        (fun (p : Instr.phi) ->
          let is_f, dslot = slot p.pdst in
          List.iter
            (fun (lbl, v) ->
              let pi = bidx lbl in
              let mv = { mdst = dslot; mflt = is_f; msrc = xval v } in
              match Hashtbl.find_opt preds pi with
              | Some l -> l := mv :: !l
              | None -> Hashtbl.add preds pi (ref [ mv ]))
            p.incoming)
        b.phis;
      if Hashtbl.length preds > 0 then begin
        let a = Array.make n [||] in
        Hashtbl.iter
          (fun pi l -> a.(pi) <- Array.of_list (List.rev !l))
          preds;
        moves.(ti) <- a
      end
      end)
    blocks;
  let edge_moves src t =
    let a = moves.(t) in
    if Array.length a = 0 then [||] else a.(src)
  in
  (* coverage geometry: a conditional branch with both arms on one
     target is a single edge *)
  let succ =
    Array.map
      (fun (_, t) ->
        match t with
        | `Ret _ -> [||]
        | `Br t -> [| t |]
        | `Cbr (_, t1, t2) -> if t1 = t2 then [| t1 |] else [| t1; t2 |])
      compiled
  in
  let ebase = Array.make n 0 in
  for i = 1 to n - 1 do
    ebase.(i) <- ebase.(i - 1) + Array.length succ.(i - 1)
  done;
  let edge src t k =
    edge_code st xf ~cov ~slot:(ebase.(src) + k) t (edge_moves src t)
  in
  let jump t = function Some e -> e | None -> fun _ _ -> t in
  xf.xsucc <- succ;
  xf.xblocks <-
    Array.mapi
      (fun src (body, t) ->
        let cost, term =
          match t with
          | `Ret code -> (0, code)
          | `Br t -> (branch, jump t (edge src t 0))
          | `Cbr (cnd, t1, t2) -> (
              branch,
              let k2 = if t1 = t2 then 0 else 1 in
              let plain =
                Array.length (edge_moves src t1) = 0
                && Array.length (edge_moves src t2) = 0
              in
              match cnd with
              | XR r when plain && not cov ->
                  fun ir _ -> if get ir r <> 0 then t1 else t2
              | XR r when plain ->
                  let s1 = ebase.(src) and s2 = ebase.(src) + k2 in
                  fun ir _ ->
                    if get ir r <> 0 then begin
                      cover xf s1 t1;
                      t1
                    end
                    else begin
                      cover xf s2 t2;
                      t2
                    end
              | XR r ->
                  let e1 = jump t1 (edge src t1 0)
                  and e2 = jump t2 (edge src t2 k2) in
                  fun ir fr ->
                    if get ir r <> 0 then e1 ir fr else e2 ir fr
              | _ ->
                  let e1 = jump t1 (edge src t1 0)
                  and e2 = jump t2 (edge src t2 k2) in
                  fun ir fr ->
                    if ival ir cnd <> 0 then e1 ir fr else e2 ir fr)
        in
        block_code st body
          {
            cost;
            kinds_ok = true;
            ends_segment = false;
            body = (fun _ _ -> term);
          })
      compiled

(* ------------------------------------------------------------------ *)
(* Linking and loading                                                 *)
(* ------------------------------------------------------------------ *)

(** Merge separately-compiled modules: resolve extern declarations against
    definitions from sibling modules, keep unresolved externs for the
    builtin table.  This models the paper's link step (Fig. 8). *)
let link (modules : Irmod.t list) : Irmod.t =
  let out = Irmod.mk "linked" in
  let gdefs = Hashtbl.create 32 and gdecls = Hashtbl.create 32 in
  let fdefs = Hashtbl.create 32 and fdecls = Hashtbl.create 32 in
  List.iter
    (fun (m : Irmod.t) ->
      List.iter
        (fun (g : Irmod.global) ->
          if g.gextern then begin
            if not (Hashtbl.mem gdecls g.gname) then
              Hashtbl.add gdecls g.gname g
          end
          else if Hashtbl.mem gdefs g.gname then
            raise (Link_error ("duplicate definition of global " ^ g.gname))
          else Hashtbl.add gdefs g.gname g)
        m.globals;
      List.iter
        (fun (f : Func.t) ->
          if f.is_external then begin
            if not (Hashtbl.mem fdecls f.fname) then
              Hashtbl.add fdecls f.fname f
          end
          else if Hashtbl.mem fdefs f.fname then
            raise (Link_error ("duplicate definition of function " ^ f.fname))
          else Hashtbl.add fdefs f.fname f)
        m.funcs)
    modules;
  (* definitions win over declarations; preserve first-module order *)
  let seen_g = Hashtbl.create 32 and seen_f = Hashtbl.create 32 in
  List.iter
    (fun (m : Irmod.t) ->
      List.iter
        (fun (g : Irmod.global) ->
          if not (Hashtbl.mem seen_g g.gname) then begin
            Hashtbl.add seen_g g.gname ();
            match Hashtbl.find_opt gdefs g.gname with
            | Some d -> Irmod.add_global out d
            | None -> Irmod.add_global out g
          end)
        m.globals;
      List.iter
        (fun (f : Func.t) ->
          if not (Hashtbl.mem seen_f f.fname) then begin
            Hashtbl.add seen_f f.fname ();
            match Hashtbl.find_opt fdefs f.fname with
            | Some d -> Irmod.add_func out d
            | None -> Irmod.add_func out f
          end)
        m.funcs)
    modules;
  out

(** Lay out globals and write their initializers.  [alloc_global] decides
    placement per global: return [Some addr] to place it yourself (the
    Low-Fat runtime mirrors instrumented globals into low-fat regions,
    [Duck & Yap 2018]), or [None] for the default (non-low-fat) globals
    segment.  Extern globals with no definition anywhere model
    external-library globals: they always live in the globals segment. *)
let load
    ?(alloc_global :
       (State.t -> name:string -> size:int -> align:int -> int option) option)
    (st : State.t) (modules : Irmod.t list) : image =
  (* call sites resolve against the builtin table below, once: close it *)
  st.State.loaded <- true;
  let merged = link modules in
  let global_addr = Hashtbl.create 32 in
  let gbase = ref Layout.globals_base in
  let seg_alloc ~size ~align =
    let a = Mi_support.Util.align_up !gbase (max align 8) in
    gbase := a + max size 1 + 32;
    (* 32-byte gap between globals so raw overflows between distinct
       globals stay observable *)
    a
  in
  List.iter
    (fun (g : Irmod.global) ->
      let size =
        if g.gextern && (g.gsize = 0 || not g.gsize_known) then 4096
        else max g.gsize 1
      in
      let addr =
        if g.gextern then seg_alloc ~size ~align:g.galign
        else
          match alloc_global with
          | Some f -> (
              match f st ~name:g.gname ~size ~align:g.galign with
              | Some a -> a
              | None -> seg_alloc ~size ~align:g.galign)
          | None -> seg_alloc ~size ~align:g.galign
      in
      Hashtbl.replace global_addr g.gname addr)
    merged.globals;
  (* write initializers; GPtr fields need all addresses assigned first *)
  List.iter
    (fun (g : Irmod.global) ->
      if not g.gextern then begin
        let addr = Hashtbl.find global_addr g.gname in
        let off = ref 0 in
        List.iter
          (fun (fld : Irmod.gfield) ->
            (match fld with
            | GBytes s -> Memory.store_bytes st.State.mem (addr + !off) s
            | GZero _ -> () (* memory is zero-initialized *)
            | GPtr name -> (
                match Hashtbl.find_opt global_addr name with
                | Some a -> Memory.store st.State.mem (addr + !off) 8 a
                | None ->
                    raise
                      (Link_error
                         (Printf.sprintf
                            "global %s references unknown global %s" g.gname
                            name))));
            off := !off + Irmod.field_size fld)
          g.gfields
      end)
    merged.globals;
  (* fake code addresses inside the null guard so dereferencing traps *)
  let fn_addr = Hashtbl.create 32 in
  List.iteri
    (fun i (f : Func.t) -> Hashtbl.replace fn_addr f.fname (0x1000 + (i * 16)))
    merged.funcs;
  (* two passes: prepare every defined function's record (slots, bank
     sizes, parameter slots) first, so call sites — including mutually
     recursive ones — bind their callee's record in the single
     compilation pass that follows *)
  let xfuncs = Hashtbl.create 32 in
  let prepared =
    List.filter_map
      (fun (f : Func.t) ->
        if f.is_external then None
        else begin
          let xf, slot_of = assign_slots f in
          Hashtbl.replace xfuncs f.fname xf;
          Some (xf, slot_of, f)
        end)
      merged.funcs
  in
  let ret = { rkind = r_void; ri = 0; rf = 0.0 } in
  let cov = st.State.coverage <> None in
  List.iter
    (fun (xf, slot_of, f) ->
      compile_func st ~ret ~xfuncs ~global_addr ~fn_addr ~cov xf slot_of f)
    prepared;
  (* register coverage geometry when the state carries a registry: the
     successor lists of the compiled blocks are the stable block/edge id
     space *)
  (match st.State.coverage with
  | None -> ()
  | Some reg ->
      Hashtbl.iter
        (fun _ xf ->
          let blocks, _, _, edges =
            Mi_obs.Coverage.counters
              (Mi_obs.Coverage.register_fn reg ~name:xf.xname ~succ:xf.xsucc)
          in
          xf.cov_blocks <- blocks;
          xf.cov_edges <- edges)
        xfuncs);
  { ist = st; xfuncs; global_addr; fn_addr; merged; ret }

(** [(n_iregs, n_fregs)] of a loaded function — the register-bank sizes
    every call of it allocates. *)
let func_regs (img : image) name =
  Option.map
    (fun xf -> (xf.n_iregs, xf.n_fregs))
    (Hashtbl.find_opt img.xfuncs name)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Exited of int
  | Safety_violation of { checker : string; reason : string }
  | Trapped of string
  | Exhausted of int
      (** ran out of fuel (payload: the budget) — resource exhaustion,
          not a program error *)

type result = {
  outcome : outcome;
  cycles : int;
  steps : int;
  output : string;
  counters : (string * int) list;
  mem_pages : int;
}

(* Boxed-argument entry: [run] calls functions this way; arguments
   arrive as {!State.value}s and the result is left in the image's
   return channel. *)
let exec_call (img : image) (xf : xfunc) (args : State.value array) =
  if Array.length args <> Array.length xf.param_slots then
    raise
      (State.Trap
         (Printf.sprintf "call to %s with %d args, expected %d" xf.xname
            (Array.length args)
            (Array.length xf.param_slots)));
  let iregs = Array.make (max xf.n_iregs 1) 0 in
  let fregs = Array.make (max xf.n_fregs 1) 0.0 in
  Array.iteri
    (fun i (is_f, s) ->
      match args.(i) with
      | State.I v ->
          if is_f then raise (State.Trap "int arg for float param")
          else iregs.(s) <- v
      | State.F v ->
          if is_f then fregs.(s) <- v
          else raise (State.Trap "float arg for int param"))
    xf.param_slots;
  exec_frame img.ist xf iregs fregs

let merged_module (img : image) = img.merged

(** Run function [entry] (default ["main"]).  If the image defines
    [__mi_global_init], it runs first (SoftBound metadata for pointers in
    global initializers — the constructor the instrumentation emits). *)
let run ?(entry = "main") (st : State.t) (img : image) : result =
  if st != img.ist then
    invalid_arg "Interp.run: the image was loaded into another state";
  let outcome =
    try
      (match Hashtbl.find_opt img.xfuncs "__mi_global_init" with
      | Some f -> exec_call img f [||]
      | None -> ());
      match Hashtbl.find_opt img.xfuncs entry with
      | None -> Trapped ("no entry function " ^ entry)
      | Some f ->
          exec_call img f [||];
          (* a float or void result exits 0 *)
          Exited (if img.ret.rkind = r_int then img.ret.ri else 0)
    with
    | State.Exit_program code -> Exited code
    | State.Safety_abort { checker; reason } ->
        Safety_violation { checker; reason }
    | State.Trap msg -> Trapped msg
    | State.Fuel_exhausted budget -> Exhausted budget
    | Memory.Fault (addr, msg) ->
        Trapped (Printf.sprintf "memory fault at %#x: %s" addr msg)
  in
  (* fold the execution-level quantities into the metrics namespace so a
     single serialized registry describes the whole run *)
  Mi_obs.Metrics.set_gauge st.metrics "vm.cycles" st.cycles;
  Mi_obs.Metrics.set_gauge st.metrics "vm.steps" st.steps;
  Mi_obs.Metrics.set_gauge st.metrics "vm.mem_pages" (Memory.page_count st.mem);
  {
    outcome;
    cycles = st.cycles;
    steps = st.steps;
    output = State.output st;
    counters = State.counters_alist st;
    mem_pages = Memory.page_count st.mem;
  }
