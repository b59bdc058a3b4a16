(** MIR modules (translation units): globals and functions.

    A module is the unit the instrumentation pass operates on, mirroring
    LLVM's module pass structure in the paper's MemInstrument. *)

(** One field of a global initializer, laid out in order. *)
type gfield =
  | GBytes of string  (** raw little-endian bytes *)
  | GPtr of string  (** 8-byte address of another global, patched at load *)
  | GZero of int  (** [n] zero bytes *)

type global = {
  gname : string;
  gsize : int;  (** declared size in bytes; 0 for size-zero extern decls *)
  galign : int;
  gfields : gfield list;  (** empty for extern declarations *)
  gextern : bool;
      (** declared here, defined in another (possibly uninstrumented)
          translation unit *)
  gsize_known : bool;
      (** false for C's [extern int a[];] — the size-zero array
          declarations of §4.3/§4.6 that force SoftBound to wide bounds *)
}

type t = {
  mname : string;
  mutable globals : global list;
  mutable funcs : Func.t list;
}

let mk ?(globals = []) ?(funcs = []) name =
  { mname = name; globals; funcs }

(** Blocks, instructions, variables and globals are immutable, so a
    module is copied by giving it and each of its functions fresh
    mutable fields; everything below them is shared. *)
let copy m = { m with funcs = List.map Func.copy m.funcs }

let field_size = function
  | GBytes s -> String.length s
  | GPtr _ -> 8
  | GZero n -> n

let fields_size fields = List.fold_left (fun a f -> a + field_size f) 0 fields

let mk_global ?(align = 8) ?(extern = false) ?(size_known = true) ~name
    ~size fields =
  (if fields <> [] then
     let fs = fields_size fields in
     if fs <> size then
       invalid_arg
         (Printf.sprintf "global %s: field bytes %d <> declared size %d" name
            fs size));
  {
    gname = name;
    gsize = size;
    galign = align;
    gfields = fields;
    gextern = extern;
    gsize_known = size_known;
  }

let find_func m name =
  List.find_opt (fun (f : Func.t) -> String.equal f.fname name) m.funcs

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg ("Irmod.find_func_exn: no function " ^ name)

let find_global m name =
  List.find_opt (fun g -> String.equal g.gname name) m.globals

let add_func m f = m.funcs <- m.funcs @ [ f ]

let add_global m g = m.globals <- m.globals @ [ g ]

(** Functions with a body (subject to instrumentation and optimization). *)
let defined_funcs m =
  List.filter (fun (f : Func.t) -> not f.is_external) m.funcs

(** Total instruction count over all defined functions. *)
let instr_count m =
  List.fold_left (fun acc f -> acc + Func.instr_count f) 0 (defined_funcs m)
