(** Benchmark descriptions.

    Each benchmark is a set of MiniC translation units compiled
    *separately* (each unit runs through the pass pipeline and, when
    flagged, the instrumentation on its own) and linked afterwards —
    mirroring the paper's setup (Fig. 8).  Units with [instrument =
    false] model external libraries that are not recompiled (§4.3). *)

type source = {
  src_name : string;
  code : string;  (** MiniC *)
  instrument : bool;
  mode_override : Mi_minic.Lower.mode option;
      (** compile this unit with a different lowering (e.g. the
          pointer-as-i64 lowering of Fig. 7, as if built by another
          compiler version) *)
}

type suite = CPU2000 | CPU2006

type t = {
  name : string;  (** the SPEC benchmark the program is shaped after *)
  suite : suite;
  descr : string;
  sources : source list;
  size_zero_arrays : bool;
      (** uses C's size-less extern array declarations (bold in Table 2) *)
  expect_output : string option;
      (** expected program output, for semantic-preservation checks *)
}

let src ?(instrument = true) ?mode_override name code =
  { src_name = name; code; instrument; mode_override }

let mk ?(size_zero_arrays = false) ?expect_output ~suite ~descr name sources =
  { name; suite; descr; sources; size_zero_arrays; expect_output }
