(** Reference numbers from the paper, for side-by-side reporting.

    Table 2 ("Number of unsafe dereferences in %"): the SoftBound column
    is complete in the paper; of the Low-Fat column, the CPU2000 half and
    the 429mcf value (~54%, §4.6) are stated, the remaining CPU2006
    Low-Fat entries are not available in our copy of the table and are
    recorded as [None].

    A starred 0.00 means "not a single check with wide bounds". *)

type t2 = {
  sb : float option;
  sb_star : bool;
  lf : float option;
  lf_star : bool;
}

let table2 : (string * t2) list =
  [
    ("164gzip", { sb = Some 61.71; sb_star = false; lf = Some 0.00; lf_star = false });
    ("177mesa", { sb = Some 0.00; sb_star = true; lf = Some 1.57; lf_star = false });
    ("179art", { sb = Some 0.00; sb_star = true; lf = Some 0.00; lf_star = false });
    ("181mcf", { sb = Some 0.00; sb_star = true; lf = Some 0.00; lf_star = false });
    ("183equake", { sb = Some 0.00; sb_star = true; lf = Some 0.00; lf_star = false });
    ("186crafty", { sb = Some 0.00; sb_star = true; lf = Some 0.00; lf_star = false });
    ("188ammp", { sb = Some 0.00; sb_star = true; lf = Some 0.24; lf_star = false });
    ("197parser", { sb = Some 0.27; sb_star = false; lf = Some 7.14; lf_star = false });
    ("256bzip2", { sb = Some 0.00; sb_star = true; lf = Some 0.00; lf_star = false });
    ("300twolf", { sb = Some 0.37; sb_star = false; lf = Some 2.08; lf_star = false });
    ("401bzip2", { sb = Some 0.00; sb_star = true; lf = None; lf_star = false });
    ("429mcf", { sb = Some 0.00; sb_star = true; lf = Some 54.0; lf_star = false });
    ("433milc", { sb = Some 0.00; sb_star = true; lf = None; lf_star = false });
    ("445gobmk", { sb = Some 0.66; sb_star = false; lf = None; lf_star = false });
    ("456hmmer", { sb = Some 0.00; sb_star = false; lf = None; lf_star = false });
    ("458sjeng", { sb = Some 0.00; sb_star = false; lf = None; lf_star = false });
    ("462libquant", { sb = Some 0.00; sb_star = true; lf = None; lf_star = false });
    ("464h264ref", { sb = Some 0.00; sb_star = true; lf = None; lf_star = false });
    ("470lbm", { sb = Some 0.00; sb_star = true; lf = None; lf_star = false });
    ("482sphinx3", { sb = Some 0.00; sb_star = true; lf = None; lf_star = false });
  ]

(** Figure 9: mean slowdowns reported in §5.2. *)
let fig9_mean_sb = 1.74

let fig9_mean_lf = 1.77

(** §5.3: fraction of checks removed by dominance elimination. *)
let opt_removed_min = (8.0, "177mesa")

let opt_removed_max = (50.0, "256bzip2")
