(** Miscellaneous helpers shared across the project. *)

(** [round_up_pow2 n] is the least power of two [>= n]; [n] must be
    positive. *)
let round_up_pow2 n =
  if n <= 0 then invalid_arg "round_up_pow2";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(** [is_pow2 n] holds iff [n] is a positive power of two. *)
let is_pow2 n = n > 0 && n land (n - 1) = 0

(** [log2_exact n] is [log2 n] for a positive power of two. *)
let log2_exact n =
  if not (is_pow2 n) then invalid_arg "log2_exact";
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(** [align_up x a] rounds [x] up to a multiple of the power of two [a]. *)
let align_up x a =
  if not (is_pow2 a) then invalid_arg "align_up: alignment not a power of 2";
  (x + a - 1) land lnot (a - 1)

(** Geometric mean of a non-empty list of positive floats. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "geomean: empty"
  | _ ->
      let n = List.length xs in
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)

(** Median of a non-empty list of floats. *)
let median xs =
  match xs with
  | [] -> invalid_arg "median: empty"
  | _ ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      if n mod 2 = 1 then arr.(n / 2)
      else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

(** [percent num den] is [100 * num / den] as a float, 0 if [den = 0]. *)
let percent num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(** [List.filter_map g l], except that the result shares the longest
    suffix of [l] that [g] keeps as it is (returns the element itself),
    so it is [l] when [g] keeps every element.  [g] runs in list
    order. *)
let rec filter_map_keep g = function
  | [] -> []
  | x :: rest as l -> (
      match g x with
      | Some y ->
          let rest' = filter_map_keep g rest in
          if y == x && rest' == rest then l else y :: rest'
      | None -> filter_map_keep g rest)
