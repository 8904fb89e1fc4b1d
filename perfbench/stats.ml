(* Order statistics over float samples. Percentiles are nearest-rank on
   a sorted copy, so every reported value is one that was measured. *)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* [q] in [0, 100]. Empty input reads as [nan] so a missing sample can
   never pass for a measured zero. *)
let percentile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let percentile a q = percentile_sorted (sorted a) q

let median a = percentile a 50.

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int n

