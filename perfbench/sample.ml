(* Order statistics with the sample-support guard: a percentile is only
   reported when at least [min_beyond] samples lie beyond it, so a run
   too short for its p90 or p99 is an error, never a number that merely
   repeats the maximum. *)

let min_beyond = 10

exception Unsupported of string

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank floor(p n), as the service's own histograms use. *)
let percentile ~what xs p =
  let a = sorted xs in
  let n = Array.length a in
  let idx = min (n - 1) (int_of_float (p *. float_of_int n)) in
  if n = 0 || n - 1 - idx < min_beyond then
    raise
      (Unsupported
         (Printf.sprintf
            "%s: p%g needs %d samples beyond it; the run has %d samples" what
            (p *. 100.) min_beyond n));
  a.(idx)

(* The plain median, for repeated measurements of one quantity. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs
