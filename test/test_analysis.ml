open Batlife_battery
open Batlife_workload
open Batlife_core
open Helpers

let times () = Array.init 29 (fun i -> 6000. +. (500. *. float_of_int i))

let test_pointwise_distance () =
  let times = times () in
  let a = Lifetime.cdf ~delta:200. ~times (fig7_model ()) in
  let b = Lifetime.cdf ~delta:100. ~times (fig7_model ()) in
  let d = Analysis.max_pointwise_distance a b in
  check_true "positive" (d > 0.);
  check_float "self distance" 0. (Analysis.max_pointwise_distance a a);
  let other = Lifetime.cdf ~delta:100. ~times:[| 6000.; 7000. |] (fig7_model ()) in
  check_raises_invalid "grid mismatch" (fun () ->
      ignore (Analysis.max_pointwise_distance a other))

let test_refinement_contracts () =
  let times = times () in
  let curves =
    Lifetime.convergence_study ~deltas:[| 400.; 200.; 100.; 50. |] ~times
      (fig7_model ())
  in
  let distances = Analysis.refinement_distances curves in
  check_int "three gaps" 3 (List.length distances);
  (* Each refinement moves the curve less than the previous one. *)
  (match distances with
  | [ d1; d2; d3 ] -> check_true "contracting" (d1 > d2 && d2 > d3)
  | _ -> Alcotest.fail "unexpected");
  match Analysis.empirical_order curves with
  | Some p ->
      (* The on/off CDF is nearly deterministic, so the convergence of
         the phase-type approximation is slow at coarse deltas. *)
      check_true "order positive and sane" (p > 0.05 && p < 2.5)
  | None -> Alcotest.fail "expected an order estimate"

let test_empirical_order_degenerate () =
  let times = times () in
  let c = Lifetime.cdf ~delta:100. ~times (fig7_model ()) in
  check_true "needs three curves" (Analysis.empirical_order [ c ] = None)

(* Hand-built curves exercise the degenerate branches without paying
   for a sweep. *)
let curve ~delta times probabilities =
  {
    Lifetime.times;
    probabilities;
    delta;
    states = 0;
    nnz = 0;
    iterations = 0;
    uniformisation_rate = 0.;
  }

let test_empirical_order_degenerate_inputs () =
  let t = [| 1.; 2. |] in
  check_true "empty list" (Analysis.empirical_order [] = None);
  check_true "two curves"
    (Analysis.empirical_order
       [ curve ~delta:100. t [| 0.1; 0.5 |]; curve ~delta:50. t [| 0.2; 0.6 |] ]
    = None);
  (* Identical curves: both refinement distances are exactly zero, so
     no order can be estimated. *)
  let same d = curve ~delta:d t [| 0.1; 0.5 |] in
  check_true "identical curves"
    (Analysis.empirical_order [ same 100.; same 50.; same 25. ] = None);
  (* Deltas in the wrong direction (ratio <= 1) with genuine
     distances must also refuse rather than divide by log 1 or flip
     the sign of the estimate. *)
  let seq =
    [
      curve ~delta:25. t [| 0.1; 0.5 |];
      curve ~delta:50. t [| 0.2; 0.6 |];
      curve ~delta:100. t [| 0.25; 0.65 |];
    ]
  in
  check_true "non-refining deltas" (Analysis.empirical_order seq = None);
  (* Equal deltas: ratio exactly 1. *)
  let flat =
    [
      curve ~delta:50. t [| 0.1; 0.5 |];
      curve ~delta:50. t [| 0.2; 0.6 |];
      curve ~delta:50. t [| 0.25; 0.65 |];
    ]
  in
  check_true "equal deltas" (Analysis.empirical_order flat = None)

let test_richardson_clamps () =
  let t = [| 1.; 2.; 3. |] in
  let coarse = curve ~delta:100. t [| 0.4; 0.5; 0.7 |] in
  let fine = curve ~delta:50. t [| 0.1; 0.9; 0.8 |] in
  (* Raw order-1 extrapolation is [2 f - c] = [-0.2; 1.3; 0.9]:
     undershoots 0, overshoots 1, then decreases.  The result must be
     clamped back to a monotone CDF. *)
  let extrapolated = Analysis.richardson ~coarse fine in
  let p = extrapolated.Lifetime.probabilities in
  check_float "undershoot clamped to 0" 0. p.(0);
  check_float "overshoot clamped to 1" 1. p.(1);
  check_float "monotonised after the overshoot" 1. p.(2);
  check_float "fine metadata reused" 50. extrapolated.Lifetime.delta

let test_richardson_improves () =
  let times = times () in
  let m = fig7_model () in
  let coarse = Lifetime.cdf ~delta:100. ~times m in
  let fine = Lifetime.cdf ~delta:50. ~times m in
  let reference = Lifetime.cdf ~delta:10. ~times m in
  let extrapolated = Analysis.richardson ~coarse fine in
  let err_fine = Analysis.max_pointwise_distance fine reference in
  let err_extra = Analysis.max_pointwise_distance extrapolated reference in
  check_true "extrapolation beats fine curve" (err_extra < err_fine);
  (* Output is still a CDF. *)
  let prev = ref 0. in
  Array.iter
    (fun p ->
      check_true "in range" (p >= 0. && p <= 1.);
      check_true "monotone" (p >= !prev);
      prev := p)
    extrapolated.Lifetime.probabilities;
  check_raises_invalid "wrong order of arguments" (fun () ->
      ignore (Analysis.richardson ~coarse:fine coarse))

let test_empty_recovery_variant () =
  let workload = Simple.model () in
  let battery = Kibam.params ~capacity:800. ~c:0.625 ~k:0.162 in
  let m = Kibamrm.create ~workload ~battery in
  let times = Array.init 30 (fun i -> float_of_int (i + 1)) in
  let absorbing = Discretized.build ~delta:25. m in
  let live = Discretized.build ~absorb_empty:false ~delta:25. m in
  (* Same state space, more transitions. *)
  check_int "same states" (Discretized.n_states absorbing)
    (Discretized.n_states live);
  check_true "more transitions" (Discretized.nnz live > Discretized.nnz absorbing);
  let by_t, _ = Discretized.empty_probability absorbing ~times in
  let at_t, _ = Discretized.empty_probability live ~times in
  (* P(empty at t) <= P(empty by t): recovery only helps. *)
  Array.iteri
    (fun i p -> check_true "recovery dominates" (p <= by_t.(i) +. 1e-9))
    at_t;
  (* And it is strictly better while depletion-and-recovery is in
     full swing (t = 21 h). *)
  check_true "strictly better mid-life" (at_t.(20) < by_t.(20) -. 0.02)

let suite =
  [
    case "pointwise distance" test_pointwise_distance;
    slow_case "refinement contracts" test_refinement_contracts;
    case "empirical order needs data" test_empirical_order_degenerate;
    case "empirical order degenerate inputs" test_empirical_order_degenerate_inputs;
    case "richardson clamps to a CDF" test_richardson_clamps;
    slow_case "richardson improves" test_richardson_improves;
    case "empty-state recovery variant" test_empty_recovery_variant;
  ]
