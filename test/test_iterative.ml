open Batlife_numerics
open Batlife_battery
open Batlife_workload
open Batlife_core
open Helpers

let sparse_of entries ~n =
  let b = Sparse.Builder.create ~rows:n ~cols:n () in
  List.iter (fun (i, j, v) -> Sparse.Builder.add b i j v) entries;
  Sparse.of_builder b

let test_jacobi_small_system () =
  (* Diagonally dominant 2x2. *)
  let a = sparse_of [ (0, 0, 4.); (0, 1, 1.); (1, 0, 2.); (1, 1, 5.) ] ~n:2 in
  let r = Iterative.jacobi a ~b:[| 9.; 19. |] in
  check_float ~eps:1e-8 "x0" 1.4444444444 r.Iterative.solution.(0);
  check_float ~eps:1e-8 "x1" 3.2222222222 r.Iterative.solution.(1);
  check_true "converged fast" (r.Iterative.iterations < 100)

let test_gauss_seidel_matches_jacobi () =
  let a =
    sparse_of
      [ (0, 0, 10.); (0, 1, 2.); (1, 0, 3.); (1, 1, 8.); (1, 2, 1.);
        (2, 1, 2.); (2, 2, 6.) ]
      ~n:3
  in
  let b = [| 1.; 2.; 3. |] in
  let j = Iterative.jacobi a ~b in
  let g = Iterative.gauss_seidel a ~b in
  check_true "solutions agree"
    (Vector.approx_equal ~tol:1e-7 j.Iterative.solution
       g.Iterative.solution);
  check_true "gauss-seidel no slower" (g.Iterative.iterations <= j.Iterative.iterations)

let test_matches_dense_lu () =
  let entries =
    [ (0, 0, 12.); (0, 2, 3.); (1, 1, 9.); (1, 0, -2.); (2, 2, 7.);
      (2, 1, 1.) ]
  in
  let a = sparse_of entries ~n:3 in
  let b = [| 5.; -1.; 2. |] in
  let direct = Dense.lu_solve (Sparse.to_dense a) b in
  let iterative = (Iterative.gauss_seidel a ~b).Iterative.solution in
  check_true "matches LU" (Vector.approx_equal ~tol:1e-8 direct iterative)

let test_zero_diagonal_rejected () =
  let a = sparse_of [ (0, 1, 1.); (1, 0, 1.); (1, 1, 1.) ] ~n:2 in
  check_raises_invalid "jacobi" (fun () ->
      ignore (Iterative.jacobi a ~b:[| 1.; 1. |]));
  check_raises_invalid "gauss-seidel" (fun () ->
      ignore (Iterative.gauss_seidel a ~b:[| 1.; 1. |]))

let test_divergence_detected () =
  (* Not diagonally dominant: Jacobi diverges. *)
  let a = sparse_of [ (0, 0, 1.); (0, 1, 5.); (1, 0, 5.); (1, 1, 1.) ] ~n:2 in
  match Iterative.jacobi ~max_iter:50 a ~b:[| 1.; 1. |] with
  | exception Iterative.Did_not_converge r ->
      check_true "budget honoured" (r.Iterative.iterations = 50)
  | _ -> Alcotest.fail "expected divergence"

let test_skip_rows_pinned () =
  (* Pin x0 = 7 and solve only row 1: 4 x1 = 10 - 2*7. *)
  let a = sparse_of [ (0, 0, 1.); (1, 0, 2.); (1, 1, 4.) ] ~n:2 in
  let r =
    Iterative.gauss_seidel ~x0:[| 7.; 0. |] ~skip:(fun i -> i = 0) a
      ~b:[| 0.; 10. |]
  in
  check_float "pinned" 7. r.Iterative.solution.(0);
  check_float ~eps:1e-10 "solved" (-1.) r.Iterative.solution.(1)

let prop_random_dominant_systems =
  qcheck ~count:100 "gauss-seidel solves random dominant systems"
    QCheck.(
      pair (float_array_arb 16)
        (array_of_size (Gen.return 4) (float_range (-3.) 3.)))
    (fun (entries, b) ->
      (* Shrinking may reduce the array sizes; those inputs are not in
         the intended domain. *)
      if Array.length entries <> 16 || Array.length b <> 4 then true
      else begin
        (* Off-diagonals in [-1, 1], diagonal >= 10: strictly
           diagonally dominant, so Gauss–Seidel must converge. *)
        let a =
          Dense.init ~rows:4 ~cols:4 (fun i j ->
              let v = entries.((4 * i) + j) /. 100. in
              if i = j then 10. +. Float.abs v else v)
        in
        let sp = Sparse.of_dense a in
        let x = (Iterative.gauss_seidel sp ~b).Iterative.solution in
        let r = Dense.matvec a x in
        Array.for_all2 (fun ri bi -> Float.abs (ri -. bi) < 1e-8) r b
      end)

(* --- Exact expected lifetime on the expanded chain ------------------- *)

let test_expected_lifetime_erlang_exact () =
  (* One-state workload, c = 1: the expanded chain is a pure Erlang
     cascade, absorption time = (levels to fall) * Delta / I. *)
  let workload =
    Model.of_spec ~states:[ ("on", 0.9) ] ~transitions:[] ~initial:"on"
  in
  let battery = Kibam.params ~capacity:100. ~c:1. ~k:0. in
  let model = Kibamrm.create ~workload ~battery in
  let delta = 5. in
  let d = Discretized.build ~delta model in
  (* Initial level of 100 at delta 5 is 19; it takes 19 consumption
     jumps at rate I/delta to reach level 0. *)
  check_float ~eps:1e-7 "Erlang mean" (19. *. delta /. 0.9)
    (Discretized.expected_lifetime d)

let test_expected_lifetime_matches_curve () =
  let model = fig7_model () in
  let d = Discretized.build ~delta:100. model in
  let exact = Discretized.expected_lifetime d in
  (* Integrate the same chain's CDF over a wide grid. *)
  let times = Array.init 120 (fun i -> 250. *. float_of_int (i + 1)) in
  let curve = Lifetime.cdf ~delta:100. ~times model in
  check_close ~rel:2e-3 "curve integral matches exact mean"
    exact (Lifetime.mean curve)

let test_expected_lifetime_two_well () =
  (* Two-well: the exact mean must land between the no-recovery and
     full-capacity bounds and near the simulated mean. *)
  let model = fig2_model () in
  let d = Discretized.build ~delta:50. model in
  let exact = Discretized.expected_lifetime d in
  check_true "above available-only bound" (exact > 9000.);
  check_true "below full-capacity bound" (exact < 15000.);
  (* The simulation says ~12170; the Delta=50 grid is biased a few
     percent low. *)
  check_true "near simulated mean" (Float.abs (exact -. 12170.) < 800.)

let test_expected_lifetime_requires_absorbing () =
  let model = fig7_model () in
  let d = Discretized.build ~absorb_empty:false ~delta:200. model in
  check_raises_invalid "live empty states" (fun () ->
      ignore (Discretized.expected_lifetime d))

let suite =
  [
    case "jacobi small system" test_jacobi_small_system;
    case "gauss-seidel matches jacobi" test_gauss_seidel_matches_jacobi;
    case "matches dense LU" test_matches_dense_lu;
    case "zero diagonal rejected" test_zero_diagonal_rejected;
    case "divergence detected" test_divergence_detected;
    case "skipped rows pinned" test_skip_rows_pinned;
    prop_random_dominant_systems;
    case "expected lifetime: Erlang exact" test_expected_lifetime_erlang_exact;
    slow_case "expected lifetime matches curve integral"
      test_expected_lifetime_matches_curve;
    slow_case "expected lifetime: two wells" test_expected_lifetime_two_well;
    case "expected lifetime requires absorbing"
      test_expected_lifetime_requires_absorbing;
  ]
