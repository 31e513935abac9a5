open Batlife_numerics
open Batlife_ctmc
open Helpers

(* 2-state chain 0 <-> 1 with rates a, b: closed form
   pi_0(t) = b/(a+b) + (pi_0(0) - b/(a+b)) e^{-(a+b)t}. *)
let two_state_closed_form ~a ~b ~p0 t =
  let s = a +. b in
  (b /. s) +. ((p0 -. (b /. s)) *. exp (-.s *. t))

let test_two_state_closed_form () =
  let a = 2. and b = 0.5 in
  let g = Generator.of_rates ~n:2 [ (0, 1, a); (1, 0, b) ] in
  List.iter
    (fun t ->
      let pi = Transient.solve g ~alpha:[| 1.; 0. |] ~t in
      check_float ~eps:1e-10
        (Printf.sprintf "pi_0(%g)" t)
        (two_state_closed_form ~a ~b ~p0:1. t)
        pi.(0);
      check_float ~eps:1e-12 "mass" 1. (Vector.sum pi))
    [ 0.; 0.1; 1.; 5.; 50. ]

let test_t_zero () =
  let g = Generator.of_rates ~n:3 [ (0, 1, 1.); (1, 2, 1.); (2, 0, 1.) ] in
  let pi = Transient.solve g ~alpha:[| 0.; 1.; 0. |] ~t:0. in
  check_float "stays put" 1. pi.(1)

let random_generator entries =
  let rates =
    List.filter_map
      (fun (i, j, r) -> if i <> j then Some (i, j, r) else None)
      entries
  in
  Generator.of_rates ~n:4 rates

let prop_matches_expm =
  qcheck ~count:100 "uniformisation matches dense matrix exponential"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 2 12)
           (triple (int_range 0 3) (int_range 0 3) (float_range 0.05 4.)))
        (pos_float_arb 0.01 3.))
    (fun (entries, t) ->
      let g = random_generator entries in
      let expm_qt =
        Dense.expm (Dense.scale t (Sparse.to_dense (Generator.matrix g)))
      in
      let alpha = [| 0.25; 0.25; 0.25; 0.25 |] in
      let via_expm = Dense.vecmat alpha expm_qt in
      let via_unif =
        Transient.solve ~opts:(Solver_opts.make ~accuracy:1e-14 ()) g ~alpha ~t
      in
      Vector.approx_equal ~tol:1e-9 via_expm via_unif)

let test_measure_sweep_matches_solve () =
  let g =
    Generator.of_rates ~n:3 [ (0, 1, 1.5); (1, 2, 0.7); (2, 0, 0.2) ]
  in
  let alpha = [| 1.; 0.; 0. |] in
  let times = [| 0.3; 1.; 2.5; 7. |] in
  let measure = state_mass 2 in
  let results, stats = Transient.measure_sweep g ~alpha ~times ~measure in
  check_true "iterations positive" (stats.Transient.iterations > 0);
  Array.iteri
    (fun i t ->
      let pi = Transient.solve g ~alpha ~t in
      check_float ~eps:1e-10 (Printf.sprintf "t=%g" t) pi.(2) results.(i))
    times

let test_measure_sweep_unsorted_times () =
  let g = Generator.of_rates ~n:2 [ (0, 1, 1.) ] in
  let alpha = [| 1.; 0. |] in
  let results, _ =
    Transient.measure_sweep g ~alpha ~times:[| 5.; 0.5 |]
      ~measure:(state_mass 1)
  in
  check_true "monotone measure" (results.(0) > results.(1))

let test_convergence_detection () =
  (* An absorbing chain: after absorption the vector is stationary and
     the sweep should stop early. *)
  let g = Generator.of_rates ~n:2 [ (0, 1, 10.) ] in
  let alpha = [| 1.; 0. |] in
  let _, stats =
    Transient.measure_sweep g ~alpha ~times:[| 1000. |]
      ~measure:(state_mass 1)
  in
  match stats.Transient.converged_at with
  | Some at -> check_true "stopped early" (at < 2000)
  | None -> Alcotest.fail "expected early convergence"

let test_distribution_sweep () =
  let g = Generator.of_rates ~n:2 [ (0, 1, 2.); (1, 0, 1.) ] in
  let alpha = [| 1.; 0. |] in
  let times = [| 0.5; 2. |] in
  let dists, _ = Transient.distribution_sweep g ~alpha ~times in
  Array.iteri
    (fun i t ->
      let direct = Transient.solve g ~alpha ~t in
      check_true
        (Printf.sprintf "dist at %g" t)
        (Vector.approx_equal ~tol:1e-10 direct dists.(i)))
    times

(* distribution_sweep is the exact sweep the benchmark oracle and the
   tests compare against, so it must not inherit the served path's
   early stop.  On fig-7 (1 Hz, delta 100) with times up to 40000 s
   the L-infinity test stops multi_measure_sweep at step 61181;
   distribution_sweep runs every product up to the largest Fox-Glynn
   right edge. *)
let test_distribution_sweep_never_stops_early () =
  let d = Batlife_core.Discretized.build ~delta:100. (fig7_model ()) in
  let g = d.Batlife_core.Discretized.generator
  and alpha = d.Batlife_core.Discretized.alpha in
  let times = Array.init 8 (fun i -> 5000. *. float_of_int (i + 1)) in
  let c_products = Telemetry.counter "transient.products" in
  let counted f =
    let p0 = Telemetry.value c_products in
    let stats = f () in
    (stats, Telemetry.value c_products - p0)
  in
  let stats, products =
    counted (fun () -> snd (Transient.distribution_sweep g ~alpha ~times))
  in
  check_int "products through the largest right edge" 84_070 products;
  check_int "iterations" 84_070 stats.Transient.iterations;
  check_true "no early stop" (stats.Transient.converged_at = None);
  let stats, products =
    counted (fun () ->
        snd
          (Transient.multi_measure_sweep g ~alpha ~times
             ~measures:[| total_mass (Array.length alpha) |]))
  in
  check_int "the served path stops early" 61_181 products;
  check_true "at the step it reports"
    (stats.Transient.converged_at = Some 61_181)

let test_absorbing_mass_monotone () =
  let g = Generator.of_rates ~n:3 [ (0, 1, 1.); (1, 2, 2.) ] in
  let alpha = [| 1.; 0.; 0. |] in
  let times = Array.init 20 (fun i -> 0.25 *. float_of_int (i + 1)) in
  let results, _ =
    Transient.measure_sweep g ~alpha ~times ~measure:(state_mass 2)
  in
  for i = 1 to Array.length results - 1 do
    check_true "monotone" (results.(i) >= results.(i - 1) -. 1e-12)
  done

let test_validation () =
  let g = Generator.of_rates ~n:2 [ (0, 1, 1.) ] in
  check_raises_invalid "alpha length" (fun () ->
      ignore (Transient.solve g ~alpha:[| 1. |] ~t:1.))

(* Regression: a bad time grid is a structured Invalid_model error
   (not a bare Invalid_argument), consistently across every sweep
   entry point, with all violations collected. *)
let test_times_validation () =
  let g = Generator.of_rates ~n:2 [ (0, 1, 1.) ] in
  let alpha = [| 1.; 0. |] in
  check_raises_diag "negative time" is_invalid_model (fun () ->
      ignore (Transient.solve g ~alpha ~t:(-1.)));
  check_raises_diag "NaN time in measure_sweep" is_invalid_model (fun () ->
      ignore
        (Transient.measure_sweep g ~alpha
           ~times:[| 1.; Float.nan |]
           ~measure:(state_mass 1)));
  check_raises_diag "negative time in multi_measure_sweep" is_invalid_model
    (fun () ->
      ignore
        (Transient.multi_measure_sweep g ~alpha
           ~times:[| 1.; -2. |]
           ~measures:[| state_mass 1 |]));
  check_raises_diag "infinite time in distribution_sweep" is_invalid_model
    (fun () ->
      ignore
        (Transient.distribution_sweep g ~alpha
           ~times:[| Float.infinity |]));
  (* All offending entries are reported in one error. *)
  (match
     Transient.measure_sweep g ~alpha
       ~times:[| -1.; Float.nan; 2. |]
       ~measure:(state_mass 1)
   with
  | exception Diag.Error (Diag.Invalid_model { violations; _ }) ->
      check_int "both violations collected" 2 (List.length violations)
  | _ -> Alcotest.fail "expected Invalid_model")

let test_expected_hitting_mass () =
  let g = Generator.of_rates ~n:2 [ (0, 1, 1.) ] in
  let m, _ =
    Transient.measure_sweep g ~alpha:[| 1.; 0. |] ~times:[| 3. |]
      ~measure:(state_mass 1)
  in
  check_float ~eps:1e-10 "absorbed mass" (1. -. exp (-3.)) m.(0)

let test_multi_measure_matches_single () =
  let g =
    Generator.of_rates ~n:3 [ (0, 1, 1.5); (1, 2, 0.7); (2, 0, 0.2) ]
  in
  let alpha = [| 1.; 0.; 0. |] in
  let times = [| 0.3; 1.; 2.5; 7. |] in
  let measures =
    [|
      state_mass 0;
      state_mass 2;
      Transient.Sum { lo = 0; hi = 2; stride = 1 };
      Transient.Weighted { slab = 1; weights = [| 0.5; 2.; -1. |] };
    |]
  in
  let batched, stats = Transient.multi_measure_sweep g ~alpha ~times ~measures in
  check_true "iterations positive" (stats.Transient.iterations > 0);
  Array.iteri
    (fun j measure ->
      let single, _ = Transient.measure_sweep g ~alpha ~times ~measure in
      Array.iteri
        (fun i t ->
          check_float ~eps:1e-14
            (Printf.sprintf "measure %d at t=%g" j t)
            single.(i)
            batched.(j).(i))
        times)
    measures

let test_multi_measure_counts_one_sweep () =
  let g = Generator.of_rates ~n:2 [ (0, 1, 1.); (1, 0, 0.5) ] in
  let alpha = [| 1.; 0. |] in
  let times = [| 0.5; 1.; 2. |] in
  let measures = [| state_mass 0; state_mass 1 |] in
  let c_sweeps = Telemetry.counter "transient.sweeps"
  and c_products = Telemetry.counter "transient.products" in
  Telemetry.reset_counter c_sweeps;
  Telemetry.reset_counter c_products;
  let _, stats = Transient.multi_measure_sweep g ~alpha ~times ~measures in
  check_int "one sweep" 1 (Telemetry.value c_sweeps);
  check_int "products = iterations" stats.Transient.iterations
    (Telemetry.value c_products)

(* Measures are validated once per sweep, before any product. *)
let test_measure_validation () =
  let g = Generator.of_rates ~n:3 [ (0, 1, 1.); (1, 2, 0.5) ] in
  let alpha = [| 1.; 0.; 0. |] in
  let sweep measure =
    ignore (Transient.measure_sweep g ~alpha ~times:[| 1. |] ~measure)
  in
  List.iter
    (fun (name, measure) -> check_raises_invalid name (fun () -> sweep measure))
    [
      ("range past n", Transient.Sum { lo = 0; hi = 4; stride = 1 });
      ("negative start", Transient.Sum { lo = -1; hi = 2; stride = 1 });
      ("inverted range", Transient.Sum { lo = 2; hi = 1; stride = 1 });
      ("zero stride", Transient.Sum { lo = 0; hi = 3; stride = 0 });
      ("zero slab", Transient.Weighted { slab = 0; weights = [| 1.; 1. |] });
      ( "weights short of n states",
        Transient.Weighted { slab = 2; weights = [| 1. |] } );
    ];
  (* Empty ranges and a last slab that overhangs n are well-formed. *)
  sweep (Transient.Sum { lo = 3; hi = 3; stride = 1 });
  sweep (Transient.Weighted { slab = 2; weights = [| 1.; 1. |] })

let test_supplied_buffers_and_windows () =
  let g = Generator.of_rates ~n:3 [ (0, 1, 1.); (1, 2, 0.5) ] in
  let alpha = [| 1.; 0.; 0. |] in
  let times = [| 0.7; 3. |] in
  let measure = state_mass 2 in
  let plain, _ = Transient.measure_sweep g ~alpha ~times ~measure in
  let q = Transient.resolve_rate g in
  let windows =
    Array.map
      (fun t ->
        Poisson.weights
          ~accuracy:Solver_opts.default.Solver_opts.accuracy
          (q *. t))
      times
  in
  let buffers = (Array.make 3 0., Array.make 3 0.) in
  let reused, _ =
    Transient.measure_sweep ~windows ~buffers g ~alpha ~times ~measure
  in
  Array.iteri
    (fun i _ -> check_float ~eps:0. "identical with cached windows"
        plain.(i) reused.(i))
    times;
  check_raises_invalid "window length mismatch" (fun () ->
      ignore
        (Transient.measure_sweep
           ~windows:[| windows.(0) |]
           g ~alpha ~times ~measure));
  check_raises_invalid "buffer length mismatch" (fun () ->
      ignore
        (Transient.measure_sweep
           ~buffers:(Array.make 2 0., Array.make 3 0.)
           g ~alpha ~times ~measure))

let suite =
  [
    case "two-state closed form" test_two_state_closed_form;
    case "t = 0" test_t_zero;
    prop_matches_expm;
    case "measure sweep matches solve" test_measure_sweep_matches_solve;
    case "measure sweep with unsorted times" test_measure_sweep_unsorted_times;
    case "convergence detection" test_convergence_detection;
    case "distribution sweep" test_distribution_sweep;
    case "distribution sweep never stops early"
      test_distribution_sweep_never_stops_early;
    case "absorbing mass monotone" test_absorbing_mass_monotone;
    case "validation" test_validation;
    case "time-grid validation is structured" test_times_validation;
    case "multi-measure matches single sweeps" test_multi_measure_matches_single;
    case "multi-measure costs one sweep" test_multi_measure_counts_one_sweep;
    case "measure validation" test_measure_validation;
    case "supplied buffers and windows" test_supplied_buffers_and_windows;
    case "expected hitting mass" test_expected_hitting_mass;
  ]
