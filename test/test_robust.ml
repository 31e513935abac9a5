(* Guardrail layer: validation reports, fault injection, fallback
   chains.  Every guard added by the robustness pass is driven to
   actually trip here — a guard that never fires in tests is a guard
   that may silently not exist. *)

open Helpers
open Batlife_numerics
open Batlife_ctmc
open Batlife_workload
open Batlife_core
module Validate = Batlife_robust.Validate

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_error name classify f =
  match f () with
  | exception Diag.Error e ->
      if not (classify e) then
        Alcotest.failf "%s: wrong error class: %s" name
          (Diag.error_to_string e)
  | _ -> Alcotest.failf "%s: expected Diag.Error" name

let is_invalid_model = function Diag.Invalid_model _ -> true | _ -> false

let is_breakdown = function Diag.Numerical_breakdown _ -> true | _ -> false

let is_budget = function Diag.Budget_exhausted _ -> true | _ -> false

(* A small irreducible 3-state chain used by the sweep tests. *)
let three_state () =
  Generator.of_rates ~n:3 [ (0, 1, 1.0); (1, 2, 0.5); (2, 0, 0.25) ]

let alpha3 = [| 1.; 0.; 0. |]

(* ------------------------------------------------------------------ *)
(* Validation reports                                                  *)

let test_kibam_collects_all () =
  let report = Validate.kibam ~capacity:0. ~c:1.5 ~k:(-1.) () in
  check_int "all three violations reported" 3 (List.length report);
  check_int "valid params: empty report" 0
    (List.length (Validate.kibam ~capacity:7200. ~c:0.625 ~k:4.5e-5 ()));
  check_error "run raises Invalid_model" is_invalid_model (fun () ->
      Validate.run ~what:"KiBaM parameters" report)

let test_kibam_pedantic () =
  check_int "k = 0 with c < 1 flagged" 1
    (List.length (Validate.kibam_pedantic ~capacity:1. ~c:0.625 ~k:0. ()));
  check_int "ideal battery (c = 1, k = 0) is fine" 0
    (List.length (Validate.kibam_pedantic ~capacity:1. ~c:1. ~k:0. ()));
  check_int "true KiBaM is fine" 0
    (List.length (Validate.kibam_pedantic ~capacity:1. ~c:0.625 ~k:4.5e-5 ()))

let test_generator_report () =
  let g = three_state () in
  check_int "constructed generator is clean" 0
    (List.length (Validate.generator g));
  corrupt_row_sum g ~row:0 ~amount:0.5;
  let report = Validate.generator g in
  check_true "corrupted row sum detected" (List.length report > 0);
  check_true "report names the row"
    (List.exists (fun v -> contains (Validate.message v) "row 0") report)

let test_probability_vector () =
  check_int "valid distribution" 0
    (List.length (Validate.probability_vector [| 0.5; 0.5 |]));
  check_true "bad sum detected"
    (List.length (Validate.probability_vector [| 0.5; 0.6 |]) > 0);
  check_true "NaN entry detected"
    (List.length (Validate.probability_vector [| Float.nan; 1. |]) > 0);
  check_true "negative entry detected"
    (List.length (Validate.probability_vector [| -0.1; 1.1 |]) > 0)

let test_uniformisation_q () =
  let g = three_state () in
  check_true "q below max exit rate rejected"
    (List.length (Validate.uniformisation_q g 0.5) > 0);
  check_int "admissible q accepted" 0
    (List.length (Validate.uniformisation_q g 2.))

(* ------------------------------------------------------------------ *)
(* In-flight sweep guards (fault injection)                            *)

let test_mass_guard_trips () =
  let g = three_state () in
  corrupt_row_sum g ~row:0 ~amount:0.5;
  check_error "mass drift detected" is_breakdown (fun () ->
      ignore
        (Transient.measure_sweep g ~alpha:alpha3 ~times:[| 50. |]
           ~measure:(state_mass 2)))

(* A NaN weight on state 0, where alpha puts its mass: the measure is
   NaN from step 0 on, and the sweep must refuse to fold it. *)
let test_nan_measure_guard () =
  let g = three_state () in
  let measure =
    Transient.Weighted { slab = 1; weights = [| Float.nan; 1.; 1. |] }
  in
  check_error "NaN measure detected" is_breakdown (fun () ->
      ignore (Transient.measure_sweep g ~alpha:alpha3 ~times:[| 50. |] ~measure))

let test_nan_in_generator () =
  let g = three_state () in
  (* Index 1 is the off-diagonal (0, 1) entry: exit rates stay finite,
     so the sweep starts and the in-flight guard must catch the NaN. *)
  inject_nan (Generator.matrix g).Sparse.values ~index:1;
  check_error "non-finite iterate detected" is_breakdown (fun () ->
      ignore
        (Transient.measure_sweep g ~alpha:alpha3 ~times:[| 50. |]
           ~measure:(state_mass 2)));
  (* A NaN diagonal is caught before the sweep would hang in the
     Poisson truncation. *)
  let g2 = three_state () in
  inject_nan (Generator.matrix g2).Sparse.values ~index:0;
  check_error "NaN exit rate rejected up front" is_invalid_model (fun () ->
      ignore (Transient.solve g2 ~alpha:alpha3 ~t:1.))

let test_q_override_rejected () =
  let g = three_state () in
  let with_q q = Batlife_ctmc.Solver_opts.make ~unif_rate:q () in
  check_error "solve rejects low q" is_invalid_model (fun () ->
      ignore (Transient.solve ~opts:(with_q 0.5) g ~alpha:alpha3 ~t:1.));
  check_error "measure_sweep rejects low q" is_invalid_model (fun () ->
      ignore
        (Transient.measure_sweep ~opts:(with_q 0.5) g ~alpha:alpha3
           ~times:[| 1. |]
           ~measure:(state_mass 2)));
  check_error "negative q rejected" is_invalid_model (fun () ->
      ignore (Transient.solve ~opts:(with_q (-1.)) g ~alpha:alpha3 ~t:1.));
  check_error "session create rejects low q" is_invalid_model (fun () ->
      let d = Discretized.build ~delta:1000. (fig7_model ()) in
      ignore (Discretized.Session.create ~opts:(with_q 1e-9) d))

let test_sanitize_guard () =
  check_error "genuine CDF decrease detected" is_breakdown (fun () ->
      Lifetime.sanitize [| 0.; 1. |] [| 0.5; 0.3 |]);
  check_error "NaN CDF value detected" is_breakdown (fun () ->
      Lifetime.sanitize [| 0.; 1. |] [| 0.1; Float.nan |]);
  check_error "out-of-range CDF value detected" is_breakdown (fun () ->
      Lifetime.sanitize [| 0.; 1. |] [| 0.1; 1.5 |]);
  (* Noise-level violations are repaired, not reported. *)
  let noisy = [| 0.5; 0.5 -. 1e-9; 1. +. 1e-9 |] in
  Lifetime.sanitize [| 0.; 1.; 2. |] noisy;
  check_float "noise monotonised" 0.5 noisy.(1);
  check_float "noise clamped" 1. noisy.(2)

(* ------------------------------------------------------------------ *)
(* Solver fallback chains                                              *)

(* Strongly diagonally dominant tridiagonal system: both solvers
   converge given enough sweeps, so starving Gauss-Seidel's budget
   forces the chain over to Jacobi. *)
let tridiagonal n =
  let b = Sparse.Builder.create ~rows:n ~cols:n () in
  for i = 0 to n - 1 do
    Sparse.Builder.add b i i 10.;
    if i > 0 then Sparse.Builder.add b i (i - 1) (-1.);
    if i < n - 1 then Sparse.Builder.add b i (i + 1) (-1.)
  done;
  Sparse.of_builder b

let test_solve_robust_fallback () =
  Diag.clear_events ();
  let n = 20 in
  let a = tridiagonal n in
  let b = Array.make n 1. in
  let robust = Iterative.solve_robust ~max_iter:2 a ~b in
  check_true "fallback path taken" (robust.Iterative.path = Iterative.Fallback);
  Alcotest.(check string) "jacobi produced the result" "jacobi"
    robust.Iterative.solver;
  check_true "fallback converged"
    (robust.Iterative.result.Iterative.residual <= 1e-10);
  let x = robust.Iterative.result.Iterative.solution in
  let r = Sparse.matvec a x in
  Array.iteri
    (fun i ri -> check_float ~eps:1e-8 "residual row" b.(i) ri)
    r;
  check_true "fallback event recorded"
    (List.exists
       (fun (e : Diag.event) -> e.Diag.fallback)
       (Diag.events ()));
  Diag.clear_events ()

let test_solve_robust_primary () =
  Diag.clear_events ();
  let a = tridiagonal 20 in
  let robust = Iterative.solve_robust a ~b:(Array.make 20 1.) in
  check_true "primary path on an easy system"
    (robust.Iterative.path = Iterative.Primary);
  check_int "no events recorded" 0 (List.length (Diag.events ()))

let test_solve_robust_exhausted () =
  Diag.clear_events ();
  let a = tridiagonal 20 in
  let b = Array.make 20 1. in
  (match
     Iterative.solve_robust ~max_iter:1 ~fallback_factor:1 a ~b
   with
  | exception Diag.Error (Diag.Nonconvergence { attempted; _ }) ->
      Alcotest.(check (list string))
        "attempted chain recorded"
        [ "gauss-seidel"; "jacobi" ]
        attempted
  | exception Diag.Error e ->
      Alcotest.failf "wrong error class: %s" (Diag.error_to_string e)
  | _ -> Alcotest.fail "expected Nonconvergence");
  Diag.clear_events ()

(* ------------------------------------------------------------------ *)
(* ODE guards and fallback                                             *)

let decay _ y = [| -.y.(0) |]

let test_ode_step_collapse () =
  (* A floor above the controller's working step makes the very first
     step look collapsed. *)
  check_error "step collapse detected" is_breakdown (fun () ->
      ignore (Ode.rkf45 ~min_step:0.5 decay ~t0:0. ~t1:1. ~y0:[| 1. |]))

let test_ode_budget () =
  check_error "step budget detected" is_budget (fun () ->
      ignore (Ode.rkf45 ~max_steps:2 decay ~t0:0. ~t1:1000. ~y0:[| 1. |]))

let test_ode_fallback_recovers () =
  Diag.clear_events ();
  let result, path =
    Ode.rkf45_robust ~min_step:0.5 decay ~t0:0. ~t1:1. ~y0:[| 1. |]
  in
  check_true "fixed-step fallback taken" (path = Ode.Fixed_step_fallback);
  check_close ~rel:1e-6 "fallback recovers exp(-1)" (Float.exp (-1.))
    result.Ode.y.(0);
  check_true "fallback event recorded"
    (List.exists (fun (e : Diag.event) -> e.Diag.fallback) (Diag.events ()));
  Diag.clear_events ()

(* ------------------------------------------------------------------ *)
(* Parse errors and exit codes                                         *)

let test_trace_parse_context () =
  (match Trace.parse_csv_exn ~source:"test.csv" "0,1\n2,frog\n" with
  | exception Diag.Error (Diag.Parse_error { source; line; field; _ }) ->
      Alcotest.(check string) "source" "test.csv" source;
      check_int "line number" 2 line;
      Alcotest.(check (option string)) "field" (Some "current") field
  | _ -> Alcotest.fail "expected Parse_error");
  (match Trace.parse_csv_exn "0,1\n1,2,3\n" with
  | exception Diag.Error (Diag.Parse_error { line; field; _ }) ->
      check_int "field-count error line" 2 line;
      Alcotest.(check (option string)) "no single field" None field
  | _ -> Alcotest.fail "expected Parse_error")

let test_trace_of_samples_raises () =
  check_raises_invalid "of_samples validates" (fun () ->
      ignore (Trace.of_samples [ { Trace.time = 0.; current = 1. } ]))

let test_sample_violations () =
  let bad =
    [
      { Trace.time = 1.; current = -2. };
      { Trace.time = 0.5; current = 1. };
    ]
  in
  let report = Trace.sample_violations bad in
  check_int "both problems reported" 2 (List.length report)

let test_exit_codes_distinct () =
  let codes =
    List.map Diag.exit_code
      [
        Diag.Invalid_model { what = ""; violations = [] };
        Diag.Parse_error { source = ""; line = 0; field = None; message = "" };
        Diag.Nonconvergence
          {
            algorithm = "";
            iterations = 0;
            residual = 0.;
            tolerance = 0.;
            attempted = [];
          };
        Diag.Numerical_breakdown { where = ""; detail = "" };
        Diag.Budget_exhausted { what = ""; budget = 0 };
      ]
  in
  check_int "five distinct nonzero codes" 5
    (List.length (List.sort_uniq compare codes));
  List.iter (fun c -> check_true "nonzero" (c <> 0 && c <> 124)) codes

let suite =
  [
    case "kibam report collects all violations" test_kibam_collects_all;
    case "kibam pedantic findings" test_kibam_pedantic;
    case "generator report (corrupted row sum)" test_generator_report;
    case "probability vector report" test_probability_vector;
    case "uniformisation q report" test_uniformisation_q;
    case "mass-conservation guard trips" test_mass_guard_trips;
    case "NaN-measure guard trips" test_nan_measure_guard;
    case "NaN in generator caught in flight" test_nan_in_generator;
    case "low q override rejected" test_q_override_rejected;
    case "CDF sanitize guard" test_sanitize_guard;
    case "solve_robust falls back to jacobi" test_solve_robust_fallback;
    case "solve_robust primary path" test_solve_robust_primary;
    case "solve_robust chain exhausted" test_solve_robust_exhausted;
    case "rkf45 step collapse" test_ode_step_collapse;
    case "rkf45 budget exhausted" test_ode_budget;
    case "rkf45_robust fixed-step fallback" test_ode_fallback_recovers;
    case "trace parse error context" test_trace_parse_context;
    case "trace of_samples validates" test_trace_of_samples_raises;
    case "trace sample violations" test_sample_violations;
    case "exit codes distinct" test_exit_codes_distinct;
  ]
