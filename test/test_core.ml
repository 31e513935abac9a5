open Batlife_numerics
open Batlife_ctmc
open Batlife_mrm
open Batlife_battery
open Batlife_workload
open Batlife_core
open Helpers

(* --- Grid ----------------------------------------------------------- *)

let test_grid_shape () =
  let g = Grid.create ~delta:5. ~u1:7200. ~u2:0. ~n_workload:2 in
  check_int "levels1" 1441 g.Grid.levels1;
  check_int "levels2 degenerate" 1 g.Grid.levels2;
  (* The paper's state count for Fig. 7 at Delta = 5. *)
  check_int "2882 states" 2882 (Grid.total_states g);
  check_int "absorbing block" 2 (Grid.absorbing_block_size g)

let test_grid_two_dimensional () =
  let g = Grid.create ~delta:25. ~u1:500. ~u2:300. ~n_workload:3 in
  check_int "levels1" 21 g.Grid.levels1;
  check_int "levels2" 13 g.Grid.levels2;
  check_int "total" (21 * 13 * 3) (Grid.total_states g)

let test_grid_levels () =
  let g = Grid.create ~delta:5. ~u1:100. ~u2:50. ~n_workload:1 in
  check_int "level of 0" 0 (Grid.level_of1 g 0.);
  check_int "level of 5 (closed right end)" 0 (Grid.level_of1 g 5.);
  check_int "level of 5.1" 1 (Grid.level_of1 g 5.1);
  check_int "level of 100" 19 (Grid.level_of1 g 100.);
  (* u2 = 50 lives in level 9 = (45, 50]; the top level 10 is the
     transfer-reachable overflow level. *)
  check_int "level of u2" 9 (Grid.level_of2 g 50.);
  check_int "level2 clamp" (g.Grid.levels2 - 1) (Grid.level_of2 g 500.);
  check_float "level value" 10. (Grid.level_value g 1)

let test_grid_validation () =
  check_raises_invalid "delta" (fun () ->
      ignore (Grid.create ~delta:0. ~u1:1. ~u2:0. ~n_workload:1));
  check_raises_invalid "u1" (fun () ->
      ignore (Grid.create ~delta:1. ~u1:0. ~u2:0. ~n_workload:1));
  check_raises_invalid "negative reward" (fun () ->
      ignore (Grid.level_of1 (Grid.create ~delta:1. ~u1:5. ~u2:0. ~n_workload:1) (-1.)))

let prop_grid_index_bijection =
  qcheck ~count:300 "index/decompose bijection"
    QCheck.(triple (int_range 0 4) (int_range 0 20) (int_range 0 11))
    (fun (state, j1, j2) ->
      let g = Grid.create ~delta:25. ~u1:500. ~u2:300. ~n_workload:5 in
      let j1 = min j1 (g.Grid.levels1 - 1) and j2 = min j2 (g.Grid.levels2 - 1) in
      let idx = Grid.index g ~state ~j1 ~j2 in
      Grid.decompose g idx = (state, j1, j2))

let prop_grid_index_dense =
  qcheck ~count:20 "indices cover 0..total-1 exactly once"
    (QCheck.int_range 1 4)
    (fun n ->
      let g = Grid.create ~delta:50. ~u1:200. ~u2:100. ~n_workload:n in
      let seen = Array.make (Grid.total_states g) false in
      for state = 0 to n - 1 do
        for j1 = 0 to g.Grid.levels1 - 1 do
          for j2 = 0 to g.Grid.levels2 - 1 do
            seen.(Grid.index g ~state ~j1 ~j2) <- true
          done
        done
      done;
      Array.for_all (fun b -> b) seen)

(* --- Kibamrm rewards ------------------------------------------------- *)

let test_reward_rates () =
  let m = fig2_model () in
  (* State 0 is the on state drawing 0.96 A. *)
  let r1, r2 = Kibamrm.reward_rates m ~state:0 ~y1:1000. ~y2:2700. in
  (* h2 = 7200 > h1 = 1600: recovery flows. *)
  let flow = 4.5e-5 *. ((2700. /. 0.375) -. (1000. /. 0.625)) in
  check_float ~eps:1e-12 "r1" (-0.96 +. flow) r1;
  check_float ~eps:1e-12 "r2" (-.flow) r2;
  (* Empty battery: clamped to zero. *)
  let r1, r2 = Kibamrm.reward_rates m ~state:0 ~y1:0. ~y2:2700. in
  check_float "r1 clamped" 0. r1;
  check_float "r2 clamped" 0. r2;
  (* h1 > h2: no reverse recovery in the MRM formulation. *)
  let r1, r2 = Kibamrm.reward_rates m ~state:0 ~y1:4500. ~y2:100. in
  check_float "r1 no flow" (-0.96) r1;
  check_float "r2 no flow" 0. r2

let test_upper_bounds () =
  let u1, u2 = Kibamrm.upper_bounds (fig2_model ()) in
  check_float "u1" 4500. u1;
  check_float "u2" 2700. u2;
  check_true "degenerate" (Kibamrm.is_degenerate (fig7_model ()))

(* --- Discretized generator ------------------------------------------ *)

let test_discretized_structure () =
  let d = Discretized.build ~delta:5. (fig7_model ()) in
  check_int "paper state count" 2882 (Discretized.n_states d);
  let g = d.Discretized.generator in
  (* Row sums of any generator are zero. *)
  let sums = Sparse.row_sums (Generator.matrix g) in
  Array.iter (fun s -> check_true "row sum" (Float.abs s < 1e-9)) sums;
  (* The absorbing block (j1 = 0) has no outgoing transitions. *)
  let block = Grid.absorbing_block_size d.Discretized.grid in
  for i = 0 to block - 1 do
    check_true "absorbing" (Generator.is_absorbing g i)
  done;
  (* Initial mass sits in one state of the top level. *)
  check_float "alpha mass" 1. (Vector.sum d.Discretized.alpha)

let test_discretized_initial_fill () =
  let d =
    Discretized.build ~initial_fill:(10., 0.) ~delta:5. (fig7_model ())
  in
  (* Level of 10 is 1: the flat index of (state on1 = 0, j1 = 1). *)
  let idx = Grid.index d.Discretized.grid ~state:0 ~j1:1 ~j2:0 in
  check_float "mass placed low" 1. d.Discretized.alpha.(idx)

let test_empty_probability_monotone_bounds () =
  let d = Discretized.build ~delta:100. (fig2_model ()) in
  let times = [| 2000.; 6000.; 10000.; 14000.; 18000. |] in
  let probs, stats = Discretized.empty_probability d ~times in
  check_true "iterations" (stats.Transient.iterations > 0);
  let prev = ref (-1e-9) in
  Array.iter
    (fun p ->
      check_true "bounds" (p >= -1e-9 && p <= 1. +. 1e-9);
      check_true "monotone" (p >= !prev -. 1e-9);
      prev := p)
    probs

let test_degenerate_matches_erlangization () =
  (* For c = 1 the expanded chain is an Erlangization of the consumed
     charge; the independent Mrm.Erlangization must agree when using
     the same number of stages. *)
  let model = fig7_model () in
  let delta = 100. in
  let d = Discretized.build ~delta model in
  let times = [| 8000.; 12000.; 15000.; 18000. |] in
  let approx, _ = Discretized.empty_probability d ~times in
  let workload = model.Kibamrm.workload in
  let m =
    Mrm.create ~generator:workload.Model.generator
      ~rewards:
        (Array.init (Model.n_states workload) (Model.current workload))
      ~alpha:workload.Model.initial
  in
  (* The paper places the initial fill 7200 in level 71 of 72 (interval
     (7100, 7200]), so the comparable Erlang budget has 71 stages
     of size delta. *)
  let stages = 71 in
  let erl =
    Erlangization.exceedance ~stages m
      ~budget:(delta *. float_of_int stages)
      ~times
  in
  Array.iteri
    (fun i t ->
      check_float ~eps:5e-3 (Printf.sprintf "t=%g" t) erl.(i) approx.(i))
    times

let test_state_distribution_mass () =
  let d = Discretized.build ~delta:50. (fig2_model ()) in
  let pi = Discretized.state_distribution d ~time:5000. in
  check_float ~eps:1e-9 "mass 1" 1. (Vector.sum pi)

let test_charge_marginal () =
  let d = Discretized.build ~delta:500. (fig2_model ()) in
  let s = Discretized.Session.create d in
  let marginal =
    Discretized.Session.(get (available_charge_marginal s ~time:3000.))
  in
  let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0. marginal in
  check_float ~eps:1e-9 "marginal mass" 1. total;
  let charge0, _ = marginal.(0) in
  check_float "first bucket is empty level" 0. charge0

let test_mode_marginal_matches_workload_transient () =
  (* The workload evolves independently of the charge, so with
     non-absorbing empty states the mode marginal of the expanded
     chain equals the plain workload transient. *)
  let model = fig2_model () in
  let d = Discretized.build ~absorb_empty:false ~delta:200. model in
  let time = 4000. in
  let s = Discretized.Session.create d in
  let marginal = Discretized.Session.(get (mode_marginal s ~time)) in
  let direct =
    Transient.solve model.Kibamrm.workload.Model.generator
      ~alpha:model.Kibamrm.workload.Model.initial ~t:time
  in
  Array.iteri
    (fun i p ->
      check_float ~eps:1e-8 (Printf.sprintf "mode %d" i) direct.(i) p)
    marginal

let test_expected_available_charge () =
  let model = fig2_model () in
  let d = Discretized.build ~delta:100. model in
  (* Early on (before any absorption) the expected available charge is
     roughly the initial charge minus the mean consumption; the grid
     underestimates by at most one level width.  Both time points ride
     the same session flush. *)
  let s = Discretized.Session.create d in
  let early_q = Discretized.Session.expected_available_charge s ~time:1000. in
  let later_q = Discretized.Session.expected_available_charge s ~time:8000. in
  let expected = Discretized.Session.get early_q in
  (* Mean consumed by t=1000 with half the time on: ~0.48 * 1000. *)
  let ballpark = 4500. -. 480. in
  check_true "in the right ballpark"
    (Float.abs (expected -. ballpark) < 150.);
  (* Decreasing over time. *)
  let later = Discretized.Session.get later_q in
  check_true "decreasing" (later < expected);
  check_int "one sweep for both times" 1 (Discretized.Session.sweeps s)

let test_joint_probability () =
  let model = fig2_model () in
  let d = Discretized.build ~delta:200. model in
  let time = 3000. in
  let s = Discretized.Session.create d in
  (* Joint probabilities sum (over modes, with min_charge 0 and the
     empty mass) to 1. *)
  let modes = 2 in
  let joint_qs =
    List.init modes (fun mode ->
        Discretized.Session.joint_probability s ~time ~mode ~min_charge:0.)
  in
  let marginal_q = Discretized.Session.available_charge_marginal s ~time in
  let lo_q =
    Discretized.Session.joint_probability s ~time ~mode:0 ~min_charge:1000.
  in
  let hi_q =
    Discretized.Session.joint_probability s ~time ~mode:0 ~min_charge:3000.
  in
  let above =
    List.fold_left
      (fun acc q -> acc +. Discretized.Session.get q)
      0. joint_qs
  in
  let empty_mass = (Discretized.Session.get marginal_q).(0) |> snd in
  check_float ~eps:1e-8 "joint + empty = 1" 1. (above +. empty_mass);
  (* Raising the bar lowers the probability. *)
  let lo = Discretized.Session.get lo_q in
  let hi = Discretized.Session.get hi_q in
  check_true "monotone in the bar" (hi <= lo +. 1e-12);
  check_int "one sweep for the whole batch" 1 (Discretized.Session.sweeps s);
  check_raises_invalid "bad mode" (fun () ->
      ignore (Discretized.Session.joint_probability s ~time ~mode:7 ~min_charge:0.))

(* --- Lifetime API ----------------------------------------------------- *)

let test_lifetime_cdf_and_quantiles () =
  let model = fig7_model () in
  let times = Array.init 30 (fun i -> 6000. +. (500. *. float_of_int i)) in
  let curve = Lifetime.cdf ~delta:50. ~times model in
  check_int "states" 290 curve.Lifetime.states;
  let median = Lifetime.quantile curve 0.5 in
  (* The deterministic-equivalent lifetime is 15000 s; the coarse
     approximation spreads around it. *)
  check_true "median reasonable" (median > 13000. && median < 17000.);
  let mean = Lifetime.mean curve in
  check_true "mean reasonable" (mean > 13000. && mean < 17000.);
  check_raises_invalid "bad quantile" (fun () ->
      ignore (Lifetime.quantile curve 1.5))

let test_lifetime_refinement_sharpens () =
  (* Smaller Delta concentrates the CDF: the spread between q10 and
     q90 must shrink monotonically along the refinement sequence. *)
  let model = fig7_model () in
  let times = Array.init 57 (fun i -> 6000. +. (250. *. float_of_int i)) in
  let curves =
    Lifetime.convergence_study ~deltas:[| 200.; 100.; 50. |] ~times model
  in
  let spreads =
    List.map
      (fun c -> Lifetime.quantile c 0.9 -. Lifetime.quantile c 0.1)
      curves
  in
  match spreads with
  | [ s1; s2; s3 ] -> check_true "sharpens" (s1 > s2 && s2 > s3)
  | _ -> Alcotest.fail "expected three curves"

(* Randomised cross-engine validation: for arbitrary small workload
   CTMCs and battery parameters, the discretisation and the exact
   Monte-Carlo simulation must produce the same lifetime distribution
   up to discretisation bias + sampling error.  We compare medians with
   a tolerance that accounts for both. *)
let prop_random_models_cross_engine =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 2 4 in
        let* currents = array_size (return n) (float_range 0.1 2.) in
        let* rates =
          array_size (return ((n * n) - n)) (float_range 0.05 3.)
        in
        let* c = float_range 0.4 1. in
        let* k = float_range 1e-4 1e-2 in
        return (n, currents, rates, c, k))
  in
  qcheck ~count:5 "random models: simulation matches discretisation" gen
    (fun (n, currents, rates, c, k) ->
      (* Fully connected workload CTMC. *)
      let transitions = ref [] in
      let idx = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            transitions := (i, j, rates.(!idx)) :: !transitions;
            incr idx
          end
        done
      done;
      let generator = Generator.of_rates ~n !transitions in
      let alpha = Array.init n (fun i -> if i = 0 then 1. else 0.) in
      let workload = Model.create ~generator ~currents ~initial:alpha in
      let battery = Kibam.params ~capacity:50. ~c ~k in
      let model = Kibamrm.create ~workload ~battery in
      let times = Array.init 40 (fun i -> 2.5 *. float_of_int (i + 1)) in
      let curve = Lifetime.cdf ~delta:0.5 ~times model in
      let est =
        Batlife_sim.Montecarlo.lifetime_cdf ~runs:300 ~horizon:1e4 model ~times
      in
      let median = Lifetime.quantile curve 0.5 in
      let sim_median =
        let interp =
          Interp.create ~xs:times ~ys:est.Batlife_sim.Montecarlo.cdf
        in
        Interp.inverse interp 0.5
      in
      Float.abs (median -. sim_median) /. Float.max sim_median 1. < 0.12)

let test_lifetime_approaches_simulation_median () =
  (* Cross-validation of the two independent engines. *)
  let model = fig7_model () in
  let times = Array.init 57 (fun i -> 6000. +. (250. *. float_of_int i)) in
  let curve = Lifetime.cdf ~delta:25. ~times model in
  let est = Batlife_sim.Montecarlo.lifetime_cdf ~runs:400 model ~times in
  let median = Lifetime.quantile curve 0.5 in
  let sim_median =
    let interp = Interp.create ~xs:times ~ys:est.Batlife_sim.Montecarlo.cdf in
    Interp.inverse interp 0.5
  in
  check_true "medians within 3%"
    (Float.abs (median -. sim_median) /. sim_median < 0.03)

let suite =
  [
    case "grid shape (paper count)" test_grid_shape;
    case "grid 2d shape" test_grid_two_dimensional;
    case "grid levels" test_grid_levels;
    case "grid validation" test_grid_validation;
    prop_grid_index_bijection;
    prop_grid_index_dense;
    case "reward rates" test_reward_rates;
    case "upper bounds" test_upper_bounds;
    case "discretized structure" test_discretized_structure;
    case "initial fill placement" test_discretized_initial_fill;
    case "empty probability monotone" test_empty_probability_monotone_bounds;
    slow_case "degenerate matches Erlangization"
      test_degenerate_matches_erlangization;
    case "state distribution mass" test_state_distribution_mass;
    case "charge marginal" test_charge_marginal;
    case "mode marginal matches workload transient"
      test_mode_marginal_matches_workload_transient;
    case "expected available charge" test_expected_available_charge;
    case "joint state-charge probability" test_joint_probability;
    case "lifetime cdf and quantiles" test_lifetime_cdf_and_quantiles;
    slow_case "refinement sharpens" test_lifetime_refinement_sharpens;
    slow_case "matches simulation median"
      test_lifetime_approaches_simulation_median;
    prop_random_models_cross_engine;
  ]
