(* The batched evaluation engine: session queries must agree with an
   independent per-call reference to near machine precision, batching must
   actually batch (one sweep for any number of queries), and
   multi_measure_sweep must equal N independent measure_sweep calls on
   arbitrary generators. *)

open Helpers
open Batlife_numerics
open Batlife_ctmc
open Batlife_core

(* Work accounting now lives in the Telemetry registry; these counters
   are always on, so tests can assert on sweep counts without enabling
   the (span/histogram) collector. *)
let c_sweeps = Telemetry.counter "transient.sweeps"

let reset_sweeps () = Telemetry.reset_counter c_sweeps
let sweeps_done () = Telemetry.value c_sweeps

(* An independent reference implementation of the per-time measures,
   straight off the full transient distribution (one whole solve per
   call).  The session's batched functionals must reproduce it. *)
module Reference = struct
  let level_charge grid j1 =
    if j1 = 0 then 0. else Grid.level_value grid (j1 - 1)

  let charge_marginal d ~time =
    let pi = Discretized.state_distribution d ~time in
    let grid = d.Discretized.grid in
    Array.init grid.Grid.levels1 (fun j1 ->
        let acc = ref 0. in
        for j2 = 0 to grid.Grid.levels2 - 1 do
          for i = 0 to grid.Grid.n_workload - 1 do
            acc := !acc +. pi.(Grid.index grid ~state:i ~j1 ~j2)
          done
        done;
        (level_charge grid j1, !acc))

  let mode_marginal d ~time =
    let pi = Discretized.state_distribution d ~time in
    let grid = d.Discretized.grid in
    let result = Array.make grid.Grid.n_workload 0. in
    for j1 = 0 to grid.Grid.levels1 - 1 do
      for j2 = 0 to grid.Grid.levels2 - 1 do
        for i = 0 to grid.Grid.n_workload - 1 do
          result.(i) <- result.(i) +. pi.(Grid.index grid ~state:i ~j1 ~j2)
        done
      done
    done;
    result

  let expected_charge d ~time =
    Array.fold_left
      (fun acc (charge, p) -> acc +. (charge *. p))
      0. (charge_marginal d ~time)

  let joint d ~time ~mode ~min_charge =
    let pi = Discretized.state_distribution d ~time in
    let grid = d.Discretized.grid in
    let acc = ref 0. in
    for j1 = 1 to grid.Grid.levels1 - 1 do
      if Grid.level_value grid (j1 - 1) >= min_charge then
        for j2 = 0 to grid.Grid.levels2 - 1 do
          acc := !acc +. pi.(Grid.index grid ~state:mode ~j1 ~j2)
        done
    done;
    !acc
end

let check_session_matches_legacy ~delta model =
  let d = Discretized.build ~delta model in
  let times = [| 2000.; 5000.; 10000.; 15000. |] in
  let time = 10000. in
  (* Reference per-call answers (one whole solve each). *)
  let legacy_cdf, _ = Discretized.empty_probability d ~times in
  let legacy_marginal = Reference.charge_marginal d ~time in
  let legacy_modes = Reference.mode_marginal d ~time in
  let legacy_expected = Reference.expected_charge d ~time in
  let legacy_joint = Reference.joint d ~time ~mode:0 ~min_charge:2000. in
  (* The same queries, one session, one sweep. *)
  let s = Discretized.Session.create d in
  let cdf_q = Discretized.Session.empty_probability s ~times in
  let marginal_q = Discretized.Session.available_charge_marginal s ~time in
  let modes_q = Discretized.Session.mode_marginal s ~time in
  let expected_q = Discretized.Session.expected_available_charge s ~time in
  let joint_q =
    Discretized.Session.joint_probability s ~time ~mode:0 ~min_charge:2000.
  in
  reset_sweeps ();
  let stats = Discretized.Session.run s in
  check_int "whole batch = one sweep" 1 (sweeps_done ());
  check_true "sweep did work" (stats.Transient.iterations > 0);
  let cdf = Discretized.Session.get cdf_q in
  Array.iteri
    (fun i t ->
      check_float ~eps:1e-12 (Printf.sprintf "cdf at t=%g" t) legacy_cdf.(i)
        cdf.(i))
    times;
  let marginal = Discretized.Session.get marginal_q in
  check_int "marginal length" (Array.length legacy_marginal)
    (Array.length marginal);
  Array.iteri
    (fun j1 (charge, p) ->
      let charge', p' = marginal.(j1) in
      check_float ~eps:0. (Printf.sprintf "level %d charge" j1) charge charge';
      check_float ~eps:1e-12 (Printf.sprintf "level %d mass" j1) p p')
    legacy_marginal;
  let modes = Discretized.Session.get modes_q in
  Array.iteri
    (fun i p ->
      check_float ~eps:1e-12 (Printf.sprintf "mode %d" i) p modes.(i))
    legacy_modes;
  check_close ~rel:1e-12 "expected charge" legacy_expected
    (Discretized.Session.get expected_q);
  check_float ~eps:1e-12 "joint probability" legacy_joint
    (Discretized.Session.get joint_q)

let test_session_matches_legacy_fig7 () =
  check_session_matches_legacy ~delta:100. (fig7_model ())

let test_session_matches_legacy_fig2_battery () =
  check_session_matches_legacy ~delta:200. (fig2_model ())

(* The headline acceptance property: on a fig-7-sized model, the CDF
   plus all four per-time measures over a shared grid cost exactly ONE
   sweep, against five for the per-call path. *)
let test_one_sweep_for_five_queries () =
  let d = Discretized.build ~delta:25. (fig7_model ()) in
  let times = Array.init 10 (fun i -> 2000. *. float_of_int (i + 1)) in
  let time = times.(5) in
  reset_sweeps ();
  let s = Discretized.Session.create d in
  let cdf_q = Discretized.Session.empty_probability s ~times in
  let _m1 = Discretized.Session.available_charge_marginal s ~time in
  let _m2 = Discretized.Session.mode_marginal s ~time in
  let _m3 = Discretized.Session.expected_available_charge s ~time in
  let _m4 =
    Discretized.Session.joint_probability s ~time ~mode:1 ~min_charge:1000.
  in
  let cdf = Discretized.Session.get cdf_q in
  check_int "exactly one sweep" 1 (sweeps_done ());
  check_int "session agrees" 1 (Discretized.Session.sweeps s);
  check_true "CDF nontrivial" (cdf.(Array.length cdf - 1) > 0.5);
  (* A second batch on the same session reuses the cached windows. *)
  let windows_before = Discretized.Session.cached_windows s in
  let again = Discretized.Session.empty_probability s ~times in
  ignore (Discretized.Session.get again : float array);
  check_int "windows cached across flushes" windows_before
    (Discretized.Session.cached_windows s);
  check_int "second flush = second sweep" 2 (sweeps_done ())

(* The session cache counters must expose what the engine actually
   reused: the first flush misses every Fox-Glynn window and builds
   the kernel once; a second flush over the same grid hits every
   window and rebuilds nothing. *)
let test_session_cache_counters () =
  let c_hits = Telemetry.counter "session.window_hits"
  and c_misses = Telemetry.counter "session.window_misses"
  and c_kernels = Telemetry.counter "session.kernel_builds"
  and c_flushes = Telemetry.counter "session.flushes" in
  List.iter Telemetry.reset_counter [ c_hits; c_misses; c_kernels; c_flushes ];
  let d = Discretized.build ~delta:100. (fig7_model ()) in
  let s = Discretized.Session.create d in
  let times = [| 3000.; 6000.; 9000. |] in
  let q1 = Discretized.Session.empty_probability s ~times in
  ignore (Discretized.Session.get q1 : float array);
  check_int "first flush misses every window" (Array.length times)
    (Telemetry.value c_misses);
  check_int "no hits yet" 0 (Telemetry.value c_hits);
  check_int "first flush builds the kernel once" 1 (Telemetry.value c_kernels);
  check_int "one flush so far" 1 (Telemetry.value c_flushes);
  let q2 = Discretized.Session.empty_probability s ~times in
  ignore (Discretized.Session.get q2 : float array);
  check_int "second flush with the same grid = 0 kernel rebuilds" 1
    (Telemetry.value c_kernels);
  check_int "second flush hits every window" (Array.length times)
    (Telemetry.value c_hits);
  check_int "no new misses" (Array.length times) (Telemetry.value c_misses);
  check_int "two flushes" 2 (Telemetry.value c_flushes)

(* Lifetime.cdf_discretized rides the same engine and must agree with
   the one-shot Lifetime.cdf. *)
let test_lifetime_cdf_discretized_matches () =
  let model = fig7_model () in
  let times = Array.init 20 (fun i -> 1000. *. float_of_int (i + 1)) in
  let delta = 50. in
  let via_model = Lifetime.cdf ~delta ~times model in
  let d = Discretized.build ~delta model in
  let via_prebuilt = Lifetime.cdf_discretized ~delta d ~times in
  Array.iteri
    (fun i t ->
      check_float ~eps:1e-14
        (Printf.sprintf "t=%g" t)
        via_model.Lifetime.probabilities.(i)
        via_prebuilt.Lifetime.probabilities.(i))
    times;
  check_int "states agree" via_model.Lifetime.states
    via_prebuilt.Lifetime.states

(* Random-generator property: batching k functionals is exactly k
   independent sweeps' worth of answers. *)
let prop_multi_equals_singles =
  qcheck ~count:100 "multi_measure_sweep = N independent measure_sweeps"
    QCheck.(
      triple
        (list_of_size (Gen.int_range 2 10)
           (triple (int_range 0 3) (int_range 0 3) (float_range 0.05 4.)))
        (list_of_size (Gen.int_range 1 4) (pos_float_arb 0.01 5.))
        (int_range 1 3))
    (fun (entries, times_list, k) ->
      let rates =
        List.filter_map
          (fun (i, j, r) -> if i <> j then Some (i, j, r) else None)
          entries
      in
      let g = Generator.of_rates ~n:4 rates in
      let alpha = [| 0.4; 0.3; 0.2; 0.1 |] in
      let times = Array.of_list times_list in
      let measures = Array.init k state_mass in
      let batched, _ = Transient.multi_measure_sweep g ~alpha ~times ~measures in
      Array.for_all Fun.id
        (Array.mapi
           (fun j measure ->
             let single, _ = Transient.measure_sweep g ~alpha ~times ~measure in
             Array.for_all Fun.id
               (Array.mapi
                  (fun i v -> Float.abs (v -. single.(i)) <= 1e-12)
                  batched.(j)))
           measures))

(* The escape-hatch measure query composes with the built-ins on one
   grid union. *)
let test_custom_measure_query () =
  let d = Discretized.build ~delta:100. (fig7_model ()) in
  let s = Discretized.Session.create d in
  let times = [| 3000.; 9000. |] in
  let total_q =
    Discretized.Session.measure s ~times
      ~measure:(total_mass (Discretized.n_states d))
  in
  let cdf_q = Discretized.Session.empty_probability s ~times:[| 9000. |] in
  let total = Discretized.Session.get total_q in
  Array.iter (fun m -> check_float ~eps:1e-9 "mass conserved" 1. m) total;
  let cdf = Discretized.Session.get cdf_q in
  check_int "one sweep despite different grids" 1
    (Discretized.Session.sweeps s);
  check_true "cdf in range" (cdf.(0) >= 0. && cdf.(0) <= 1.)

(* The multicore contract: the gather kernel owns each output entry on
   exactly one domain and sums it in a fixed order, so the job count
   must not change a single bit of any result — not "close", equal. *)
let curve_bits (c : Lifetime.curve) =
  Array.map Int64.bits_of_float c.Lifetime.probabilities

let check_jobs_identical ~delta model =
  let times = [| 4000.; 8000.; 12000. |] in
  let solve jobs =
    Lifetime.cdf ~opts:(Solver_opts.make ~jobs ()) ~delta ~times model
  in
  let reference = curve_bits (solve 1) in
  List.iter
    (fun jobs ->
      let bits = curve_bits (solve jobs) in
      check_true
        (Printf.sprintf "jobs=%d CDF bitwise equal to jobs=1" jobs)
        (bits = reference))
    [ 2; 4 ]

let test_jobs_identical_fig7 () = check_jobs_identical ~delta:100. (fig7_model ())

let test_jobs_identical_fig2_battery () =
  check_jobs_identical ~delta:200. (fig2_model ())

(* Same for a full session batch (CDF plus marginals) — the session
   caches the kernel, so this also covers the cached path. *)
let test_jobs_identical_session () =
  let batch jobs =
    let d = Discretized.build ~delta:200. (fig2_model ()) in
    let s =
      Discretized.Session.create ~opts:(Solver_opts.make ~jobs ()) d
    in
    let cdf =
      Discretized.Session.empty_probability s ~times:[| 5000.; 10000. |]
    in
    let marginal =
      Discretized.Session.available_charge_marginal s ~time:8000.
    in
    let cdf = Discretized.Session.get cdf in
    let marginal = Discretized.Session.get marginal in
    ( Array.map Int64.bits_of_float cdf,
      Array.map (fun (_, p) -> Int64.bits_of_float p) marginal )
  in
  let cdf1, marginal1 = batch 1 in
  let cdf4, marginal4 = batch 4 in
  check_true "session CDF bitwise equal across jobs" (cdf1 = cdf4);
  check_true "session marginal bitwise equal across jobs" (marginal1 = marginal4)

let suite =
  [
    case "session matches reference per-call (fig-7 model)"
      test_session_matches_legacy_fig7;
    case "session matches reference per-call (fig-2 battery)"
      test_session_matches_legacy_fig2_battery;
    case "CDF + 4 measures = one sweep" test_one_sweep_for_five_queries;
    case "session cache hit/miss counters" test_session_cache_counters;
    case "cdf_discretized matches cdf" test_lifetime_cdf_discretized_matches;
    prop_multi_equals_singles;
    case "custom measure query" test_custom_measure_query;
    case "jobs=1/2/4 bitwise identical (fig-7 model)"
      test_jobs_identical_fig7;
    case "jobs=1/2/4 bitwise identical (fig-2 battery)"
      test_jobs_identical_fig2_battery;
    case "session batch bitwise identical across jobs"
      test_jobs_identical_session;
  ]
