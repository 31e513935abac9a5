open Batlife_numerics
open Batlife_battery
open Batlife_workload
open Batlife_core
open Batlife_sim
open Helpers

(* --- RNG -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L () and b = Rng.create ~seed:42L () in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
  check_true "different streams" (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy_and_split () =
  let a = Rng.create ~seed:7L () in
  let c = Rng.copy a in
  check_true "copy equal" (Rng.bits64 a = Rng.bits64 c);
  let a = Rng.create ~seed:7L () in
  let s = Rng.split a in
  check_true "split differs from parent" (Rng.bits64 a <> Rng.bits64 s)

let test_uniform_range_and_moments () =
  let rng = Rng.create ~seed:11L () in
  let n = 100_000 in
  let sum = ref 0. and sum_sq = ref 0. in
  for _ = 1 to n do
    let u = Rng.uniform rng in
    check_true "in [0,1)" (u >= 0. && u < 1.);
    sum := !sum +. u;
    sum_sq := !sum_sq +. (u *. u)
  done;
  let mean = !sum /. float_of_int n in
  let second = !sum_sq /. float_of_int n in
  check_float ~eps:5e-3 "mean 1/2" 0.5 mean;
  check_float ~eps:5e-3 "second moment 1/3" (1. /. 3.) second

let test_exponential_moments () =
  let rng = Rng.create ~seed:13L () in
  let rate = 2.5 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~rate
  done;
  check_float ~eps:6e-3 "mean 1/rate" (1. /. rate) (!sum /. float_of_int n);
  check_raises_invalid "bad rate" (fun () ->
      ignore (Rng.exponential rng ~rate:0.))

let test_erlang_moments () =
  let rng = Rng.create ~seed:17L () in
  let k = 4 and rate = 2. in
  let n = 50_000 in
  let sum = ref 0. and sum_sq = ref 0. in
  for _ = 1 to n do
    let x = Rng.erlang rng ~k ~rate in
    sum := !sum +. x;
    sum_sq := !sum_sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum_sq /. float_of_int n) -. (mean *. mean) in
  check_float ~eps:0.03 "mean k/rate" 2. mean;
  check_float ~eps:0.05 "variance k/rate^2" 1. var

let test_discrete_sampler () =
  let rng = Rng.create ~seed:19L () in
  let weights = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Rng.discrete rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "never the zero weight" 0 counts.(1);
  check_float ~eps:0.02 "first quarter" 0.25
    (float_of_int counts.(0) /. float_of_int n);
  check_raises_invalid "all zero" (fun () ->
      ignore (Rng.discrete rng [| 0.; 0. |]))

let test_int_below () =
  let rng = Rng.create ~seed:23L () in
  for _ = 1 to 1000 do
    let x = Rng.int_below rng 7 in
    check_true "in range" (x >= 0 && x < 7)
  done;
  check_raises_invalid "n zero" (fun () -> ignore (Rng.int_below rng 0))

(* --- Stats ------------------------------------------------------------ *)

let test_summarize () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4. |] in
  check_float "mean" 2.5 s.Stats.mean;
  check_close ~rel:1e-12 "variance" (5. /. 3.) s.Stats.variance;
  check_float "min" 1. s.Stats.minimum;
  check_float "max" 4. s.Stats.maximum;
  check_int "count" 4 s.Stats.count;
  check_raises_diag "empty" is_invalid_model (fun () ->
      ignore (Stats.summarize [||]))

let test_confidence_intervals () =
  let samples = Array.make 100 5. in
  let lo, hi = Stats.mean_confidence_interval samples in
  check_float "degenerate lo" 5. lo;
  check_float "degenerate hi" 5. hi;
  let lo, hi = Stats.proportion_confidence_interval ~p_hat:0.5 100 in
  check_true "brackets p" (lo < 0.5 && hi > 0.5);
  (* Wald width: 2 * 1.96 * sqrt(0.25/100). *)
  check_float ~eps:1e-3 "width" 0.196 (hi -. lo)

let test_ecdf () =
  let e = Stats.Ecdf.create [| 3.; 1.; 2. |] in
  check_float "below" 0. (Stats.Ecdf.eval e 0.5);
  check_close ~rel:1e-12 "at 1" (1. /. 3.) (Stats.Ecdf.eval e 1.);
  check_close ~rel:1e-12 "mid" (2. /. 3.) (Stats.Ecdf.eval e 2.5);
  check_float "above" 1. (Stats.Ecdf.eval e 10.);
  check_float "quantile 0.5" 2. (Stats.Ecdf.quantile e 0.5);
  check_float "quantile 1" 3. (Stats.Ecdf.quantile e 1.)

let test_ks_distance () =
  let e = Stats.Ecdf.create (Array.init 1000 (fun i -> float_of_int i /. 1000.)) in
  let d_uniform = Stats.Ecdf.ks_distance e (fun x -> Float.max 0. (Float.min 1. x)) in
  check_true "close to uniform" (d_uniform < 0.01);
  let d_wrong = Stats.Ecdf.ks_distance e (fun x -> Float.max 0. (Float.min 1. (x ** 3.))) in
  check_true "far from cubic" (d_wrong > 0.2)

(* --- Event queue ------------------------------------------------------- *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  check_true "empty" (Event_queue.is_empty q);
  List.iter (fun t -> Event_queue.push q ~time:t (int_of_float t))
    [ 5.; 1.; 3.; 2.; 4. ];
  check_int "size" 5 (Event_queue.size q);
  (match Event_queue.peek q with
  | Some (t, _) -> check_float "peek earliest" 1. t
  | None -> Alcotest.fail "non-empty");
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let prop_event_queue_sorted =
  qcheck ~count:100 "pop yields non-decreasing times"
    QCheck.(list_of_size (Gen.int_range 0 50) (float_range 0. 100.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec check_sorted prev =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= prev && check_sorted t
      in
      check_sorted neg_infinity)

(* --- Trajectory / Monte Carlo ------------------------------------------ *)

let constant_workload current =
  Model.of_spec
    ~states:[ ("only", current) ]
    ~transitions:[] ~initial:"only"

let test_trajectory_deterministic_workload () =
  (* One-state workload: the simulated lifetime equals the analytic
     constant-load lifetime exactly. *)
  let battery = Kibam.params ~capacity:7200. ~c:0.625 ~k:4.5e-5 in
  let model =
    Kibamrm.create ~workload:(constant_workload 0.96) ~battery
  in
  let rng = Rng.create () in
  (match Trajectory.sample_lifetime rng model with
  | Trajectory.Died t ->
      check_close ~rel:1e-9 "analytic lifetime"
        (Kibam.lifetime_constant battery ~load:0.96)
        t
  | Trajectory.Survived _ -> Alcotest.fail "must die")

let test_trajectory_horizon () =
  let battery = Kibam.params ~capacity:7200. ~c:1. ~k:0. in
  let model = Kibamrm.create ~workload:(constant_workload 0.01) ~battery in
  let rng = Rng.create () in
  match Trajectory.sample_lifetime ~horizon:10. rng model with
  | Trajectory.Survived s ->
      check_float ~eps:1e-9 "drained a little" 7199.9 s.Kibam.available;
      check_float "no bound charge" 0. s.Kibam.bound
  | Trajectory.Died _ -> Alcotest.fail "should survive"

let test_trajectory_path_events () =
  let workload = Onoff.model ~frequency:1. ~k:1 ~on_current:0.96 () in
  let battery = Kibam.params ~capacity:7200. ~c:1. ~k:0. in
  let model = Kibamrm.create ~workload ~battery in
  let events, outcome = Trajectory.sample_path (Rng.create ()) model in
  check_true "has events" (List.length events > 10);
  (match outcome with
  | Trajectory.Died t -> check_true "died eventually" (t > 7000.)
  | Trajectory.Survived _ -> Alcotest.fail "must die");
  (* Times non-decreasing; charge within bounds. *)
  let prev = ref (-1.) in
  List.iter
    (fun e ->
      check_true "ordered" (e.Trajectory.time >= !prev);
      prev := e.Trajectory.time;
      check_true "charge bound"
        (e.Trajectory.battery.Kibam.available <= 7200.0001))
    events

let test_montecarlo_reproducible () =
  let model = fig7_model () in
  let times = [| 14000.; 15000.; 16000. |] in
  let a = Montecarlo.lifetime_cdf ~seed:5L ~runs:50 model ~times in
  let b = Montecarlo.lifetime_cdf ~seed:5L ~runs:50 model ~times in
  Alcotest.(check (array (float 0.)))
    "same seeds, same cdf" a.Montecarlo.cdf b.Montecarlo.cdf;
  let c = Montecarlo.lifetime_cdf ~seed:6L ~runs:50 model ~times in
  check_true "different seed differs"
    (a.Montecarlo.samples <> c.Montecarlo.samples)

let test_montecarlo_mean_matches_deterministic_equivalent () =
  (* Degenerate battery + on/off: consumed charge must reach C, and
     the on-time to do so is C/I = 7500 s, so the mean lifetime is
     about 15000 s. *)
  let model = fig7_model () in
  let mean, (lo, hi) = Montecarlo.mean_lifetime ~runs:400 model in
  check_true "mean near 15000" (Float.abs (mean -. 15000.) < 100.);
  check_true "CI brackets mean" (lo < mean && mean < hi);
  check_true "CI brackets truth" (lo < 15000. && 15000. < hi)

let test_montecarlo_validation () =
  let model =
    Kibamrm.create ~workload:(constant_workload 1.)
      ~battery:(Kibam.params ~capacity:100. ~c:1. ~k:0.)
  in
  check_raises_diag "runs" is_invalid_model (fun () ->
      ignore (Montecarlo.lifetime_cdf ~runs:0 model ~times:[| 1. |]));
  check_raises_diag "time beyond horizon" is_invalid_model (fun () ->
      ignore (Montecarlo.lifetime_cdf ~horizon:10. model ~times:[| 20. |]))

(* --- Stochastic modified KiBaM ----------------------------------------- *)

let test_stochastic_kibam_matches_deterministic_on_average () =
  let base = Kibam.params ~capacity:7200. ~c:0.625 ~k:4.5e-5 in
  let p = Modified_kibam.params ~base ~gamma:2. in
  let profile = Load_profile.square_wave ~frequency:0.1 ~on_load:0.96 in
  let deterministic =
    match Modified_kibam.lifetime p profile with
    | Some t -> t
    | None -> Alcotest.fail "must deplete"
  in
  let mean, (lo, hi) =
    Stochastic_kibam.mean_lifetime ~runs:60 ~slot:0.25 p profile
  in
  check_true "mean close to deterministic"
    (Float.abs (mean -. deterministic) /. deterministic < 0.02);
  check_true "ci sane" (lo <= mean && mean <= hi)

let test_three_engines_agree () =
  (* The strongest cross-check in the suite: on the Fig. 7 scenario the
     exact occupation-time algorithm, the Monte-Carlo estimator and the
     (fine) Markovian approximation must agree pointwise. *)
  let workload = Onoff.model ~frequency:1. ~k:1 ~on_current:0.96 () in
  let battery = Kibam.params ~capacity:7200. ~c:1. ~k:0. in
  let model = Kibamrm.create ~workload ~battery in
  let times = [| 14000.; 14500.; 15000.; 15500.; 16000. |] in
  (* Engine 1: exact (occupation time). *)
  let m =
    Batlife_mrm.Mrm.create ~generator:workload.Model.generator
      ~rewards:(Array.init (Model.n_states workload) (Model.current workload))
      ~alpha:workload.Model.initial
  in
  let exact =
    Array.map (fun p -> 1. -. p)
      (Batlife_mrm.Occupation.two_valued_cdf m
         ~queries:(Array.map (fun t -> (t, 7200.)) times))
  in
  (* Engine 2: Monte Carlo (1000 runs; binomial error ~ 1.6% at 1 sd). *)
  let sim = Montecarlo.lifetime_cdf ~runs:1000 model ~times in
  Array.iteri
    (fun i p ->
      let sigma = sqrt (Float.max 1e-4 (p *. (1. -. p)) /. 1000.) in
      check_true
        (Printf.sprintf "sim vs exact at %g" times.(i))
        (Float.abs (sim.Montecarlo.cdf.(i) -. p) < 4. *. sigma +. 0.005))
    exact;
  (* Engine 3: Markovian approximation at a fine step; it is biased by
     the phase-type spread, so only a loose agreement is required, but
     it must bracket the exact curve's median crossing. *)
  let curve = Lifetime.cdf ~delta:5. ~times model in
  check_true "approximation near 1/2 at the exact median"
    (Float.abs (curve.Lifetime.probabilities.(2) -. exact.(2)) < 0.05)

let test_stochastic_kibam_validation () =
  let base = Kibam.params ~capacity:100. ~c:0.5 ~k:1e-3 in
  let p = Modified_kibam.params ~base ~gamma:1. in
  check_raises_diag "slot" is_invalid_model (fun () ->
      ignore
        (Stochastic_kibam.sample_lifetime ~slot:0. (Rng.create ()) p
           (Load_profile.constant 1.)))

let suite =
  [
    case "rng deterministic" test_rng_deterministic;
    case "rng seeds differ" test_rng_seeds_differ;
    case "rng copy and split" test_rng_copy_and_split;
    case "uniform moments" test_uniform_range_and_moments;
    case "exponential moments" test_exponential_moments;
    case "erlang moments" test_erlang_moments;
    case "discrete sampler" test_discrete_sampler;
    case "int_below" test_int_below;
    case "summarize" test_summarize;
    case "confidence intervals" test_confidence_intervals;
    case "ecdf" test_ecdf;
    case "ks distance" test_ks_distance;
    case "event queue ordering" test_event_queue_order;
    prop_event_queue_sorted;
    case "trajectory: deterministic workload"
      test_trajectory_deterministic_workload;
    case "trajectory: horizon" test_trajectory_horizon;
    case "trajectory: path events" test_trajectory_path_events;
    case "montecarlo reproducible" test_montecarlo_reproducible;
    slow_case "montecarlo mean near deterministic equivalent"
      test_montecarlo_mean_matches_deterministic_equivalent;
    case "montecarlo validation" test_montecarlo_validation;
    slow_case "stochastic modified KiBaM unbiased"
      test_stochastic_kibam_matches_deterministic_on_average;
    slow_case "three engines agree (fig 7 scenario)"
      test_three_engines_agree;
    case "stochastic modified KiBaM validation"
      test_stochastic_kibam_validation;
  ]
