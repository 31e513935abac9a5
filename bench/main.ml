(* Benchmark & reproduction harness.

   Default run (as in `dune exec bench/main.exe`):
     1. regenerate every table and figure of the paper's evaluation
        section, printing the measured rows/series summaries next to
        the paper's reported shapes, and writing .dat/.csv/.gp
        artefacts under results/;
     2. run one Bechamel timing benchmark per experiment kernel.

   Flags:
     --full         also compute the expensive Delta=10,5 two-well
                    refinements (Figs. 8, 9)
     --runs N       Monte-Carlo replications (default 1000)
     --out-dir D    artefact directory (default results)
     --repro-only   skip the timing pass
     --timing-only  skip the reproduction pass
     --quota S      seconds of sampling per timing test (default 0.5)
     --engine-report PATH
                    count uniformisation sweeps / vector-matrix
                    products for the per-call vs batched-session
                    evaluation paths and write a JSON snapshot
                    (committed as BENCH_engine.json, diffed by CI)
     --kernel-report PATH
                    run ONLY the adaptive-support kernel benchmark:
                    the fig-7 / fig-2 style sweeps at Delta = 10,
                    solved with the exact full-support oracle and
                    with the adaptive window, counting vector-matrix
                    products and touched nonzeros via the Telemetry
                    work counters and checking the adaptive-vs-oracle
                    CDF deviation against the documented skipped-mass
                    bound (accuracy / 2), written as a JSON snapshot
                    (committed as BENCH_kernel.json, diffed by CI --
                    work counts only, no wall clocks, so the file is
                    identical on any machine and core count); nonzero
                    exit if the touched-nnz reduction falls below 3x
                    on any model or the deviation exceeds the bound
     --chaos-report PATH
                    run ONLY the chaos harness (see chaos.ml): a
                    seeded matrix of fault-injection plans over the
                    fig-2/fig-7 models, asserting every run ends
                    bitwise-identical to the clean run or in a clean
                    structured failure with no partial artifacts,
                    written as a JSON snapshot (committed as
                    BENCH_chaos.json); nonzero exit on any violation
     --chaos-plans N
                    number of fault plans (default 60)
     --chaos-seed S seed of the plan generator (default 2007)
     --serve-chaos-report PATH
                    run ONLY the serve-side chaos harness (see
                    serve_chaos.ml): boot the real Unix-socket accept
                    loop with small guard limits and drive the hostile
                    client matrix at it — oversized frames, admission
                    floods, malformed streaks, mid-batch disconnects,
                    stalled senders, and the armed server.* fault
                    sites — asserting the daemon survives every
                    scenario (health probe between scenarios), every
                    frame is answered or shed with a structured code-9
                    overloaded response, and the final drain exits
                    cleanly with the socket unlinked; written as a
                    JSON snapshot (committed as BENCH_serve_chaos.json,
                    counts and booleans only, no wall clocks); nonzero
                    exit on any violation
 *)

open Bechamel
open Batlife_battery
open Batlife_core
open Batlife_experiments

(* ------------------------------------------------------------------ *)
(* Timing kernels: one per table/figure, sized so a single sample is
   meaningful but the quota stays small.                               *)

let table1_kernel () =
  let p = Params.battery_two_well () in
  Kibam.lifetime p
    (Load_profile.square_wave ~frequency:1.0 ~on_load:Params.on_current_a)

let fig2_kernel () =
  let p = Params.battery_two_well () in
  Kibam.trace p
    (Load_profile.square_wave ~frequency:0.001 ~on_load:Params.on_current_a)
    ~t_end:12000. ~sample_step:50.

let times_small = [| 10000.; 15000.; 20000. |]

let fig7_kernel () =
  Lifetime.cdf ~delta:100. ~times:times_small
    (Params.onoff_kibamrm ~frequency:1.0 (Params.battery_single_well ()))

let fig8_kernel () =
  Lifetime.cdf ~delta:100. ~times:times_small
    (Params.onoff_kibamrm ~frequency:1.0 (Params.battery_two_well ()))

let fig9_kernel () =
  Discretized.build ~delta:25.
    (Params.onoff_kibamrm ~frequency:1.0 (Params.battery_two_well ()))

let phone_times_small = [| 10.; 20.; 30. |]

let fig10_kernel () =
  Lifetime.cdf ~delta:25. ~times:phone_times_small
    (Params.simple_kibamrm (Params.battery_phone_two_well ()))

let fig11_kernel () =
  Lifetime.cdf ~delta:10. ~times:phone_times_small
    (Params.burst_kibamrm (Params.battery_phone_two_well ()))

let simulation_kernel =
  let model =
    Params.onoff_kibamrm ~frequency:1.0 (Params.battery_two_well ())
  in
  let sim = Batlife_sim.Trajectory.prepare model in
  fun () ->
    Batlife_sim.Trajectory.run sim (Batlife_numerics.Rng.create ~seed:42L ())

(* Micro / subsystem kernels beyond the paper's experiments. *)

let occupation_kernel =
  let workload = Params.onoff_model ~frequency:1.0 () in
  let m =
    Batlife_mrm.Mrm.create
      ~generator:workload.Batlife_workload.Model.generator
      ~rewards:
        (Array.init 2 (Batlife_workload.Model.current workload))
      ~alpha:workload.Batlife_workload.Model.initial
  in
  fun () ->
    Batlife_mrm.Occupation.two_valued_cdf m
      ~queries:[| (15000., Params.capacity_as) |]

let poisson_kernel () = Batlife_numerics.Poisson.weights 40000.

let vecmat_kernel =
  let d =
    Discretized.build ~delta:50.
      (Params.onoff_kibamrm ~frequency:1.0 (Params.battery_two_well ()))
  in
  let q = Batlife_ctmc.Generator.matrix d.Discretized.generator in
  let n = Discretized.n_states d in
  let src = Array.make n (1. /. float_of_int n) in
  let dst = Array.make n 0. in
  fun () -> Batlife_numerics.Sparse.vecmat_acc ~src q ~scale:1. ~dst

let scheduler_kernel () =
  Batlife_scheduling.Scheduler.run ~slot:60.
    ~policy:Batlife_scheduling.Policy.Round_robin
    ~battery:(Params.battery_two_well ()) ~n:2
    (Load_profile.constant Params.on_current_a)

let rakhmatov_kernel =
  let p = Batlife_battery.Rakhmatov.params ~alpha:40000. 0.2 in
  fun () -> Batlife_battery.Rakhmatov.lifetime_constant p ~load:100.

(* ------------------------------------------------------------------ *)
(* Engine kernels: the same query set (lifetime CDF on a shared grid
   plus all four per-time measures) answered once with a fresh
   single-query session per call — the cost profile of the removed
   per-time helpers — and once through a shared session.              *)

module Transient = Batlife_ctmc.Transient
module Telemetry = Batlife_numerics.Telemetry

let engine_times = [| 5.; 10.; 15.; 20.; 25. |]
let engine_time = 20.

let engine_discretized =
  lazy
    (Discretized.build ~delta:10.
       (Params.simple_kibamrm (Params.battery_phone_two_well ())))

(* The per-call baseline: every query pays its own session, hence its
   own sweep (and its own kernel build). *)
module Per_call_baseline = struct
  let one d f =
    let s = Discretized.Session.create d in
    Discretized.Session.get (f s)

  let queries d =
    let open Discretized.Session in
    let cdf = one d (fun s -> empty_probability s ~times:engine_times) in
    let marginal =
      one d (fun s -> available_charge_marginal s ~time:engine_time)
    in
    let modes = one d (fun s -> mode_marginal s ~time:engine_time) in
    let expected =
      one d (fun s -> expected_available_charge s ~time:engine_time)
    in
    let joint =
      one d (fun s ->
          joint_probability s ~time:engine_time ~mode:0 ~min_charge:250.)
    in
    (cdf, marginal, modes, expected, joint)
end

let session_queries d =
  let open Discretized.Session in
  let s = create d in
  let cdf = empty_probability s ~times:engine_times in
  let marginal = available_charge_marginal s ~time:engine_time in
  let modes = mode_marginal s ~time:engine_time in
  let expected = expected_available_charge s ~time:engine_time in
  let joint =
    joint_probability s ~time:engine_time ~mode:0 ~min_charge:250.
  in
  ignore (run s : Transient.stats);
  (get cdf, get marginal, get modes, get expected, get joint)

let engine_per_call_kernel () =
  Per_call_baseline.queries (Lazy.force engine_discretized)

let engine_session_kernel () = session_queries (Lazy.force engine_discretized)

(* Sweep/product accounting of the two paths, written as a committed
   JSON snapshot (BENCH_engine.json) so CI can diff the counts. *)
let c_sweeps = Telemetry.counter "transient.sweeps"
let c_products = Telemetry.counter "transient.products"

let engine_report path =
  let d = Lazy.force engine_discretized in
  let count f =
    Telemetry.reset_counter c_sweeps;
    Telemetry.reset_counter c_products;
    ignore (f d);
    (Telemetry.value c_sweeps, Telemetry.value c_products)
  in
  let per_call_sweeps, per_call_products = count Per_call_baseline.queries in
  let session_sweeps, session_products = count session_queries in
  let ratio f a b = if b = 0 then Float.nan else f a /. f b in
  let product_ratio =
    ratio float_of_int per_call_products session_products
  in
  Printf.printf
    "=== Engine sweep accounting (CDF on %d times + 4 per-time measures) ===\n"
    (Array.length engine_times);
  Printf.printf "  per-call baseline: %d sweeps, %d vector-matrix products\n"
    per_call_sweeps per_call_products;
  Printf.printf "  batched session:   %d sweeps, %d vector-matrix products\n"
    session_sweeps session_products;
  Printf.printf "  product reduction: %.2fx\n" product_ratio;
  Batlife_numerics.Atomic_io.with_out ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "benchmark": "engine sweep accounting",
  "model": "simple workload, two-well phone battery, delta = 10",
  "queries": {
    "cdf_times": %d,
    "per_time_measures": 4
  },
  "per_call": { "sweeps": %d, "products": %d },
  "session": { "sweeps": %d, "products": %d },
  "product_ratio": %.4f,
  "sweep_ratio": %.4f
}
|}
    (Array.length engine_times) per_call_sweeps per_call_products
    session_sweeps session_products product_ratio
    (ratio float_of_int per_call_sweeps session_sweeps));
  Printf.printf "  wrote %s\n" path

(* Wall-clock seconds of [f ()], with its result. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (Unix.gettimeofday () -. t0, y)

(* ------------------------------------------------------------------ *)
(* Adaptive-support kernel accounting: the fig-7 and fig-2 style
   sweeps at Delta = 10, each solved once with the exact full-support
   oracle and once with the adaptive window, counting vector-matrix
   products and touched nonzeros through the Telemetry work counters.
   The JSON snapshot (committed as BENCH_kernel.json, diffed by CI)
   contains only deterministic work counts and the adaptive-vs-oracle
   curve deviation -- never wall clocks -- so the file is identical on
   any machine and any core count.  Self-verifying: exits nonzero if
   the touched-nnz reduction falls below 3x on any model or the
   deviation exceeds the documented skipped-mass bound
   (accuracy / 2). *)

let c_touched = Telemetry.counter "transient.touched_nnz"

type kernel_row = {
  kr_key : string;
  kr_label : string;
  kr_times : float array;
  kr_states : int;
  kr_nnz : int;
  kr_oracle_products : int;
  kr_oracle_touched : int;
  kr_adaptive_products : int;
  kr_adaptive_touched : int;
  kr_reduction : float;
  kr_deviation : float;
}

let kernel_report path =
  let delta = 10. in
  let accuracy =
    Batlife_ctmc.Solver_opts.default.Batlife_ctmc.Solver_opts.accuracy
  in
  let bound = accuracy /. 2. in
  (* The sweep audits its cumulative skipped mass <= bound exactly; the
     measured CDF deviation vs the oracle additionally carries float
     reordering noise (the adaptive kernel sums the same products in a
     different association), so the gate allows a hair of headroom. *)
  let gate = bound +. 1e-14 in
  (* Each sweep's time grid brackets that model's death region (the
     two-well grid runs from the onset of failures to the median
     lifetime): the window fraction grows like the square root of the
     step count, so the grid also fixes how much support the adaptive
     kernel can skip. *)
  let models =
    [
      ( "fig7",
        "fig7 on/off single-well",
        [| 10000.; 15000.; 20000. |],
        Params.onoff_kibamrm ~frequency:1.0 (Params.battery_single_well ()) );
      ( "fig2",
        "fig2 on/off two-well",
        [| 8000.; 10000.; 12000. |],
        Params.onoff_kibamrm ~frequency:1.0 (Params.battery_two_well ()) );
    ]
  in
  Printf.printf "=== Adaptive-support kernel (delta = %g) ===\n" delta;
  let rows =
    List.map
      (fun (key, label, times, model) ->
        let d = Discretized.build ~delta model in
        let solve opts =
          Telemetry.reset_counter c_products;
          Telemetry.reset_counter c_touched;
          let t, curve =
            wall (fun () -> Lifetime.cdf_discretized ~opts ~delta d ~times)
          in
          (t, curve, Telemetry.value c_products, Telemetry.value c_touched)
        in
        let o_t, o_curve, o_products, o_touched =
          solve (Batlife_ctmc.Solver_opts.make ~adaptive_support:false ())
        in
        let a_t, a_curve, a_products, a_touched =
          solve (Batlife_ctmc.Solver_opts.make ())
        in
        let deviation = ref 0. in
        Array.iteri
          (fun i p ->
            let dev = Float.abs (p -. a_curve.Lifetime.probabilities.(i)) in
            if dev > !deviation then deviation := dev)
          o_curve.Lifetime.probabilities;
        let reduction = float_of_int o_touched /. float_of_int a_touched in
        Printf.printf "  %-24s %6d states, %8d nnz\n" label
          o_curve.Lifetime.states o_curve.Lifetime.nnz;
        Printf.printf
          "    oracle:   %5d products, %12d nnz touched, %9.3f ms\n"
          o_products o_touched (o_t *. 1e3);
        Printf.printf
          "    adaptive: %5d products, %12d nnz touched, %9.3f ms  \
           (%.2fx fewer nnz, %.2fx wall)\n"
          a_products a_touched (a_t *. 1e3) reduction (o_t /. a_t);
        Printf.printf "    max CDF deviation: %.3e  (bound %.3e)\n" !deviation
          bound;
        {
          kr_key = key;
          kr_label = label;
          kr_times = times;
          kr_states = o_curve.Lifetime.states;
          kr_nnz = o_curve.Lifetime.nnz;
          kr_oracle_products = o_products;
          kr_oracle_touched = o_touched;
          kr_adaptive_products = a_products;
          kr_adaptive_touched = a_touched;
          kr_reduction = reduction;
          kr_deviation = !deviation;
        })
      models
  in
  let min_reduction =
    List.fold_left (fun acc r -> Float.min acc r.kr_reduction) infinity rows
  in
  let max_deviation =
    List.fold_left (fun acc r -> Float.max acc r.kr_deviation) 0. rows
  in
  Printf.printf "  min touched-nnz reduction: %.2fx, max deviation %.3e\n"
    min_reduction max_deviation;
  if min_reduction < 3. || max_deviation > gate then begin
    prerr_endline
      "kernel report: reduction below 3x or deviation beyond the \
       skipped-mass bound (adaptive kernel bug)";
    exit 1
  end;
  Batlife_numerics.Atomic_io.with_out ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "benchmark": "adaptive-support kernel accounting",
  "delta": %g,
  "accuracy": %.3e,
  "deviation_bound": %.3e,
  "models": [
%s
  ],
  "summary": { "min_reduction": %.4f, "max_deviation": %.3e }
}
|}
    delta accuracy bound
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              {|    { "key": "%s", "model": "%s", "times": [%s],
      "states": %d, "nnz": %d,
      "oracle": { "products": %d, "touched_nnz": %d },
      "adaptive": { "products": %d, "touched_nnz": %d },
      "touched_nnz_reduction": %.4f, "max_cdf_deviation": %.3e }|}
              r.kr_key r.kr_label
              (String.concat ", "
                 (Array.to_list (Array.map (Printf.sprintf "%g") r.kr_times)))
              r.kr_states r.kr_nnz r.kr_oracle_products
              r.kr_oracle_touched r.kr_adaptive_products r.kr_adaptive_touched
              r.kr_reduction r.kr_deviation)
          rows))
    min_reduction max_deviation);
  Printf.printf "  wrote %s\n" path

let timing_tests =
  Test.make_grouped ~name:"batlife"
    [
      Test.make ~name:"table1: analytic KiBaM square-wave lifetime"
        (Staged.stage table1_kernel);
      Test.make ~name:"fig2: KiBaM trace (12000 s)" (Staged.stage fig2_kernel);
      Test.make ~name:"fig7: KiBaMRM on/off c=1 (Delta=100)"
        (Staged.stage fig7_kernel);
      Test.make ~name:"fig8: KiBaMRM on/off c=0.625 (Delta=100)"
        (Staged.stage fig8_kernel);
      Test.make ~name:"fig9: Q* construction (Delta=25)"
        (Staged.stage fig9_kernel);
      Test.make ~name:"fig10: KiBaMRM simple model (Delta=25)"
        (Staged.stage fig10_kernel);
      Test.make ~name:"fig11: KiBaMRM burst model (Delta=10)"
        (Staged.stage fig11_kernel);
      Test.make ~name:"simulation: one on/off replication"
        (Staged.stage simulation_kernel);
      Test.make ~name:"micro: exact occupation-time query (qt~30k)"
        (Staged.stage occupation_kernel);
      Test.make ~name:"micro: Poisson weights (lambda=4e4)"
        (Staged.stage poisson_kernel);
      Test.make ~name:"micro: sparse vecmat (fig8 Delta=50, 30k nnz)"
        (Staged.stage vecmat_kernel);
      Test.make ~name:"scheduling: 2-cell round robin to depletion"
        (Staged.stage scheduler_kernel);
      Test.make ~name:"battery: Rakhmatov-Vrudhula lifetime"
        (Staged.stage rakhmatov_kernel);
      Test.make ~name:"engine: per-call baseline (5 sweeps)"
        (Staged.stage engine_per_call_kernel);
      Test.make ~name:"engine: batched session (1 sweep)"
        (Staged.stage engine_session_kernel);
    ]

let run_timing ~quota =
  print_newline ();
  print_endline "=== Timing (Bechamel, monotonic clock) ===";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] timing_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> e
        | Some _ | None -> Float.nan
      in
      rows := (name, estimate) :: !rows)
    results;
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare a b) !rows in
  let pretty ns =
    if Float.is_nan ns then "n/a"
    else if ns >= 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
    else Printf.sprintf "%8.0f ns" ns
  in
  List.iter
    (fun (name, estimate) ->
      Printf.printf "  %-52s %s/run\n" name (pretty estimate))
    rows

(* ------------------------------------------------------------------ *)

type mode = Both | Repro_only | Timing_only

let () =
  let options = ref Runner.default_options in
  let mode = ref Both in
  let quota = ref 0.5 in
  let ids = ref [] in
  let engine_json = ref None in
  let kernel_json = ref None in
  let chaos_json = ref None in
  let chaos_plans = ref 60 in
  let chaos_seed = ref 2007L in
  let serve_chaos_json = ref None in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        options := { !options with Runner.full = true };
        parse rest
    | "--engine-report" :: path :: rest ->
        engine_json := Some path;
        parse rest
    | "--kernel-report" :: path :: rest ->
        kernel_json := Some path;
        parse rest
    | "--chaos-report" :: path :: rest ->
        chaos_json := Some path;
        parse rest
    | "--serve-chaos-report" :: path :: rest ->
        serve_chaos_json := Some path;
        parse rest
    | "--chaos-plans" :: n :: rest ->
        chaos_plans := int_of_string n;
        parse rest
    | "--chaos-seed" :: s :: rest ->
        chaos_seed := Int64.of_string s;
        parse rest
    | "--runs" :: n :: rest ->
        options := { !options with Runner.runs = int_of_string n };
        parse rest
    | "--out-dir" :: d :: rest ->
        options := { !options with Runner.out_dir = d };
        parse rest
    | "--repro-only" :: rest ->
        mode := Repro_only;
        parse rest
    | "--timing-only" :: rest ->
        mode := Timing_only;
        parse rest
    | "--quota" :: s :: rest ->
        quota := float_of_string s;
        parse rest
    | id :: rest ->
        ids := id :: !ids;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let options = !options in
  (* --kernel-report also runs alone: it reads the process-wide work
     counters, which any interleaved solve would pollute. *)
  (match !kernel_json with
  | Some path ->
      kernel_report path;
      exit 0
  | None -> ());
  (* --chaos-report runs alone too: it arms process-wide injection
     sites, which must never overlap the reproduction passes. *)
  (match !chaos_json with
  | Some path ->
      Chaos.report ~plans:!chaos_plans ~seed:!chaos_seed ~path;
      exit 0
  | None -> ());
  (* --serve-chaos-report runs alone: it arms the server.* injection
     sites and owns the process's signal disposition. *)
  (match !serve_chaos_json with
  | Some path ->
      Serve_chaos.report ~path;
      exit 0
  | None -> ());
  if !mode <> Timing_only then begin
    print_endline
      "batlife reproduction harness -- Cloth, Jongerden, Haverkort:";
    print_endline "\"Computing Battery Lifetime Distributions\" (DSN 2007)";
    match List.rev !ids with
    | [] -> Runner.run_all ~options ()
    | ids ->
        List.iter
          (fun id ->
            match Runner.run_one ~options id with
            | Ok () -> ()
            | Error msg ->
                prerr_endline msg;
                exit 2)
          ids
  end;
  (match !engine_json with
  | Some path -> engine_report path
  | None -> ());
  if !mode <> Repro_only then run_timing ~quota:!quota
