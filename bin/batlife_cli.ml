(* batlife: command-line front end.

   Subcommands:
     kibam       analytic KiBaM lifetime under constant / square-wave load
     lifetime    lifetime CDF of a workload model via the KiBaMRM algorithm
     simulate    Monte-Carlo lifetime estimation
     experiment  reproduce the paper's tables and figures *)

open Cmdliner
open Batlife_battery
open Batlife_workload
open Batlife_core
open Batlife_sim
open Batlife_output
module Diag = Batlife_numerics.Diag
module Validate = Batlife_robust.Validate
module Solver_opts = Batlife_ctmc.Solver_opts
module Progress = Batlife_numerics.Progress

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)

let capacity_arg =
  Arg.(
    value
    & opt float 7200.
    & info [ "capacity"; "C" ] ~docv:"CHARGE"
        ~doc:"Battery capacity (charge units, e.g. As or mAh).")

let c_arg =
  Arg.(
    value
    & opt float 0.625
    & info [ "c"; "available-fraction" ] ~docv:"FRACTION"
        ~doc:"Available-charge fraction c in (0,1].")

let k_arg =
  Arg.(
    value
    & opt float 4.5e-5
    & info [ "k"; "diffusion" ] ~docv:"RATE"
        ~doc:"KiBaM diffusion constant k.")

let strictness_arg =
  Arg.(
    value
    & vflag `Strict
        [
          ( `Strict,
            info [ "strict" ]
              ~doc:
                "Fail on pedantic model findings as well as hard errors \
                 (default)." );
          ( `Lenient,
            info [ "lenient" ]
              ~doc:"Downgrade pedantic model findings to warnings." );
        ])

let battery_term =
  let make capacity c k strictness =
    Validate.run ~what:"KiBaM parameters"
      (Validate.kibam ~capacity ~c ~k ());
    let pedantic =
      Validate.kibam_pedantic ~subject:"pedantic finding" ~capacity ~c ~k ()
    in
    (match (strictness, pedantic) with
    | _, [] | `Lenient, _ ->
        List.iter
          (fun v ->
            Printf.eprintf "batlife: warning: %s\n" (Validate.message v))
          pedantic
    | `Strict, vs ->
        raise
          (Diag.Error
             (Diag.Invalid_model
                {
                  what = "KiBaM parameters";
                  violations =
                    Validate.messages vs
                    @ [ "pass --lenient to downgrade pedantic findings to \
                         warnings" ];
                })));
    Kibam.params ~capacity ~c ~k
  in
  Term.(const make $ capacity_arg $ c_arg $ k_arg $ strictness_arg)

let model_arg =
  let models = [ ("simple", `Simple); ("burst", `Burst); ("onoff", `Onoff) ] in
  Arg.(
    value
    & opt (enum models) `Simple
    & info [ "model"; "m" ] ~docv:"MODEL"
        ~doc:"Workload model: $(b,simple), $(b,burst) or $(b,onoff).")

let frequency_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "frequency"; "f" ] ~docv:"HZ"
        ~doc:"Toggle frequency of the on/off model (per time unit).")

let on_current_arg =
  Arg.(
    value
    & opt float 0.96
    & info [ "on-current" ] ~docv:"I"
        ~doc:"Current drawn in the on state of the on/off model.")

let erlang_k_arg =
  Arg.(
    value
    & opt int 1
    & info [ "erlang-k" ] ~docv:"K"
        ~doc:"Erlang phases of the on/off sojourns (K=1: exponential).")

let workload_of = function
  | `Simple -> Simple.model ()
  | `Burst -> Burst.model ()
  | `Onoff -> assert false

let workload_term =
  let make model frequency on_current erlang_k =
    match model with
    | `Onoff -> Onoff.model ~frequency ~k:erlang_k ~on_current ()
    | other -> workload_of other
  in
  Term.(
    const make $ model_arg $ frequency_arg $ on_current_arg $ erlang_k_arg)

let times_term =
  let make t_max points =
    if t_max <= 0. then `Error (false, "horizon must be positive")
    else if points < 2 then `Error (false, "need at least 2 points")
    else
      `Ok
        (Array.init points (fun i ->
             t_max /. float_of_int points *. float_of_int (i + 1)))
  in
  let t_max =
    Arg.(
      value
      & opt float 30.
      & info [ "horizon"; "T" ] ~docv:"TIME"
          ~doc:"Largest time point of the CDF grid.")
  and points =
    Arg.(
      value
      & opt int 60
      & info [ "points" ] ~docv:"N" ~doc:"Number of grid points.")
  in
  Term.(ret (const make $ t_max $ points))

let plot_arg =
  Arg.(value & flag & info [ "plot" ] ~doc:"Render an ASCII plot.")

(* Numerical solver options, shared by every CTMC-backed subcommand
   and collapsed into one Solver_opts.t value. *)
let solver_opts_term =
  let make accuracy unif_rate convergence_tol solver_tol jobs =
    (* --jobs also sets the process-wide default so code paths that
       build their own Solver_opts (sessions, experiments) follow it.
       Requests beyond the core count are clamped (Pool.clamp_jobs
       records a Diag note): oversubscribing domains is a measured
       slowdown, never a speedup. *)
    let jobs =
      match jobs with
      | Some j when j < 1 ->
          Diag.invalid_model ~what:"--jobs"
            [ Printf.sprintf "need at least 1 worker domain, got %d" j ]
      | Some j ->
          let j = Batlife_numerics.Pool.clamp_jobs j in
          Batlife_numerics.Pool.set_default_jobs j;
          Some j
      | None -> None
    in
    Solver_opts.make ~accuracy ?unif_rate ~convergence_tol ?linear_tol:solver_tol
      ?jobs ()
  in
  let accuracy =
    Arg.(
      value
      & opt float Solver_opts.default.Solver_opts.accuracy
      & info [ "accuracy" ] ~docv:"EPS"
          ~doc:"Poisson truncation accuracy of the uniformisation sweeps.")
  and unif_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "unif-rate" ] ~docv:"Q"
          ~doc:
            "Uniformisation rate override (must be at least the largest \
             exit rate; default: the generator's own rate).")
  and convergence_tol =
    Arg.(
      value
      & opt float Solver_opts.default.Solver_opts.convergence_tol
      & info [ "convergence-tol" ] ~docv:"EPS"
          ~doc:
            "Early-stationarity threshold of the sweeps (L-infinity \
             distance of successive iterates).")
  and solver_tol =
    Arg.(
      value
      & opt (some float) None
      & info [ "solver-tol" ] ~docv:"EPS"
          ~doc:
            "Residual tolerance of the linear (Gauss-Seidel) solves \
             behind exact means and unbounded reachability (default: \
             per-solver).")
  and jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~env:(Cmd.Env.info "BATLIFE_JOBS")
          ~doc:
            "Worker domains of the parallel uniformisation kernel and the \
             experiment fan-out (default: the machine's recommended domain \
             count). Results are bitwise identical for every value; 1 \
             forces the sequential path.")
  in
  Term.(
    const make $ accuracy $ unif_rate $ convergence_tol $ solver_tol $ jobs)

(* Resilience flags, shared by the solver-backed subcommands: wall
   clock and work budgets (installed as the process-wide ambient
   Budget), retries, and checkpoint/resume.  The SIGINT handler points
   at the same budget: the first Ctrl-C requests cooperative
   cancellation — loops finish their current step, flush checkpoints
   and exit through the structured Cancelled error (code 8) — and a
   second Ctrl-C aborts hard with the conventional 130. *)
module Budget = Batlife_numerics.Budget

type resilience = {
  checkpoint : string option;
  checkpoint_interval : int;
  resume : string option;
  max_retries : int;
}

let install_sigint budget =
  let interrupted = ref false in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if !interrupted then Stdlib.exit 130
         else begin
           interrupted := true;
           Budget.cancel budget;
           prerr_endline
             "batlife: interrupt: finishing the current step and flushing \
              checkpoints (Ctrl-C again aborts hard)"
         end))

let resilience_term =
  let make deadline max_sweeps max_products cancel_after max_retries
      checkpoint checkpoint_interval resume =
    if checkpoint_interval < 1 then
      Diag.invalid_model ~what:"--checkpoint-interval"
        [
          Printf.sprintf "need a positive step count, got %d"
            checkpoint_interval;
        ];
    let budget =
      Budget.create ?wall_s:deadline ?max_sweeps ?max_products ?cancel_after ()
    in
    Budget.set_ambient budget;
    install_sigint budget;
    Batlife_numerics.Pool.set_section_retries max_retries;
    { checkpoint; checkpoint_interval; resume; max_retries }
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget.  When it expires the solvers stop at the \
             next step boundary, flush any pending checkpoint, and the \
             command exits with the structured budget-exhausted error \
             (code 7).")
  and max_sweeps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sweeps" ] ~docv:"N"
          ~doc:"Budget of uniformisation power sweeps.")
  and max_products =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-products" ] ~docv:"N"
          ~doc:
            "Budget of units of work: vector-matrix products, solver \
             iterations, ODE steps, Monte-Carlo replications.")
  and cancel_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel-after" ] ~docv:"N"
          ~doc:
            "Testing knob: trip cooperative cancellation (as if Ctrl-C was \
             pressed) after $(docv) budget polls — a deterministic \
             interrupted-mid-run for the test suite (exit code 8).")
  and max_retries =
    Arg.(
      value
      & opt int 0
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Retries (with exponential backoff) for a failing parallel \
             experiment task, and re-executions of a kernel section whose \
             worker crashed mid-sweep (pool supervision).  Budget \
             exhaustion and cancellation are never retried.")
  and checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically snapshot progress to $(docv) (written \
             atomically).  For $(b,lifetime): the uniformisation sweep \
             state; for $(b,simulate): the replication batch; for \
             $(b,experiment): the per-figure completion map.")
  and checkpoint_interval =
    Arg.(
      value
      & opt int 100
      & info [ "checkpoint-interval" ] ~docv:"STEPS"
          ~doc:
            "Snapshot every $(docv) completed steps (sweep steps or \
             replications).")
  and resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by $(b,--checkpoint).  The \
             resumed computation is bitwise identical to an uninterrupted \
             one; a checkpoint from a different model or grid is \
             rejected.")
  in
  Term.(
    const make $ deadline $ max_sweeps $ max_products $ cancel_after
    $ max_retries $ checkpoint $ checkpoint_interval $ resume)

(* Observability flags, shared by the solver-backed subcommands.  The
   term switches the process-wide Telemetry collector on and records
   where the reports should go; the reports themselves are emitted
   once, after Cmd.eval returns (so they cover the whole run,
   including time spent after the subcommand's own output). *)
module Telemetry = Batlife_numerics.Telemetry

type telemetry_config = {
  mutable profile : bool;
  mutable metrics_out : string option;
  mutable trace_out : string option;
}

let telemetry_config =
  { profile = false; metrics_out = None; trace_out = None }

let telemetry_term =
  let make profile metrics_out trace_out =
    telemetry_config.profile <- profile;
    telemetry_config.metrics_out <- metrics_out;
    telemetry_config.trace_out <- trace_out;
    if profile || metrics_out <> None || trace_out <> None then
      Telemetry.enable ()
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Record telemetry and print a per-phase summary table (spans, \
             counters, histograms) on stderr when the command exits.")
  and metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Record telemetry and write a JSON metrics dump (counters, \
             gauges, histograms, span roll-up) to $(docv) on exit.")
  and trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record telemetry and write the spans to $(docv) in Chrome \
             trace_event JSON, loadable in about:tracing or Perfetto.")
  in
  Term.(const make $ profile $ metrics_out $ trace_out)

let report_telemetry () =
  if Telemetry.enabled () then begin
    let snap = Telemetry.snapshot () in
    (match telemetry_config.metrics_out with
    | Some path ->
        Telemetry.write_metrics ~path snap;
        Printf.eprintf "batlife: wrote metrics to %s\n" path
    | None -> ());
    (match telemetry_config.trace_out with
    | Some path ->
        Telemetry.write_trace ~path snap;
        Printf.eprintf "batlife: wrote trace to %s\n" path
    | None -> ());
    if telemetry_config.profile then Metrics_report.print snap
  end

(* ------------------------------------------------------------------ *)
(* kibam                                                               *)

let kibam_cmd =
  let run battery load frequency duty =
    let profile =
      match frequency with
      | None -> Load_profile.constant load
      | Some f ->
          if duty = 0.5 then Load_profile.square_wave ~frequency:f ~on_load:load
          else
            Load_profile.duty_cycle_wave ~period:(1. /. f) ~duty ~on_load:load
    in
    (match Kibam.lifetime battery profile with
    | Some t ->
        Printf.printf "lifetime: %.6g time units (%.2f minutes if seconds)\n" t
          (Units.seconds_to_minutes t)
    | None -> print_endline "battery does not empty within the horizon");
    Printf.printf "average load: %.6g\n" (Load_profile.average_load profile);
    Printf.printf "ideal-battery lifetime at average load: %.6g\n"
      (Ideal.lifetime ~capacity:battery.Kibam.capacity
         ~load:(Load_profile.average_load profile))
  in
  let load =
    Arg.(
      value
      & opt float 0.96
      & info [ "load"; "I" ] ~docv:"CURRENT" ~doc:"Discharge current.")
  and frequency =
    Arg.(
      value
      & opt (some float) None
      & info [ "square-wave" ] ~docv:"HZ"
          ~doc:"Use a square wave of this frequency instead of a constant load.")
  and duty =
    Arg.(
      value
      & opt float 0.5
      & info [ "duty" ] ~docv:"FRACTION" ~doc:"On fraction of the square wave.")
  in
  Cmd.v
    (Cmd.info "kibam" ~doc:"Analytic KiBaM lifetime under a deterministic load")
    Term.(const run $ battery_term $ load $ frequency $ duty)

(* ------------------------------------------------------------------ *)
(* lifetime                                                            *)

let print_cdf ~plot name times probabilities =
  Array.iteri
    (fun i t -> Printf.printf "%g\t%.6f\n" t probabilities.(i))
    times;
  if plot then
    Ascii_plot.print ~x_label:"t" ~y_label:"Pr[empty]"
      [ Series.create ~name ~xs:times ~ys:probabilities ]

let lifetime_cmd =
  let run battery workload times delta opts resil plot () =
    let opts = { opts with Solver_opts.max_retries = resil.max_retries } in
    let model = Kibamrm.create ~workload ~battery in
    if resil.checkpoint <> None || resil.resume <> None then begin
      (* The checkpointable sweep: same resolved rate and windows as
         the session path, so the curve is bitwise identical. *)
      let checkpoint =
        Option.map (fun p -> (p, resil.checkpoint_interval)) resil.checkpoint
      in
      let curve =
        Lifetime.cdf_resumable ~opts ?checkpoint ?resume:resil.resume ~delta
          ~times model
      in
      Printf.eprintf
        "expanded CTMC: %d states, %d nonzeros, %d iterations (q = %g)\n"
        curve.Lifetime.states curve.Lifetime.nnz curve.Lifetime.iterations
        curve.Lifetime.uniformisation_rate;
      print_cdf ~plot "KiBaMRM" times curve.Lifetime.probabilities;
      Printf.eprintf "mean lifetime (truncated): %.6g\n" (Lifetime.mean curve)
    end
    else begin
      (* One expanded model serves the CDF sweep and the first-passage
         mean; the CDF goes through the session engine. *)
      let d = Discretized.build ~delta model in
      let curve = Lifetime.cdf_discretized ~opts ~delta d ~times in
      Printf.eprintf
        "expanded CTMC: %d states, %d nonzeros, %d iterations (q = %g)\n"
        curve.Lifetime.states curve.Lifetime.nnz curve.Lifetime.iterations
        curve.Lifetime.uniformisation_rate;
      print_cdf ~plot "KiBaMRM" times curve.Lifetime.probabilities;
      Printf.eprintf "mean lifetime (truncated): %.6g\n" (Lifetime.mean curve);
      Printf.eprintf "mean lifetime (exact, first passage): %.6g\n"
        (Discretized.expected_lifetime ~opts d)
    end
  in
  let delta =
    Arg.(
      value
      & opt float 5.
      & info [ "delta" ] ~docv:"STEP" ~doc:"Charge discretisation step.")
  in
  Cmd.v
    (Cmd.info "lifetime"
       ~doc:"Battery lifetime CDF via the Markovian approximation")
    Term.(
      const run $ battery_term $ workload_term $ times_term $ delta
      $ solver_opts_term $ resilience_term $ plot_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let run battery workload times runs seed resil plot =
    let model = Kibamrm.create ~workload ~battery in
    let seed64 = Int64.of_int seed in
    let resume =
      match resil.resume with
      | None -> None
      | Some path -> (
          (* Corrupt snapshot: quarantine and run the batch from
             replication 0 instead of aborting. *)
          match Checkpoint.load_for_resume ~path with
          | None -> None
          | Some (Checkpoint.Montecarlo m) ->
              if m.Checkpoint.mc_seed <> seed64 then
                Diag.invalid_model
                  ~what:("checkpoint " ^ path)
                  [
                    Printf.sprintf
                      "snapshot was taken with seed %Ld but this run uses %Ld"
                      m.Checkpoint.mc_seed seed64;
                  ];
              Some
                {
                  Montecarlo.mp_target = m.Checkpoint.mc_target;
                  mp_done = m.Checkpoint.mc_done;
                  mp_censored = m.Checkpoint.mc_censored;
                  mp_died = m.Checkpoint.mc_died;
                  mp_rng = m.Checkpoint.mc_rng;
                }
          | Some (Checkpoint.Cdf _ | Checkpoint.Experiments _) ->
              Diag.invalid_model ~what:("checkpoint " ^ path)
                [
                  "checkpoint holds a different computation kind, not a \
                   Monte-Carlo batch";
                ])
    in
    let progress =
      match resil.checkpoint with
      | None -> Progress.make ?resume ()
      | Some path ->
          let save (p : Montecarlo.progress) =
            Checkpoint.save ~path
              (Checkpoint.Montecarlo
                 {
                   Checkpoint.mc_seed = seed64;
                   mc_target = p.Montecarlo.mp_target;
                   mc_done = p.Montecarlo.mp_done;
                   mc_censored = p.Montecarlo.mp_censored;
                   mc_died = p.Montecarlo.mp_died;
                   mc_rng = p.Montecarlo.mp_rng;
                 })
          in
          Progress.make
            ~on_step:(Progress.every resil.checkpoint_interval save)
            ~on_interrupt:save ?resume ()
    in
    let est = Montecarlo.lifetime_cdf ~seed:seed64 ~runs ~progress model ~times in
    Printf.eprintf "replications: %d (censored: %d)\n" est.Montecarlo.runs
      est.Montecarlo.censored;
    print_cdf ~plot "simulation" times est.Montecarlo.cdf;
    if est.Montecarlo.censored = 0 && Array.length est.Montecarlo.samples > 0
    then begin
      let s = Stats.summarize est.Montecarlo.samples in
      Printf.eprintf "mean lifetime: %.6g (sd %.3g)\n" s.Stats.mean
        s.Stats.std_dev
    end
  in
  let runs =
    Arg.(
      value
      & opt int 1000
      & info [ "runs"; "n" ] ~docv:"N" ~doc:"Number of replications.")
  and seed =
    Arg.(
      value
      & opt int 195802
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (reproducible).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte-Carlo battery lifetime estimation")
    Term.(
      const run $ battery_term $ workload_term $ times_term $ runs $ seed
      $ resilience_term $ plot_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_cmd =
  let run battery path delta times opts plot () =
    let get_ok = function Ok v -> v | Error e -> raise (Diag.Error e) in
    let samples = get_ok (Trace.load_samples_result path) in
    let profile = get_ok (Trace.of_samples_result samples) in
    (* Deterministic replay. *)
    (match Kibam.lifetime battery profile with
    | Some t -> Printf.printf "trace replay: battery empty at %.6g\n" t
    | None ->
        print_endline "trace replay: battery survives the recorded trace");
    (* Statistical model + lifetime distribution. *)
    (match Trace.estimate_model samples with
        | exception Invalid_argument msg ->
            Printf.printf "no stochastic model estimated (%s)\n" msg
    | estimated ->
        Printf.printf "estimated %d-level workload model:\n"
          (Array.length estimated.Trace.levels);
        Array.iteri
          (fun i level ->
            Printf.printf "  level %d: current %g (occupancy %.3f)\n" i level
              estimated.Trace.occupancy.(i))
          estimated.Trace.levels;
        let model = Kibamrm.create ~workload:estimated.Trace.model ~battery in
        let curve = Lifetime.cdf ~opts ~delta ~times model in
        print_cdf ~plot "KiBaMRM (estimated model)" times
          curve.Lifetime.probabilities)
  in
  let path =
    Arg.(
      required
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Trace file with 'time,current' lines.")
  and delta =
    Arg.(
      value
      & opt float 5.
      & info [ "delta" ] ~docv:"STEP" ~doc:"Charge discretisation step.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a measured current trace and fit a workload model")
    Term.(
      const run $ battery_term $ path $ delta $ times_term $ solver_opts_term
      $ plot_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* pack                                                                *)

let pack_cmd =
  let open Batlife_scheduling in
  let run battery n load frequency slot =
    if n < 1 then `Error (false, "need at least one cell")
    else begin
      let profile =
        match frequency with
        | None -> Load_profile.constant load
        | Some f -> Load_profile.square_wave ~frequency:f ~on_load:load
      in
      let policies =
        [
          Policy.Sequential; Policy.Random 2024; Policy.Round_robin;
          Policy.Best_available;
        ]
      in
      let results =
        Scheduler.compare_policies ?slot ~policies ~battery ~n profile
      in
      Table.print
        ~header:[ "policy"; "lifetime"; "delivered"; "switches" ]
        (List.map
           (fun ((policy : Policy.t), (o : Scheduler.outcome)) ->
             [
               Policy.name policy;
               (match o.Scheduler.lifetime with
               | Some t -> Printf.sprintf "%.6g" t
               | None -> "survives");
               Printf.sprintf "%.6g" o.Scheduler.delivered;
               string_of_int o.Scheduler.switches;
             ])
           results);
      `Ok ()
    end
  in
  let n =
    Arg.(
      value & opt int 2
      & info [ "cells"; "n" ] ~docv:"N" ~doc:"Number of battery cells.")
  and load =
    Arg.(
      value
      & opt float 0.96
      & info [ "load"; "I" ] ~docv:"CURRENT" ~doc:"System load current.")
  and frequency =
    Arg.(
      value
      & opt (some float) None
      & info [ "square-wave" ] ~docv:"HZ"
          ~doc:"Square-wave load of this frequency instead of constant.")
  and slot =
    Arg.(
      value
      & opt (some float) None
      & info [ "slot" ] ~docv:"TIME"
          ~doc:"Scheduling decision slot (default: auto).")
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:"Compare battery-scheduling policies on a multi-cell pack")
    Term.(ret (const run $ battery_term $ n $ load $ frequency $ slot))

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let run ids out_dir runs full opts resil () =
    let open Batlife_experiments in
    let opts = { opts with Solver_opts.max_retries = resil.max_retries } in
    let options =
      {
        Runner.default_options with
        out_dir;
        runs;
        full;
        opts;
        checkpoint = resil.checkpoint;
      }
    in
    match ids with
    | [] ->
        Runner.run_all ~options ();
        `Ok ()
    | ids -> (
        match Runner.run_many ~options ids with
        | Ok () -> `Ok ()
        | Error msg -> `Error (false, msg))
  in
  let ids =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (table1, fig2, fig7..fig11); all if omitted.")
  and out_dir =
    Arg.(
      value
      & opt string "results"
      & info [ "out-dir"; "o" ] ~docv:"DIR" ~doc:"Artefact directory.")
  and runs =
    Arg.(
      value
      & opt int 1000
      & info [ "runs" ] ~docv:"N" ~doc:"Monte-Carlo replications.")
  and full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Include the expensive Delta=10,5 two-well refinements.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce the paper's tables and figures")
    Term.(
      ret
        (const run $ ids $ out_dir $ runs $ full $ solver_opts_term
       $ resilience_term $ telemetry_term))

(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run socket cache_capacity cache_max_bytes max_batch max_connections
      backlog queue drain_s max_frame_bytes read_idle_s write_timeout_s
      max_strikes jobs access_log slow_log slow_query_ms () =
    (match jobs with
    | Some j when j < 1 ->
        Diag.invalid_model ~what:"--jobs"
          [ Printf.sprintf "need at least 1 worker domain, got %d" j ]
    | Some j ->
        Batlife_numerics.Pool.set_default_jobs
          (Batlife_numerics.Pool.clamp_jobs j)
    | None -> ());
    if slow_query_ms < 0. then
      Diag.invalid_model ~what:"--slow-query-ms"
        [ Printf.sprintf "need a non-negative threshold, got %g" slow_query_ms ];
    let positive what v =
      if v <= 0 then
        Diag.invalid_model ~what
          [ Printf.sprintf "need a positive value, got %d" v ]
    and positive_f what v =
      if not (v > 0.) then
        Diag.invalid_model ~what
          [ Printf.sprintf "need a positive value, got %g" v ]
    in
    positive "--backlog" backlog;
    if queue < 0 then
      Diag.invalid_model ~what:"--queue"
        [ Printf.sprintf "need a non-negative capacity, got %d" queue ];
    positive "--max-frame-bytes" max_frame_bytes;
    positive "--max-strikes" max_strikes;
    Option.iter (positive "--cache-max-bytes") cache_max_bytes;
    positive_f "--drain-s" drain_s;
    positive_f "--read-idle-s" read_idle_s;
    positive_f "--write-timeout-s" write_timeout_s;
    let limits =
      {
        Batlife_service.Server.max_frame_bytes;
        read_idle_s;
        write_timeout_s;
        max_strikes;
        queue;
      }
    in
    let obs =
      Batlife_service.Obs.create ?access_log ?slow_log
        ~slow_threshold_s:(slow_query_ms /. 1000.) ()
    in
    let service =
      Batlife_service.Service.create ~cache_capacity ?cache_max_bytes ~obs ()
    in
    let drain = Batlife_service.Drain.create ~drain_s () in
    (* SIGTERM and the first Ctrl-C both request a graceful drain: stop
       accepting, finish (or deadline-cancel) in-flight batches, flush
       the log appenders, unlink the socket and exit 0.  A second
       Ctrl-C aborts hard with the conventional 130. *)
    let interrupted = ref false in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Batlife_service.Drain.request drain));
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           if !interrupted then Stdlib.exit 130
           else begin
             interrupted := true;
             Batlife_service.Drain.request drain;
             prerr_endline
               "batlife: serve: draining (finishing in-flight batches; \
                Ctrl-C again aborts hard)"
           end));
    Fun.protect
      ~finally:(fun () ->
        Batlife_service.Drain.stop drain;
        Batlife_service.Obs.close obs)
      (fun () ->
        match socket with
        | None ->
            Batlife_service.Server.serve_stdio ~limits ~drain ~max_batch
              service
        | Some path ->
            Batlife_service.Server.serve_unix ~limits ~drain ~max_batch
              ?max_connections ~backlog service ~path)
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of serving \
             stdin/stdout.")
  and cache_capacity =
    Arg.(
      value & opt int 32
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Models interned in the fingerprint session cache (LRU beyond \
             this).")
  and cache_max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Resident-byte budget for the session cache (estimated; LRU \
             eviction after each batch keeps the cache under it).  \
             Default: unbounded — only $(b,--cache-capacity) applies.")
  and max_batch =
    Arg.(
      value & opt int 64
      & info [ "max-batch" ] ~docv:"N"
          ~doc:
            "Upper bound on requests answered as one batch (same-model \
             requests in a batch share one sweep).")
  and backlog =
    Arg.(
      value & opt int 64
      & info [ "backlog" ] ~docv:"N"
          ~doc:"With $(b,--socket): the listen(2) backlog.")
  and queue =
    Arg.(
      value & opt int 128
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Pending-request queue capacity per connection.  Frames drained \
             beyond the batch in hand and this queue are shed with a \
             structured $(b,overloaded) error (code 9) carrying a \
             retry_after_s hint.")
  and drain_s =
    Arg.(
      value & opt float 5.
      & info [ "drain-s" ] ~docv:"SECONDS"
          ~doc:
            "Graceful-drain deadline.  On SIGTERM (or the first Ctrl-C) the \
             server stops accepting, finishes in-flight batches, and past \
             this deadline cancels them into structured Cancelled responses; \
             then flushes logs, unlinks the socket and exits 0.")
  and max_frame_bytes =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:
            "Per-connection frame-size guard: a request line longer than \
             this gets a structured error and the connection is dropped.")
  and read_idle_s =
    Arg.(
      value & opt float 300.
      & info [ "read-idle-s" ] ~docv:"SECONDS"
          ~doc:
            "Idle-read guard: drop a connection that sends nothing for this \
             long while the server is waiting for a frame.")
  and write_timeout_s =
    Arg.(
      value & opt float 30.
      & info [ "write-timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Write guard: drop a connection that will not accept a response \
             within this long (a stalled client cannot wedge the server).")
  and max_strikes =
    Arg.(
      value & opt int 5
      & info [ "max-strikes" ] ~docv:"N"
          ~doc:
            "Malformed-frame strike limit: after $(docv) unparseable frames \
             the connection is dropped (each still gets its structured \
             error response first).")
  and max_connections =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "With $(b,--socket): exit after serving $(docv) connections \
             (default: serve forever).")
  and jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~env:(Cmd.Env.info "BATLIFE_JOBS")
          ~doc:
            "Worker domains for fanning independent models out and for the \
             parallel sweep kernel.")
  and access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH"
          ~doc:
            "Append one JSONL line (schema batlife.access/1) per request: \
             request id, query kind, cache status, outcome, latency.")
  and slow_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"PATH"
          ~doc:
            "Append a JSONL entry (schema batlife.slow/1) for every request \
             slower than $(b,--slow-query-ms), with a per-phase span \
             breakdown (phases need $(b,--profile)).")
  and slow_query_ms =
    Arg.(
      value
      & opt float 1000.
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:"Slow-query threshold for $(b,--slow-log), milliseconds.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running lifetime-query service (line-delimited JSON, \
          batlife.query/1)")
    Term.(
      const run $ socket $ cache_capacity $ cache_max_bytes $ max_batch
      $ max_connections $ backlog $ queue $ drain_s $ max_frame_bytes
      $ read_idle_s $ write_timeout_s $ max_strikes $ jobs $ access_log
      $ slow_log $ slow_query_ms $ telemetry_term)

(* ------------------------------------------------------------------ *)

(* [batlife stats]: scrape a running [batlife serve --socket] daemon
   over the query protocol's admin kinds.  The output is the payload
   itself — the stats JSON, the Prometheus text, or the health JSON —
   so it pipes straight into jq or a node-exporter textfile. *)
let stats_cmd =
  let module Query = Batlife_service.Query in
  let module Json = Batlife_numerics.Json in
  let read_line_fd fd =
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
          let s = Bytes.sub_string chunk 0 n in
          (match String.index_opt s '\n' with
          | Some i ->
              Buffer.add_string buf (String.sub s 0 i);
              Buffer.contents buf
          | None ->
              Buffer.add_string buf s;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let io_error ~socket message =
    Diag.fail
      (Diag.Parse_error
         { source = socket; line = 0; field = None; message })
  in
  let run socket probe () =
    let payload =
      match probe with
      | "stats" -> Query.Server_stats
      | "prometheus" -> Query.Prometheus
      | "health" -> Query.Health
      | other ->
          Diag.invalid_model ~what:"stats"
            [
              Printf.sprintf
                "unknown probe %S (expected stats, prometheus or health)" other;
            ]
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> ()
        | exception Unix.Unix_error (err, _, _) ->
            io_error ~socket
              (Printf.sprintf "cannot connect: %s" (Unix.error_message err)));
        let req =
          Query.request_to_line
            { Query.id = "admin"; model = None; payload; deadline_s = None }
        in
        let b = Bytes.of_string req in
        let rec write_all off =
          if off < Bytes.length b then
            match Unix.write fd b off (Bytes.length b - off) with
            | n -> write_all (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
        in
        write_all 0;
        let line = read_line_fd fd in
        if line = "" then io_error ~socket "server closed without answering";
        match Query.response_of_line ~source:socket line with
        | Error e -> io_error ~socket e.Query.message
        | Ok { Query.result = Error e; _ } ->
            Printf.eprintf "batlife: error: %s\n" e.Query.message;
            exit e.Query.code
        | Ok { Query.result = Ok (Query.Service_stats { stats }); _ } ->
            print_endline (Json.encode stats)
        | Ok { Query.result = Ok (Query.Text { text; _ }); _ } ->
            print_string text
        | Ok { Query.result = Ok (Query.Health_report { status; uptime_s }); _ }
          ->
            print_endline
              (Json.encode
                 (Json.Obj
                    [
                      ("status", Json.Str status);
                      ("uptime_s", Json.of_float uptime_s);
                    ]));
            if status <> "ok" then exit 1
        | Ok _ -> io_error ~socket "unexpected result kind for an admin query")
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the running $(b,batlife serve).")
  and probe =
    Arg.(
      value
      & opt string "stats"
      & info [ "probe" ] ~docv:"KIND"
          ~doc:
            "What to fetch: $(b,stats) (batlife.stats/1 JSON snapshot), \
             $(b,prometheus) (text exposition) or $(b,health) (readiness \
             probe; exits nonzero unless the service answers ok).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Scrape a running batlife serve daemon (stats, Prometheus, health)")
    Term.(const run $ socket $ probe $ telemetry_term)

(* ------------------------------------------------------------------ *)

(* Surface any recorded fallback events (solver or ODE degradations)
   on stderr, so a run that silently took a slower-but-safer path says
   so. *)
let report_diagnostics () =
  List.iter
    (fun (e : Diag.event) ->
      if e.Diag.fallback then
        Printf.eprintf "batlife: note: %s%s: %s\n"
          (match e.Diag.ctx with
          | None -> ""
          | Some rid -> "[" ^ rid ^ "] ")
          e.Diag.origin e.Diag.detail)
    (Diag.events ())

let () =
  let doc = "battery lifetime distributions (Cloth et al., DSN 2007)" in
  (* The structured-error exit codes, documented once for the whole
     group; the README and DESIGN tables mirror this list and a cram
     test greps it out of --help. *)
  let exits =
    Cmd.Exit.info 3 ~doc:"a model or parameter set failed validation."
    :: Cmd.Exit.info 4 ~doc:"malformed external input (trace, checkpoint, query frame)."
    :: Cmd.Exit.info 5 ~doc:"an iterative method failed to converge."
    :: Cmd.Exit.info 6
         ~doc:"numerical breakdown (NaN/Inf contamination, mass loss)."
    :: Cmd.Exit.info 7 ~doc:"a wall-clock deadline or work budget ran out."
    :: Cmd.Exit.info 8
         ~doc:"cooperative cancellation was requested (first Ctrl-C)."
    :: Cmd.Exit.info 9
         ~doc:"the query service shed the request under overload (retryable)."
    :: Cmd.Exit.info 130
         ~doc:"hard interrupt (second Ctrl-C, immediate abort)."
    :: Cmd.Exit.defaults
  in
  let info = Cmd.info "batlife" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [
        kibam_cmd; lifetime_cmd; simulate_cmd; trace_cmd; pack_cmd;
        experiment_cmd; serve_cmd; stats_cmd;
      ]
  in
  (* [~catch:false] lets structured errors reach this handler instead
     of cmdliner's generic backtrace printer; each error class maps to
     a distinct exit code (3-8, see [Diag.exit_code]) — 7 for an
     exhausted budget/deadline, 8 for cooperative cancellation
     (Ctrl-C). *)
  let code =
    match Cmd.eval ~catch:false group with
    | code -> code
    | exception Diag.Error e ->
        Printf.eprintf "batlife: error: %s\n" (Diag.error_to_string e);
        Diag.exit_code e
  in
  report_diagnostics ();
  report_telemetry ();
  exit code
