open Batlife_numerics
open Batlife_ctmc

type curve = {
  times : float array;
  probabilities : float array;
  delta : float;
  states : int;
  nnz : int;
  iterations : int;
  uniformisation_rate : float;
}

(* The sweep's probabilities carry O(accuracy) floating noise which can
   break strict CDF monotonicity; clamp and monotonise (the absorbed
   mass is mathematically non-decreasing in t for sorted times).
   Violations beyond [monotonicity_tolerance] are not noise — a NaN, an
   out-of-range value or a genuine decrease means the sweep returned
   garbage, and the guard trips a structured diagnostic instead of
   silently smoothing it away. *)
let monotonicity_tolerance = 1e-6

let sanitize times probabilities =
  let order = Array.init (Array.length times) (fun i -> i) in
  Array.sort (fun a b -> Float.compare times.(a) times.(b)) order;
  let running = ref 0. in
  Array.iter
    (fun idx ->
      let raw = probabilities.(idx) in
      if Float.is_nan raw then
        Diag.breakdown ~where:"Lifetime.cdf" "CDF value at t = %g is NaN"
          times.(idx);
      if raw < -.monotonicity_tolerance || raw > 1. +. monotonicity_tolerance
      then
        Diag.breakdown ~where:"Lifetime.cdf"
          "CDF value %g at t = %g lies outside [0, 1] beyond tolerance %g" raw
          times.(idx) monotonicity_tolerance;
      if raw < !running -. monotonicity_tolerance then
        Diag.breakdown ~where:"Lifetime.cdf"
          "CDF decreases by %g at t = %g (tolerance %g): the absorbed mass \
           must be non-decreasing"
          (!running -. raw) times.(idx) monotonicity_tolerance;
      let p = Float.min 1. (Float.max 0. raw) in
      running := Float.max !running p;
      probabilities.(idx) <- !running)
    order

let curve_of ~delta d probabilities (stats : Transient.stats) ~times =
  sanitize times probabilities;
  {
    times = Array.copy times;
    probabilities;
    delta;
    states = Discretized.n_states d;
    nnz = Discretized.nnz d;
    iterations = stats.Transient.iterations;
    uniformisation_rate = stats.Transient.uniformisation_rate;
  }

(* The session-backed path: callers that already hold a [Discretized.t]
   (the CLI, the experiments) get the CDF from the shared engine — and
   can keep using the same session for further per-time queries at no
   extra sweep. *)
let cdf_session ?(session : Discretized.Session.session option) ~delta d ~times
    =
  let s =
    match session with Some s -> s | None -> Discretized.Session.create d
  in
  let pending = Discretized.Session.empty_probability s ~times in
  let stats = Discretized.Session.run s in
  curve_of ~delta d (Discretized.Session.get pending) stats ~times

(* A-posteriori escalation.  When a sweep fails its self-verification
   (mass residual, skipped-mass budget, Fox–Glynn accounting, CDF
   shape — all surfacing as [Numerical_breakdown]), the result is
   discarded and re-derived on progressively more conservative rungs
   before the failure is let through.  The first rung re-runs
   sequentially with the {e same} kernel configuration and tolerances:
   the parallel kernel is bitwise-identical to the sequential one by
   construction, so a recovery here changes no output bit of a clean
   run — which is what lets the chaos harness demand bitwise equality
   from recovered runs.  The second rung drops to the exact
   full-support oracle kernel (still the same tolerances): it removes
   the adaptive window from the suspect set, at most perturbing the
   result by the skipped mass the adaptive run would have dropped.
   Only the last rung tightens the accuracy (its output may
   legitimately differ; it trades the guarantee for a last chance at a
   usable curve).  If every rung fails, the {e first} error is
   re-raised, so persistent breakdowns report the original diagnosis,
   not the oracle's echo of it. *)
let escalation_rungs (o : Solver_opts.t) =
  [
    ("sequential kernel, same tolerances", { o with jobs = Some 1 });
    ( "sequential exact full-support oracle, same tolerances",
      { o with jobs = Some 1; adaptive_support = false } );
    ( "sequential exact full-support oracle, accuracy tightened 100x",
      {
        o with
        jobs = Some 1;
        adaptive_support = false;
        accuracy = o.Solver_opts.accuracy /. 100.;
      } );
  ]

let cdf_discretized ?opts ~delta d ~times =
  let o = match opts with Some o -> o | None -> Solver_opts.default in
  let attempt o' =
    let s = Discretized.Session.create ~opts:o' d in
    cdf_session ~session:s ~delta d ~times
  in
  match attempt o with
  | curve -> curve
  | exception (Diag.Error (Diag.Numerical_breakdown _) as first) ->
      let rec climb = function
        | [] -> raise first
        | (label, o') :: rest -> (
            Diag.record ~fallback:true ~origin:"Lifetime.verify"
              (Printf.sprintf
                 "sweep failed its a-posteriori check; re-running with %s"
                 label);
            match attempt o' with
            | curve -> curve
            | exception Diag.Error (Diag.Numerical_breakdown _) -> climb rest)
      in
      climb (escalation_rungs o)

let cdf ?opts ?initial_fill ~delta ~times model =
  Telemetry.with_span "lifetime.cdf" @@ fun () ->
  let d = Discretized.build ?initial_fill ~delta model in
  cdf_discretized ?opts ~delta d ~times

(* The checkpointable CDF path.  It runs the same single-measure sweep
   as the session path (same resolved rate, same Fox–Glynn windows,
   same kernel construction), so its output is bitwise identical to
   [cdf]'s — asserted by the resilience test suite — while exposing
   Transient's snapshot/resume hooks through [Checkpoint] files. *)
let fingerprint_mismatches ~delta ~accuracy ~states ~nnz ~times
    (c : Checkpoint.cdf) =
  let issues = ref [] in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  if c.Checkpoint.cdf_delta <> delta then
    add "checkpoint delta %g differs from this run's %g"
      c.Checkpoint.cdf_delta delta;
  if c.Checkpoint.cdf_accuracy <> accuracy then
    add "checkpoint accuracy %g differs from this run's %g"
      c.Checkpoint.cdf_accuracy accuracy;
  if c.Checkpoint.cdf_states <> states then
    add "checkpoint has %d states but this model expands to %d"
      c.Checkpoint.cdf_states states;
  if c.Checkpoint.cdf_nnz <> nnz then
    add "checkpoint has %d nonzeros but this model has %d"
      c.Checkpoint.cdf_nnz nnz;
  if c.Checkpoint.cdf_times <> times then add "time grids differ";
  List.rev !issues

let cdf_resumable ?(opts = Solver_opts.default) ?initial_fill ?checkpoint
    ?resume ~delta ~times model =
  Telemetry.with_span "lifetime.cdf" @@ fun () ->
  let d = Discretized.build ?initial_fill ~delta model in
  let payload_of progress =
    Checkpoint.Cdf
      {
        Checkpoint.cdf_delta = delta;
        cdf_accuracy = opts.Solver_opts.accuracy;
        cdf_states = Discretized.n_states d;
        cdf_nnz = Discretized.nnz d;
        cdf_times = times;
        cdf_progress = progress;
      }
  in
  let resume_progress =
    match resume with
    | None -> None
    | Some path -> (
        (* A corrupt file is quarantined and the sweep restarts cold —
           resumability must degrade to "slower", never to "stuck". *)
        match Checkpoint.load_for_resume ~path with
        | None -> None
        | Some (Checkpoint.Cdf c) -> (
            match
              fingerprint_mismatches ~delta
                ~accuracy:opts.Solver_opts.accuracy
                ~states:(Discretized.n_states d) ~nnz:(Discretized.nnz d)
                ~times c
            with
            | [] -> Some c.Checkpoint.cdf_progress
            | issues ->
                Diag.invalid_model ~what:("checkpoint " ^ path) issues)
        | Some (Checkpoint.Montecarlo _ | Checkpoint.Experiments _) ->
            Diag.invalid_model ~what:("checkpoint " ^ path)
              [ "checkpoint holds a different computation kind, not a CDF \
                 sweep" ])
  in
  let progress =
    match checkpoint with
    | None -> Progress.make ?resume:resume_progress ()
    | Some (path, interval) ->
        let save p = Checkpoint.save ~path (payload_of p) in
        Progress.make
          ~on_step:(Progress.every interval save)
          ~on_interrupt:save ?resume:resume_progress ()
  in
  let probabilities, stats =
    Discretized.empty_probability ~opts ~progress d ~times
  in
  curve_of ~delta d probabilities stats ~times

let mean c =
  let survival = Array.map (fun p -> 1. -. p) c.probabilities in
  (* Add the [0, t_0] prefix assuming survival probability 1 before the
     first sample (F(0) = 0 for a battery with positive charge). *)
  let prefix = if Array.length c.times > 0 then c.times.(0) else 0. in
  prefix +. Quadrature.trapezoid_sampled ~xs:c.times ~ys:survival

let mean_exact ?opts ?initial_fill ~delta model =
  Discretized.expected_lifetime ?opts
    (Discretized.build ?initial_fill ~delta model)

let quantile c p =
  if p < 0. || p > 1. then invalid_arg "Lifetime.quantile: p outside [0,1]";
  let interp = Interp.create ~xs:c.times ~ys:c.probabilities in
  Interp.inverse interp p

(* The refinement points are independent whole solves, so they fan out
   across the pool.  Each point's diagnostics — Diag events and
   Telemetry spans alike — are captured on its own domain and replayed
   in delta order afterwards, so the merged streams (and hence every
   log a front end prints from them) are identical to the sequential
   run's. *)
let convergence_study ?(opts = Solver_opts.default) ~deltas ~times model =
  let pool = Pool.get ~jobs:(Solver_opts.resolve_jobs opts) in
  Pool.map_array pool
    (fun delta ->
      Diag.capture (fun () ->
          Telemetry.capture (fun () -> cdf ~opts ~delta ~times model)))
    deltas
  |> Array.to_list
  |> List.map (fun ((curve, spans), events) ->
         Diag.replay events;
         Telemetry.replay spans;
         curve)

