(** Unified numerical options for every CTMC solver entry point.

    Before this record existed, [?accuracy], [?q], [?convergence_tol]
    and [?tol] were repeated (with drifting defaults) across
    {!Transient}, {!Reachability}, [Batlife_core.Discretized] and
    [Batlife_core.Lifetime].  Every entry point takes a single
    [?opts:Solver_opts.t] (the deprecated per-argument wrappers have
    been removed; see the README migration table).

    The fields and their defaults:

    - [accuracy] (default [1e-12]): bound on the truncated Poisson
      mass of a uniformisation sweep (Fox–Glynn truncation).
    - [unif_rate] (default [None]): override of the uniformisation
      rate [q].  [None] uses the generator's own
      [1.02 * max_i (-q_ii)]; an explicit rate below the largest exit
      rate is rejected with [Diag.Error (Invalid_model _)].
    - [convergence_tol] (default [1e-14]): L-infinity stationarity
      threshold at which a sweep stops early and extrapolates the
      remaining steps as constant.  The stop carries no error bound
      tied to [accuracy]: on the 1 Hz on/off chains at Δ = 100 it
      moves the lifetime CDF by up to 7.0e-12 (fig-7) and 3.8e-11
      (fig-2 two-well) against the non-stopping sweep, above the
      default accuracy (docs/ALGORITHMS.md §2).
      [Transient.distribution_sweep] ignores it and never stops early.
    - [linear_tol] (default [None]): residual tolerance of the linear
      (Gauss–Seidel / Jacobi) solves behind unbounded reachability and
      exact expected lifetimes.  [None] keeps each solver's documented
      default: [1e-12] for hitting probabilities and hitting times,
      [1e-10] for the expected-lifetime first-passage system.
    - [jobs] (default [None]): worker-domain count of the parallel
      uniformisation kernel and the experiment fan-out.  [None]
      resolves at use time to [Batlife_numerics.Pool.default_jobs]
      (the CLI [--jobs] override, else [BATLIFE_JOBS], else
      [Domain.recommended_domain_count]); [Some 1] forces the
      guaranteed sequential path.  Results are bitwise identical for
      every job count.
    - [budget] (default [None]): the cooperative deadline/cancellation
      token checked between sweeps, vector-matrix products, solver
      iterations, ODE steps and parallel tasks.  [None] resolves at
      use time to the process-wide
      [Batlife_numerics.Budget.ambient ()] (what the CLI's
      [--deadline]/[--max-sweeps]/[--max-products] and SIGINT handler
      install); budgets never change numerical results, they only
      decide whether a run is allowed to finish.
    - [max_retries] (default [0]): per-task retry allowance of the
      parallel experiment fan-out ([Batlife_experiments.Par]);
      transiently failing tasks are retried with exponential backoff
      up to this many times before the failure propagates.
    - [adaptive_support] (default [true]): let the uniformisation
      kernel track the active support window of the iterate and skip
      rows whose probability mass is provably negligible.  The mass it
      drops is budgeted against the Fox–Glynn truncation error, so the
      documented accuracy bound still holds; results are no longer
      bitwise identical to the exact full-support kernel (which
      [false] restores, and which the escalation ladder falls back to
      as an oracle).
    - [support_threshold] (default [None]): per-entry pruning
      threshold of the adaptive kernel.  [None] derives one from
      [accuracy] and the sweep shape so the total skipped mass stays
      under half the accuracy budget; [Some 0.] prunes only exact
      zeros, making the adaptive kernel bitwise identical to the exact
      one while still shrinking the window.  Rejected if negative or
      non-finite. *)

type t = {
  accuracy : float;
  unif_rate : float option;
  convergence_tol : float;
  linear_tol : float option;
  jobs : int option;
  budget : Batlife_numerics.Budget.t option;
  max_retries : int;
  adaptive_support : bool;
  support_threshold : float option;
}

val default : t
(** [{ accuracy = 1e-12; unif_rate = None; convergence_tol = 1e-14;
      linear_tol = None; jobs = None; budget = None; max_retries = 0;
      adaptive_support = true; support_threshold = None }]. *)

val make :
  ?accuracy:float ->
  ?unif_rate:float ->
  ?convergence_tol:float ->
  ?linear_tol:float ->
  ?jobs:int ->
  ?budget:Batlife_numerics.Budget.t ->
  ?max_retries:int ->
  ?adaptive_support:bool ->
  ?support_threshold:float ->
  unit ->
  t
(** [make ()] is {!default}; each argument overrides one field.
    Raises [Invalid_argument] on [jobs < 1], [max_retries < 0], or a
    negative/non-finite [support_threshold]. *)

val linear_tol_or : default:float -> t -> float
(** The linear-solve tolerance, falling back to the calling solver's
    documented default when [linear_tol] is [None]. *)

val resolve_jobs : t -> int
(** The effective job count: [jobs] when set, else
    [Batlife_numerics.Pool.default_jobs ()]. *)

val resolve_budget : t -> Batlife_numerics.Budget.t
(** The effective budget: [budget] when set, else the process-wide
    [Batlife_numerics.Budget.ambient ()] (which is
    [Budget.unlimited] unless the CLI installed one). *)

val pp : Format.formatter -> t -> unit
