(** The Markovian approximation (Section 5): expansion of the KiBaMRM
    into a pure CTMC over [workload-state x charge levels].

    Three transition families populate the generator [Q*]:

    - {b workload} transitions [(i,j1,j2) -> (i',j1,j2)] at the
      original rate [Q_{i,i'}];
    - {b consumption} transitions [(i,j1,j2) -> (i,j1-1,j2)] at rate
      [I_i / delta];
    - {b well transfer} transitions [(i,j1,j2) -> (i,j1+1,j2-1)] at
      rate [k (j2/(1-c) - j1/c)] whenever [h2 >= h1].

    States with [j1 = 0] (battery empty) are absorbing.  The flat
    state layout puts them in the leading block, so the probability of
    being empty is the mass of a prefix of the transient vector.

    {b Evaluating measures.}  {!Session} is the batched evaluation
    engine: it caches everything that depends only on the model and
    the solver options (CSR matrix, uniformisation rate, Fox–Glynn
    windows, working buffers) and answers any number of registered
    queries — CDF, marginals, expected charge, joint probabilities —
    from {e one} power sweep per flush.  (The pre-session per-time
    helpers, which paid a full sweep per call, were removed; register
    the same queries on a session instead.) *)

open Batlife_ctmc

type t = private {
  model : Kibamrm.t;
  grid : Grid.t;
  generator : Generator.t;
  alpha : float array;  (** initial distribution over flat states *)
}

val build :
  ?initial_fill:float * float ->
  ?absorb_empty:bool ->
  delta:float ->
  Kibamrm.t ->
  t
(** Expand the model with step [delta].  [initial_fill] overrides the
    initial well contents [(a1, a2)] (default: full battery,
    [(cC, (1-c)C)]).  Construction is linear in the number of
    transitions.

    [absorb_empty] (default [true]) makes the [j1 = 0] states
    absorbing, matching the paper's lifetime definition (first hit of
    an empty available well).  Setting it to [false] enables the
    variant the paper mentions in Section 5.2: the empty states keep
    their workload and well-transfer transitions, so a device that
    tolerates brown-outs can recover; {!empty_probability} then
    reports the (non-monotone) probability of being empty {e at} time
    [t] rather than {e by} time [t]. *)

val n_states : t -> int

val nnz : t -> int
(** Nonzero entries of [Q*] including the diagonal. *)

val empty_probability :
  ?opts:Solver_opts.t ->
  ?progress:Transient.sweep_progress Batlife_numerics.Progress.t ->
  t ->
  times:float array ->
  float array * Transient.stats
(** [Pr{battery empty at time t}] for each requested time — the
    lifetime distribution [Pr{L <= t}] — from a single uniformisation
    sweep.  [progress] is {!Transient.measure_sweep}'s
    checkpoint/resume record, threaded through for
    [Batlife_core.Lifetime]'s resumable CDF. *)

val state_distribution : ?opts:Solver_opts.t -> t -> time:float -> float array
(** Full transient distribution over the flat states at one time. *)

val expected_lifetime : ?opts:Solver_opts.t -> t -> float
(** Exact (no time grid, no Poisson truncation) expected absorption
    time of the expanded chain: solves the first-passage system
    [Q* tau = -1] on the transient states by Gauss–Seidel and returns
    [alpha . tau].  [opts.linear_tol] sets the residual tolerance
    (default [1e-10]).  Requires the absorbing variant
    ([absorb_empty = true]); raises [Invalid_argument] otherwise. *)

(** The batched evaluation engine.

    A session pins the solver options and the uniformisation rate at
    {!Session.create} and caches, for the lifetime of the session:

    - the expanded generator's CSR matrix (shared with [t], never
      copied);
    - the uniformisation rate [q] (validated once);
    - Fox–Glynn windows keyed by [(q, t)] — since [q] is pinned, one
      entry per distinct time point ever queried;
    - the two working vectors of the power sweep, so repeated flushes
      allocate nothing but their result blocks;
    - the parallel stepping kernel of {!Transient.make_kernel} — the
      CSR transpose of the uniformised matrix and its nnz-balanced row
      partition — so the transpose is paid once per session rather
      than once per sweep.

    Queries {e register} linear functionals — {!Transient.measure}
    values built from the grid's shape when the query is registered
    (the CDF is the mass of the leading [j1 = 0] slab, a charge level
    is a slab, a workload state a stride, the expected charge one
    weight per slab) — and return typed {!Session.pending} handles;
    {!Session.run} (or the first {!Session.get}) flushes every
    pending registration through one
    {!Transient.multi_measure_sweep} over the union of their time
    grids, and equal functionals registered in one flush share one
    series.  Queries registered after a flush simply go into the next
    batch — a session never recomputes what it already swept, and
    in-flight guards (mass conservation, NaN detection) apply to the
    shared sweep exactly as they do to individual solves. *)
module Session : sig
  type session

  type 'a pending
  (** A registered query; forced by {!get}. *)

  val create : ?opts:Solver_opts.t -> t -> session
  (** Validates and pins the uniformisation rate
      ([opts.unif_rate] when set, the generator's own otherwise) —
      raises [Diag.Error (Invalid_model _)] like
      {!Transient.resolve_rate} on a bad rate. *)

  (** {2 Queries}

      Each registers its functionals on the session and returns
      immediately; no numerical work happens until {!run} or the
      first {!get}. *)

  val empty_probability : session -> times:float array -> float array pending
  (** The lifetime CDF [Pr{L <= t}] on [times] (one value per entry,
      in the given order). *)

  val available_charge_marginal :
    session -> time:float -> (float * float) array pending
  (** The available-charge marginal at [time]:
      [(lower interval end, probability)] per charge level. *)

  val mode_marginal : session -> time:float -> float array pending
  val expected_available_charge : session -> time:float -> float pending

  val joint_probability :
    session -> time:float -> mode:int -> min_charge:float -> float pending
  (** Raises [Invalid_argument] immediately (at registration) if
      [mode] is out of range. *)

  val measure :
    session ->
    times:float array ->
    measure:Transient.measure ->
    float array pending
  (** Any linear functional of the transient distribution over the
      flat states, evaluated on [times].  A malformed measure (see
      {!Transient.measure}) raises [Invalid_argument] when its batch
      is flushed. *)

  (** {2 Execution} *)

  val run :
    ?budget:Batlife_numerics.Budget.t ->
    ?ctx:string ->
    session ->
    Transient.stats
  (** Flush all pending registrations through one shared sweep and
      return its stats.  With nothing pending this is a no-op
      returning the last flush's stats (zero iterations if the
      session never swept).  [budget] bounds {e this flush only},
      overriding the session options' budget: long-lived sessions (the
      query service caches them across requests) cannot pin a
      per-request deadline at {!create} time.  [ctx] is a trace
      context (request id): the flush runs under
      [Telemetry.with_context] and [Diag.with_context], so sweep spans
      and diagnostics notes are attributable to the requests that
      triggered them. *)

  val get : 'a pending -> 'a
  (** The query's result; triggers {!run} if its batch has not been
      flushed yet.  Idempotent. *)

  (** {2 Introspection} *)

  val uniformisation_rate : session -> float
  val sweeps : session -> int
  (** Number of flushes performed so far. *)

  val last_stats : session -> Transient.stats option
  val cached_windows : session -> int
  (** Number of distinct time points with a cached Fox–Glynn window. *)

  val approx_bytes : session -> int
  (** Estimated resident bytes of the session and the {!t} it pins:
      generator CSR nonzeros, initial distribution, kernel transpose,
      sweep buffers and cached Fox–Glynn windows.  Grows as the
      session warms up (kernel build, new windows), so byte-budgeted
      callers should re-read it after each use.  An estimate —
      per-entry boxing and hashtable overhead are approximated by
      constants. *)
end

