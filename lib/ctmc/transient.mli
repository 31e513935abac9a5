(** Transient analysis of CTMCs by uniformisation.

    Uniformisation writes the transient distribution as
    [pi(t) = sum_n pois(qt; n) (alpha P^n)] with [P = I + Q/q].  The
    module offers the plain solver and a batched evaluation engine:
    the sequence [v_n = alpha P^n] is computed once and any number of
    linear functionals ({!measure} values) are recorded per step;
    every [(measure, time)] pair then costs only a Poisson-weighted
    scalar sum.  This is how a whole battery-lifetime CDF curve — or a CDF
    {e plus} every per-time marginal — is produced from a single
    vector-matrix sweep ({!multi_measure_sweep}, and
    [Batlife_core.Discretized.Session] on top of it).

    All canonical entry points take numerical options as one
    [?opts:Solver_opts.t] record, and the resumable sweeps take their
    checkpoint hooks as one
    [?progress:sweep_progress Batlife_numerics.Progress.t] record
    (the pre-record optional-argument spellings were removed).

    {b Parallelism.}  The hot product [v := v P] runs as a gather over
    the CSR transpose of [P] on a [Batlife_numerics.Pool] of
    [Solver_opts.resolve_jobs opts] domains (a {!kernel} value,
    prepared once per sweep or cached by the session layer via
    {!make_kernel}).  Each output entry is owned by exactly one writer
    and summed in a fixed order, so results are {b bitwise identical}
    for every job count.  A product runs on the calling domain,
    gathering each active segment directly, when the pool would run
    the section inline anyway (jobs = 1, or nested inside another
    section — every product of the query service, which fans batches
    out with [Pool.map_array]) or when it touches fewer than 32768
    nonzeros, where a fork-join costs more than it saves; only larger
    products are row-partitioned into nnz-balanced chunks across the
    domains.  Both paths are supervised and consult the [pool.crash]
    fault site once per share.  The per-step vectors are plain
    [float array]s; the CSR streams of [Batlife_numerics.Sparse] they
    are multiplied with are int32/float64 Bigarrays.

    {b Adaptive support} (on by default, see
    [Solver_opts.adaptive_support]).  The iterate of a battery
    lifetime sweep is a travelling front over the charge grid: at any
    step, most rows hold no probability mass.  The batched engine
    tracks the set of rows outside which the iterate is exactly zero
    as disjoint tile-aligned index segments, {e expands} it each step
    along the matrix's distinct transition displacements (falling
    back to the structural bandwidths for unstructured matrices —
    either way no transition reaches outside the expanded set, so
    mass can never escape silently) and computes the gather only
    inside it.  Active tiles whose entries are all at most a threshold
    tied to the Fox–Glynn accuracy budget are {e pruned} (zeroed;
    their mass is tallied and audited), letting the support shrink
    behind the front.  The product sums each tile's magnitudes while it
    writes it, and the pruner and the mass guard read those sums
    rather than the vector.  The segment sets live in flat int buffers
    sized once per sweep from the tile count, so a product allocates
    nothing whatever the state count.  The pruned mass is
    hard-capped at [accuracy / 2] (see
    [Solver_opts.support_threshold] for the split), so an adaptive
    result deviates from the exact full-support kernel by at most the
    skipped mass reported in {!stats.skipped_mass} — and with
    [support_threshold = Some 0.] the adaptive sweep is bitwise
    identical to the exact one.  [solve] and {!distribution_sweep}
    return full distributions and always use the exact full-support
    kernel.

    {b One power loop.}  Every entry point runs the same sweep driver.
    The batched engine records its measures per step;
    {!distribution_sweep} instead adds each iterate into one vector per
    time point, weighted by that time's Poisson probability, and turns
    the early stop off (see there).

    All entry points are guarded: a user-supplied uniformisation rate
    [q] below the chain's largest exit rate is rejected with
    [Diag.Error (Invalid_model _)] (the uniformised matrix would have
    negative entries and silently produce a wrong result); negative,
    NaN or infinite time points are rejected the same way (all
    violations collected into one error); and the sweeps monitor the
    iterate in flight — non-finite entries, probability mass (window
    sum plus pruned mass) drifting from the initial mass by more than
    1e-6, or a NaN measure value raise
    [Diag.Error (Numerical_breakdown _)].  A completed batched sweep
    additionally {b self-verifies a posteriori}: final-iterate mass
    conservation, the skipped-mass budget of the adaptive kernel, and
    the Fox–Glynn truncation accounting of every window are re-derived
    from the outputs (reported in {!stats.mass_residual} /
    {!stats.fg_defect}), so a fault that slipped between the per-step
    checks still cannot leave results standing. *)

type stats = {
  iterations : int;  (** number of vector-matrix products performed *)
  converged_at : int option;
      (** step after which [v_n] was numerically stationary, if
          detected *)
  uniformisation_rate : float;
  mass_residual : float;
      (** a-posteriori |mass(final iterate) + skipped - mass(alpha)|,
          audited against the 1e-6 conservation tolerance after the
          sweep *)
  fg_defect : float;
      (** largest Fox–Glynn truncation defect over the sweep's
          windows, audited against the requested accuracy *)
  touched_nnz : int;
      (** matrix nonzeros the sweep's products actually streamed; the
          full-support cost would be [iterations * nnz] *)
  active_rows : int;
      (** output rows the sweep's products actually computed; the
          full-support cost would be [iterations * states] *)
  support_lo : int;
  support_hi : int;
      (** hull [\[support_lo, support_hi)] of the iterate's final
          support ([\[0, states)] for full-support sweeps) *)
  skipped_mass : float;
      (** total probability mass the adaptive pruner dropped, audited
          against its [accuracy / 2] budget ([0.] for full-support
          sweeps); the adaptive-vs-exact deviation of any result is
          bounded by this *)
}

(** {1 Resilience}

    Every sweep consults the budget of its options
    ([Solver_opts.resolve_budget] — the explicit one or the
    process-wide ambient budget): one unit of work is noted per
    vector-matrix product, and before each product the budget is
    polled; an exhausted budget or a cancellation raises the
    structured [Diag.Error (Budget_exhausted _ / Cancelled _)].  The
    batched engine additionally supports snapshot/resume, giving
    checkpointed computations ({!Batlife_core.Lifetime}) their
    bitwise resumed == uninterrupted guarantee. *)

type sweep_progress = {
  sp_step : int;  (** last completed power step [m] *)
  sp_converged : bool;
      (** stationarity was detected exactly at [sp_step] *)
  sp_vector : float array;  (** the iterate [v_m = alpha P^m] *)
  sp_values : float array array;
      (** [sp_values.(j).(i)], [i <= sp_step]: measure [j] on the
          step-[i] iterate *)
  sp_skipped : float;
      (** probability mass the adaptive pruner had dropped by
          [sp_step] ([0.] for full-support sweeps) *)
}
(** Complete intermediate state of a {!multi_measure_sweep} after some
    step: restarting from a [sweep_progress] performs the identical
    remaining products, guards and convergence tests, so the resumed
    results are bitwise equal to the uninterrupted run's.  The support
    needs no field of its own — the pruner zeroes everything it drops
    and never leaves an all-zero tile active, so the stored vector's
    occupied tiles {e are} the live support. *)

(** {1 Measures}

    A measure is a linear functional of the distribution, given as a
    plain value: the sweep evaluates it on every iterate and writes
    the value straight into the measure's per-step series.  Each sum
    runs in ascending index order from [+0.], one term at a time, over
    the iterate's live support only — the index hull outside which
    every entry is exactly [0.] (all of [\[0, n)] for the full-support
    kernel) — which skips only exact-zero terms and changes no bit.
    [Weighted] weights are likewise read only over the live support,
    so a non-finite weight on a slab the iterate never reaches does
    not reach the result.

    Every sweep validates its measures once, raising
    [Invalid_argument] unless each [Sum] has [0 <= lo <= hi <= n] and
    [stride >= 1], and each [Weighted] has [slab >= 1] and a weight for
    every slab of the [n] states.  Equal measures compare equal, so
    callers can key and share them. *)

type measure =
  | Sum of { lo : int; hi : int; stride : int }
      (** [v.(lo) +. v.(lo + stride) +. ...] over the indices below
          [hi] *)
  | Weighted of { slab : int; weights : float array }
      (** [weights.(i / slab) *. v.(i)] summed over all [n] states: one
          weight per slab of [slab] consecutive states ([slab = 1] is a
          dot product with [weights]) *)

(** {1 Work counters}

    Process-wide tallies of the sweeps started and the vector-matrix
    products performed, so tests and benchmarks can assert statements
    like "these five queries cost exactly one sweep".  They live in
    {!Batlife_numerics.Telemetry} as the Atomic-backed counters
    ["transient.sweeps"], ["transient.products"],
    ["transient.kernel_builds"], ["transient.touched_nnz"] and
    ["transient.active_rows"] — domain-safe, so the tallies stay
    exact under [Pool] fan-out.  The last two accumulate the same
    per-product work tallies {!stats.touched_nnz} /
    {!stats.active_rows} report per sweep; benchmarks derive the
    adaptive kernel's work-reduction ratio from them.  A sweep tallies
    its products, touched nonzeros and active rows itself and adds
    them to the three counters once, when it ends — also when it ends
    in a budget, cancellation or guard error — so the counters are
    exact between sweeps and a product does no atomic
    read-modify-write.  Read them with
    [Telemetry.(value (counter "transient.sweeps"))]. *)

val resolve_rate : ?opts:Solver_opts.t -> Generator.t -> float
(** The validated uniformisation rate the sweeps will use under
    [opts]: [opts.unif_rate] when set (rejected with
    [Diag.Error (Invalid_model _)] if below the largest exit rate or
    non-finite), else the generator's own rate.  Exposed so callers
    that cache Fox–Glynn windows keyed by [(q, t)] — the session layer
    — can compute them with the exact [q] a sweep will use. *)

(** {1 The stepping kernel}

    Everything a sweep needs to apply [v := v P] in parallel: the CSR
    transpose of the uniformised matrix, an nnz-balanced row partition
    of it, its structural shape (distinct displacements and bandwidths,
    for adaptive support expansion), and the worker pool.  Building one costs a transpose (O(nnz));
    sweeping with a prebuilt kernel avoids paying that per call, which
    is what [Batlife_core.Discretized.Session] relies on for its
    amortised fast path. *)

type kernel

val make_kernel : ?opts:Solver_opts.t -> Generator.t -> kernel
(** Prepare the parallel stepping kernel for [g] under [opts] (rate
    from [opts.unif_rate] or the generator, pool of
    [Solver_opts.resolve_jobs opts] domains).  Validates the rate like
    {!resolve_rate}. *)

val kernel_bytes : kernel -> int
(** Estimated resident bytes of the kernel's own allocations — the CSR
    transpose of the uniformised matrix (the dominant term: 12 bytes
    per nonzero plus 8 per row pointer), the cached partition and the
    displacement set.  Excludes the shared worker pool.  Feeds the
    byte-budgeted session cache's accounting. *)

val tile_width : int -> int
(** [tile_width n] is the width of the tile grid the adaptive support
    of an [n]-state sweep is aligned to: every support segment starts
    on a multiple of it and ends on one or at [n], and the pruner never
    keeps a tile that holds no nonzero. *)

val prune_decision :
  float array -> tau:float -> skipped:float -> cap:float -> bool
(** [prune_decision tile ~tau ~skipped ~cap] is whether the adaptive
    pruner drops a tile holding the entries [tile] (at most 64, the
    widest tile) when it has already skipped [skipped] of the cap
    [cap], decided as a sweep decides it: from the tile's magnitude
    [s], the ascending sum of its [|x_i|] from [+0.], rescanning the
    entries only when [s <= 2 len tau].  That is exactly
    [max |x_i| <= tau && skipped +. s <= cap], false whenever an entry
    is NaN.  Exposed for tests. *)

val solve :
  ?opts:Solver_opts.t ->
  Generator.t ->
  alpha:float array ->
  t:float ->
  float array
(** [solve g ~alpha ~t] is the state distribution at time [t] given
    the initial distribution [alpha]: the single row of
    [distribution_sweep ~times:\[|t|\]], with its guards, checks and
    errors.  Always uses the exact full-support kernel (the
    deliverable is the whole vector). *)

val multi_measure_sweep :
  ?opts:Solver_opts.t ->
  ?windows:Batlife_numerics.Poisson.t array ->
  ?buffers:float array * float array ->
  ?kernel:kernel ->
  ?progress:sweep_progress Batlife_numerics.Progress.t ->
  Generator.t ->
  alpha:float array ->
  times:float array ->
  measures:measure array ->
  float array array * stats
(** [multi_measure_sweep g ~alpha ~times ~measures] evaluates
    [sum_n pois(q t; n) measures.(j)(alpha P^n)] for every measure
    [j] and every [t] in [times] (non-negative, not necessarily
    sorted) in a {b single} power sweep; [result.(j).(i)] is measure
    [j] at [times.(i)], and the returned [stats] are shared by all of
    them.  When successive [v_n] differ by less than
    [opts.convergence_tol] in L-infinity, the sweep stops early and
    the remaining steps are extrapolated as constant.

    [windows] supplies precomputed Fox–Glynn truncations, one per
    entry of [times] (they must have been computed for the same [q]
    and [accuracy] — the session cache uses {!resolve_rate});
    [buffers] supplies the two length-[n] working vectors so repeated
    sweeps allocate no state-sized array — only the result matrix and
    the segment buffers, a few ints per tile of the support grid — and
    each product a fixed few words, whatever the number of measures
    (the first buffer is seeded with a copy of [alpha]; [alpha] itself
    is never written); [kernel] supplies a prebuilt stepping kernel
    (from {!make_kernel}) so repeated sweeps skip the per-call
    transpose.  Raises [Invalid_argument] if a measure is malformed
    (see {!measure}), if [windows]/[buffers] have the wrong length, or
    if [kernel] was prepared for a different state count or
    uniformisation rate than the sweep resolves under [opts].

    [progress] carries the checkpoint/resume hooks
    ({!Batlife_numerics.Progress}): [on_step] is called after every
    completed step with the step index and a lazy snapshot thunk — the
    state copy is only paid when the caller actually checkpoints;
    [on_interrupt] is called with a final snapshot just before a
    budget/cancellation error is raised (the flush point of
    checkpointing callers); [resume] restores a snapshot and continues
    at the following step.  Raises [Invalid_argument] if a [resume]
    snapshot disagrees with the sweep on state count, measure count,
    step range, or carries a negative/NaN skipped mass. *)

val multi_measure_series :
  ?opts:Solver_opts.t ->
  ?buffers:float array * float array ->
  ?kernel:kernel ->
  ?progress:sweep_progress Batlife_numerics.Progress.t ->
  Generator.t ->
  alpha:float array ->
  times:float array ->
  windows:Batlife_numerics.Poisson.t array ->
  measures:measure array ->
  float array array * stats
(** The engine of {!multi_measure_sweep} without its final fold:
    [series.(j).(m)] is measure [j] on the step-[m] iterate, for
    [m] up to the largest right edge of [windows] (constant after
    [stats.converged_at]), and the result for measure [j] at
    [times.(i)] is [Poisson.expect windows.(i) series.(j)], bitwise
    what {!multi_measure_sweep} returns.  For a caller that needs only
    some (measure, time) pairs — the session layer, whose
    registrations each ask for their own functionals at their own
    times — and folds just those.  Validation, guards, hooks, errors
    and the Telemetry span are those of {!multi_measure_sweep} (the
    errors and the span carry its name). *)

val measure_sweep :
  ?opts:Solver_opts.t ->
  ?windows:Batlife_numerics.Poisson.t array ->
  ?buffers:float array * float array ->
  ?kernel:kernel ->
  ?progress:sweep_progress Batlife_numerics.Progress.t ->
  Generator.t ->
  alpha:float array ->
  times:float array ->
  measure:measure ->
  float array * stats
(** Single-functional convenience over {!multi_measure_sweep}. *)

val distribution_sweep :
  ?opts:Solver_opts.t ->
  Generator.t ->
  alpha:float array ->
  times:float array ->
  float array array * stats
(** Full distributions at several time points from one sweep (memory:
    one accumulator vector per time point).  Validates [times] exactly
    like {!measure_sweep}.  This is the exact sweep: it uses the
    full-support kernel whatever [opts.adaptive_support] says, and it
    never stops early — it ignores [opts.convergence_tol] and stops
    short of the largest Fox–Glynn right edge only at an iterate that
    repeats bitwise, when every later iterate would be the same vector,
    so the result is that of the full walk.  The errors and the
    Telemetry span carry its name. *)
