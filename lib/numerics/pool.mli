(** A reusable pool of worker domains (stdlib [Domain], OCaml 5).

    The multicore execution layer of the library: the uniformisation
    kernel partitions its gather-based matrix-vector product over a
    pool, and the experiment runner fans independent curves out over
    one.  Workers are spawned once and parked between parallel
    sections; a section is a plain fork-join barrier in which the
    calling domain executes share 0.

    {b Determinism.}  [run] and [run_chunks] assign each share to
    exactly one worker index by a fixed rule.  A closure that writes
    only locations owned by its share therefore produces results that
    are independent of how the domains are scheduled — this is the
    contract the gather-based {!Sparse.matvec_rows} kernel is built
    on.

    {b Nesting.}  A [run] issued from inside a share of another
    section (any pool) executes all its shares inline on the current
    domain.  The outermost parallel section wins; inner ones take the
    guaranteed sequential path, so composing a parallel experiment
    fan-out with parallel sweeps cannot deadlock.

    {b Exceptions.}  If shares raise, the section still completes
    (every worker finishes or fails), and the exception of the
    lowest-numbered failing share is re-raised — with its original
    backtrace — on the caller.  The pool remains usable.

    {b Supervision.}  A section run with [~supervise:true] re-executes
    a crashed share in place, on the same domain, up to
    {!section_retries} times (same never-retry policy as the
    experiment fan-out: [Diag] cancellation and budget exhaustion
    surface immediately).  This is sound exactly for the closures the
    determinism contract already demands — idempotent writers of
    share-owned locations — so a recovered section is bitwise
    identical to an undisturbed one.  Retries bump the
    ["pool.supervised_retries"] Telemetry counter and record one
    [Diag] fallback note on the {e caller's} domain after the section,
    keeping capture/replay streams identical for every job count.
    Exhausted retries fall back to the normal lowest-index
    propagation.  The [pool.crash] {!Fi} site, consulted at the start
    of every supervised share, injects such crashes
    deterministically. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1];
    [jobs = 1] spawns nothing and every operation runs inline on the
    caller).  Raises [Invalid_argument] on [jobs < 1]. *)

val size : t -> int
(** Total shares of a section, including the caller's. *)

val run : ?supervise:bool -> t -> (int -> unit) -> unit
(** [run t f] executes [f 0 .. f (size t - 1)], one share per domain,
    and returns when all have finished.  [supervise] (default false)
    enables crashed-share re-execution; only pass it for closures
    whose shares write their owned locations idempotently. *)

val parallel_for : t -> lo:int -> hi:int -> (lo:int -> hi:int -> unit) -> unit
(** [parallel_for t ~lo ~hi f] covers [\[lo, hi)] with [size t]
    contiguous chunks, [f ~lo ~hi] once per non-empty chunk.  Each
    index belongs to exactly one chunk. *)

val run_chunks :
  ?supervise:bool ->
  t ->
  int array ->
  count:int ->
  (lo:int -> hi:int -> unit) ->
  unit
(** [run_chunks t bounds ~count f] executes [f] on every non-empty
    chunk [\[bounds.(2i), bounds.(2i+1))], [i < count] — the bounds
    live in one flat int buffer, so a caller can reuse it across
    sections.  Chunk [i] is always executed by worker [i mod size t],
    so ownership of output ranges is a fixed function of the
    partition.  Use with {!Sparse.nnz_balanced_partition} for a
    load-balanced deterministic matrix kernel.  [supervise] as in
    {!run} (the uniformisation kernel passes it: a worker lost
    mid-product re-runs its partition instead of killing the sweep).
    Raises [Invalid_argument] unless [0 <= 2 * count <= Array.length
    bounds]. *)

val runs_inline : t -> bool
(** Whether a section issued now would run on the calling domain: true
    for the sequential pool and inside a share of another section (the
    nesting rule above). *)

val run_inline : ?supervise:bool -> t -> ('a -> int -> unit) -> 'a -> unit
(** [run_inline t f x] executes [f x 0 .. f x (size t - 1)] one after
    another on the calling domain, as {!run} does on the sequential
    pool or inside another section, with the same supervision and
    exception rules: every supervised share consults [pool.crash]
    once, and a crashed share re-runs in place, so a caller that runs
    a section inline because it is too small to repay a fork-join
    keeps the fault plan's consultation count of a dispatched section.
    The share's data comes as the argument [x], so a caller that
    passes a closed function allocates nothing per section: an
    undisturbed section, supervised or not, allocates no words and
    performs no atomic read-modify-write (a retried one records the
    same note as {!run}).  A direct call is the caller's choice, not a
    nested {!run}, and does not count in ["pool.nested_inline"]. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f xs] maps [f] over [xs] with dynamic load balancing
    (an atomic work index).  Result order matches input order; which
    domain computes which element does not. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Only meaningful for pools
    made with {!create}; pools from {!get}/{!default} are shared and
    must not be shut down. *)

(** {1 Process-wide default}

    The default job count is resolved, in order, from
    {!set_default_jobs} (the CLI's [--jobs]), the [BATLIFE_JOBS]
    environment variable, and [Domain.recommended_domain_count].  An
    unparsable or non-positive [BATLIFE_JOBS] is ignored (with a
    {!Diag.record} note). *)

val default_jobs : unit -> int

val set_section_retries : int -> unit
(** Process-wide retry budget for supervised sections (default 0 — a
    crashed share propagates immediately).  The CLI wires
    [--max-retries] here.  Raises [Invalid_argument] on negative
    values. *)

val section_retries : unit -> int
(** The current supervised-section retry budget. *)

val set_default_jobs : int -> unit
(** Override the default job count process-wide (takes precedence over
    [BATLIFE_JOBS]).  Raises [Invalid_argument] on values below 1. *)

val clamp_jobs : int -> int
(** [clamp_jobs requested] is [requested] limited to
    [Domain.recommended_domain_count] (at least 1).  When the request
    exceeds the core count, a {!Diag.record} note explains the clamp
    (non-fallback, so nothing is printed): oversubscribing domains is
    a measured slowdown — on a 1-core container the fig-7 Delta=10
    solve took 0.54 s at jobs = 1 but 0.68 s at jobs = 2 and 0.83 s at
    jobs = 4 (CHANGES.md records the run).  The CLI routes [--jobs]
    through this; direct [get ~jobs] callers are not clamped (the
    determinism tests deliberately oversubscribe).  Raises
    [Invalid_argument] on values below 1. *)

val get : jobs:int -> t
(** A shared pool of the given size, created on first request and
    cached for the life of the process ([jobs = 1] is the sequential
    pool).  Never shut these down. *)

val default : unit -> t
(** [get ~jobs:(default_jobs ())]. *)
