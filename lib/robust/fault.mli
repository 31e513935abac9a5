(** Fault injection for tests and the chaos harness.

    Two layers live here.  The ad-hoc helpers ({!corrupt_row_sum},
    {!inject_nan}, {!transient}) sabotage a model or callback
    directly, for unit tests that hold the object in hand.  The
    {b site registry} ({!Fi}, re-exported from
    {!Batlife_numerics.Fi}) is the production-grade layer: named,
    seeded injection points compiled into the hot paths themselves —
    [Atomic_io] write/rename/fsync/short-write, [Checkpoint] load
    corruption, [Pool] worker crashes, [Transient] kernel NaN /
    overflow, [Budget] clock skew — each a single predictable-branch
    check when disarmed, so production binaries carry the sites at no
    measurable cost.  [bench --chaos-report] drives whole fault plans
    through them.

    Nothing arms a site unless a test or the chaos harness asks. *)

module Fi = Batlife_numerics.Fi
(** The process-wide injection-site registry: [Fi.site] interns a
    site, [Fi.arm ~after ~count] schedules it to fire on a
    deterministic window of consultations, [Fi.reset] disarms
    everything.  See {!Batlife_numerics.Fi} for the full API and the
    list of registered site names. *)

val corrupt_row_sum : Batlife_ctmc.Generator.t -> row:int -> amount:float -> unit
(** Add [amount] to the first stored entry of [row] in place, breaking
    the zero-row-sum invariant the generator constructors established.
    Raises [Invalid_argument] if the row is out of range or has no
    stored entries (absorbing rows are empty in CSR form, so there is
    nothing to perturb). *)

val inject_nan : Batlife_numerics.Sparse.value_array -> index:int -> unit
(** Overwrite one entry of a matrix's flat [values] stream with NaN.
    Raises [Invalid_argument] if [index] is out of range. *)

exception Injected of string
(** The same exception as [Batlife_numerics.Fi.Injected] (rebound):
    what {!transient} and every armed crash-style site raise —
    deliberately {e not} a [Diag.Error], so it exercises the generic
    retry paths ([Batlife_experiments.Par] task retries, [Pool]
    section supervision). *)

val transient : failures:int -> ('a -> 'b) -> 'a -> 'b
(** [transient ~failures f] behaves like [f] except that the first
    [failures] invocations {e process-wide} raise {!Injected} (the
    countdown is atomic, so concurrent pool workers share it).  Models
    a transient environment fault for driving
    [Batlife_experiments.Par]'s retry-with-backoff: with
    [max_retries >= failures] the fan-out must recover and produce
    results bitwise identical to the fault-free run. *)

val with_sites : (string * int * int) list -> (unit -> 'a) -> 'a
(** [with_sites [(site, after, count); ...] f] resets the registry,
    arms each named site to fire on consultations
    [after .. after + count - 1], runs [f], and disarms everything
    again (also on exception) — the scoped arming idiom the fault
    tests and the chaos harness are built from. *)
