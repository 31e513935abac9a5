(** Low-overhead, domain-safe instrumentation for the solver stack.

    The telemetry layer answers "where does the time go and how much
    work was done" for every phase of a lifetime computation: Fox–Glynn
    window construction, CSR transposes, uniformisation sweeps, linear
    solves, ODE stepping, pool scheduling and the session caches.  It
    offers three primitive kinds:

    - {b counters} and {b gauges}: [Atomic]-backed tallies, safe to
      bump from any domain.  Counters are {e always on} — they are the
      work-accounting backbone ("this batch cost one sweep") that tests
      and benchmarks rely on, and an atomic increment per sweep-level
      event is free compared to the work it counts.
    - {b histograms}: log-bucketed {!Streamstat.Hist} distributions
      (window sizes, iteration counts, per-task latencies).  Recorded
      only while {!enabled}.
    - {b spans}: hierarchically nested timed sections on a monotonic
      clock.  Recorded only while {!enabled}.

    {b Overhead discipline.}  Every gated probe starts with a single
    load-and-branch on the process-wide enabled flag; when telemetry is
    disabled (the default) that branch is the whole cost.  Probes are
    placed at sweep/solve/section granularity, never inside the
    per-nonzero inner loops, so enabling telemetry costs a few percent
    at most (the benchmark's traced ledger reports the ratio as
    [trace.overhead_frac]).

    {b Determinism.}  Telemetry never influences numerical results:
    enabling it changes no solver output bit (asserted by the test
    suite).  Span streams from a parallel fan-out are made
    deterministic the same way [Diag] events are: wrap each task in
    {!capture} on its own domain and {!replay} the buffers in input
    order. *)

val enabled : unit -> bool
val enable : unit -> unit

val disable : unit -> unit
(** Stop recording gated probes.  Already-recorded data is kept (drain
    it with {!snapshot}, drop it with {!reset}). *)

val reset : unit -> unit
(** Clear recorded spans and zero every counter, gauge and histogram.
    The enabled flag is left as it is. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds (CLOCK_MONOTONIC). *)

(** {1 Counters}

    Named monotone tallies, interned process-wide: [counter name]
    returns the same counter for the same name everywhere, so the
    instrumented module and the test/exporter that reads it need not
    share code.  Increments are atomic and {e unconditional} (not
    gated on {!enabled}). *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string
val reset_counter : counter -> unit

(** {1 Gauges}

    Last-value-wins named floats (sizes, rates).  Sets are gated on
    {!enabled}. *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms}

    Each named histogram is a {!Streamstat.Hist.t}: geometric bucket
    bounds from [lo] up to [hi], 20 per decade, plus an overflow
    bucket.  Values at or below [lo] share the first bucket, values
    past the last bound land in the overflow bucket, and NaN is not
    counted.  Counts are atomic; observations are gated on
    {!enabled}. *)

type histogram = Streamstat.Hist.t

val histogram : ?lo:float -> ?hi:float -> string -> histogram
(** Interned by name like counters.  [lo] and [hi] are honoured on the
    first creation of a name; later calls return the existing
    histogram unchanged.  The defaults are those of
    {!Streamstat.Hist.create}, [1e-6] and [1e3]: latencies in seconds.
    Raises [Invalid_argument] unless [0 < lo < hi]. *)

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit

(** {1 Spans} *)

type span = {
  sp_name : string;
  sp_start_ns : int64;  (** monotonic-clock start *)
  sp_dur_ns : int64;
  sp_self_ns : int64;
      (** duration minus the time spent in directly nested spans
          closed on the same domain *)
  sp_depth : int;  (** nesting depth at open time (0 = root) *)
  sp_domain : int;  (** id of the recording domain (trace "tid") *)
  sp_ctx : string option;
      (** trace context (request id) active when the span closed — see
          {!with_context}; carried into {!trace_json} as ["rid"] *)
}

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context rid f] stamps every span the {e current domain}
    records during [f] with [rid] (restoring the previous context when
    [f] returns or raises; contexts nest, inner wins).  The service
    layer wraps each request's work in its request id so one slow
    query can be filtered out of a merged trace. *)

val current_context : unit -> string option
(** The current domain's active context, if any. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and records a completed span
    (also when [f] raises).  Spans nest per domain: a span opened
    inside another on the same domain records depth and contributes to
    the parent's child time.  When telemetry is disabled this is a
    single branch around [f ()]. *)

val capture : (unit -> 'a) -> 'a * span list
(** [capture f] redirects the {e current domain's} span recordings to
    a private buffer for the extent of [f] and returns them oldest
    first, exactly like [Diag.capture] does for events.  Nests; on
    exceptions the redirection is undone and the buffer dropped.
    Spans recorded by other domains during the call are not captured —
    wrap each parallel task separately and {!replay} in input order
    for a deterministic merged stream. *)

val replay : span list -> unit
(** Re-record spans in list order (into the shared sink, or into the
    enclosing {!capture} buffer if one is in flight).  Timestamps are
    kept as recorded — all domains share one monotonic clock. *)

(** {1 Snapshots and export} *)

type histogram_snapshot = {
  hs_name : string;
  hs_bounds : float array;
  hs_counts : int array;  (** length = [length hs_bounds + 1] (overflow last) *)
  hs_total : int;
  hs_sum : float;
  hs_max : float;
}

type snapshot = {
  snap_spans : span list;  (** completed spans, oldest first *)
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_gauges : (string * float) list;  (** sorted by name *)
  snap_histograms : histogram_snapshot list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

type rollup_row = {
  r_name : string;
  r_count : int;
  r_total_ns : int64;
  r_self_ns : int64;
  r_max_ns : int64;
}

val rollup : span list -> rollup_row list
(** Aggregate spans by name (count, total, self, max), sorted by total
    time descending (ties by name). *)

val metrics_json : snapshot -> string
(** Machine-readable metrics dump: schema ["batlife.metrics/1"] with
    ["counters"], ["gauges"], ["histograms"] objects and a ["spans"]
    roll-up array (milliseconds). *)

val trace_json : snapshot -> string
(** Chrome [trace_event] export: a JSON object with a ["traceEvents"]
    array of complete ("ph": "X") events, loadable in about:tracing
    and Perfetto.  Timestamps are microseconds relative to the
    earliest recorded span; "tid" is the recording domain. *)

val write_metrics : path:string -> snapshot -> unit
val write_trace : path:string -> snapshot -> unit
