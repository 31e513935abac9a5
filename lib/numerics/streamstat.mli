(** Bounded streaming aggregation for a long-running service.

    The batch telemetry layer ({!Telemetry}) accumulates for one
    process lifetime and is exported once at exit; a daemon needs the
    complementary shape: aggregates that can be scraped at any moment
    and whose state stays bounded no matter how many requests flow
    through.  This module provides the two primitives the service
    plane is built from:

    - {!Hist}: log-bucketed latency histograms with a {e documented}
      quantile error bound, O(buckets) state;
    - {!Window}: rolling-window event counters (requests/errors per
      1m/5m), O(slots) state.

    Both are safe to update from any domain (atomic bucket counts; a
    never-hot mutex for window slot rotation) and never influence the
    numerical results they sit next to. *)

(** {1 Log-bucketed histograms}

    Bucket upper bounds form a geometric series [lo·r^i] with ratio
    [r = 10^(1/per_decade)], the last of them [hi] itself, covering
    [[lo, hi]] (a sample at [hi] is in range); one underflow-merged
    first bucket and one overflow bucket close the ends.  A quantile is
    reported as the geometric midpoint of the bucket holding the
    target rank, so for any sample population whose values lie inside
    [[lo, hi]] the estimate [e] of a true sample quantile [v]
    satisfies

    {v 1/sqrt(r) <= e / v <= sqrt(r) v}

    i.e. a relative error of at most [sqrt(r) - 1] (= {!Hist.rel_error_bound},
    about 5.9% for the default 20 buckets per decade).  Values below
    [lo] are clamped into the first bucket and values above [hi] into
    the overflow bucket; quantiles landing there are reported as [lo]
    resp. the maximum value seen, and the bound no longer applies. *)
module Hist : sig
  type t

  val create : ?lo:float -> ?hi:float -> ?per_decade:int -> unit -> t
  (** Defaults: [lo = 1e-6], [hi = 1e3] (latencies in seconds from a
      microsecond to a quarter hour), [per_decade = 20].  Raises
      [Invalid_argument] unless [0 < lo < hi] and [per_decade >= 1]. *)

  val observe : t -> float -> unit
  (** Record one sample.  Atomic; always on; NaN is ignored. *)

  val count : t -> int
  val sum : t -> float

  val max_seen : t -> float
  (** [neg_infinity] when empty. *)

  val mean : t -> float
  (** [nan] when empty. *)

  val quantile : t -> float -> float
  (** [quantile t p] for [p] in [[0, 1]]: the geometric midpoint of
      the bucket containing the sample of rank [⌊p·count⌋] (the same
      rank convention as sorting all samples and indexing).  [nan]
      when empty. *)

  val rel_error_bound : t -> float
  (** The documented bound [sqrt(r) - 1] on the relative quantile
      error for in-range samples. *)

  val buckets : t -> int
  (** Number of buckets — the size of the histogram's state, fixed at
      creation and independent of how many samples were observed. *)

  val snapshot : t -> (float * int) array
  (** [(upper_bound, count)] per bucket, oldest bound first; the
      overflow bucket reports [infinity].  Length = {!buckets}. *)

  val reset : t -> unit
end

(** {1 Rolling windows}

    A ring of [slots] sub-interval counters covering the trailing
    [span_s] seconds.  Each update or read first retires slots older
    than the window (O(slots)), so state never grows with traffic.
    Time is taken from the monotonic clock of {!Telemetry.now_ns}
    unless the caller supplies [~now_ns] — tests inject a synthetic
    clock for determinism. *)
module Window : sig
  type t

  val create : ?slots:int -> span_s:float -> unit -> t
  (** Default [slots = 12] (5-second resolution on a 1-minute
      window).  Raises [Invalid_argument] unless [span_s > 0.] and
      [slots >= 1]. *)

  val add : ?now_ns:int64 -> t -> int -> unit
  (** Count [n] events at the current (or supplied) instant. *)

  val total : ?now_ns:int64 -> t -> int
  (** Events counted within the trailing window. *)

  val rate : ?now_ns:int64 -> t -> float
  (** {!total} divided by the window span — events per second. *)

  val span_s : t -> float
  val slots : t -> int
end
