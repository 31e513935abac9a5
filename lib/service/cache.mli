(** The model-fingerprint session cache.

    Models are interned by {!Model_spec.fingerprint}: the first
    request for a spec pays the Q* construction ([Discretized.build])
    and the session creation (kernel build on first flush); every
    later request for the same fingerprint reuses the cached
    [Discretized.Session] — and with it the CSR matrix, the validated
    uniformisation rate, the Fox–Glynn windows of every time point
    ever queried, the sweep buffers and the parallel stepping kernel.
    A repeat query therefore performs {e zero} Q* constructions and
    {e zero} kernel builds, which the test suite asserts through the
    ["discretized.builds"] and kernel-build telemetry counters.

    Eviction is LRU along two independent bounds: a fixed entry
    capacity (checked at insertion) and an optional resident-byte
    budget (checked by {!enforce_budget} after each batch, against the
    {!Batlife_core.Discretized.Session.approx_bytes} estimates — 48
    large models are not 48 small ones).  Hits and misses bump the
    always-on ["session.cache_hit"] / ["session.cache_miss"] counters;
    evictions bump ["session.cache_evictions"] plus a per-reason
    counter (["session.cache_evictions_capacity"] /
    ["session.cache_evictions_bytes"]); the ["session.cache_size"] and
    ["session.cache_bytes"] gauges track the resident set — so the
    cache's effectiveness is observable in [--metrics] output, the
    stats snapshot and the service benchmark.

    Not domain-safe: all cache operations must stay on the server's
    accept/dispatch domain (worker domains only {e use} the session
    they are handed, and two concurrent groups never share one). *)

open Batlife_core

type entry = {
  spec : Model_spec.t;
  fingerprint : string;
  d : Discretized.t;
  session : Discretized.Session.session;
}

type t

val create : capacity:int -> ?max_bytes:int -> unit -> t
(** Raises [Invalid_argument] on [capacity < 1] or [max_bytes < 1].
    [max_bytes] (absent: unbounded) is the resident-byte budget
    enforced by {!enforce_budget}. *)

val find_or_build :
  ?fingerprint:string -> t -> Model_spec.t -> entry * [ `Hit | `Miss ]
(** The interned entry for the spec's fingerprint, building (and
    possibly evicting the least-recently-used entry) on a miss.
    [fingerprint] passes [Model_spec.fingerprint spec] when the caller
    has computed it already — the service, which groups a batch by it
    — so a request is fingerprinted once; absent, it is computed here.
    Build failures propagate as the usual structured exceptions and
    leave the cache unchanged. *)

val enforce_budget : t -> unit
(** Re-estimate every resident session's bytes (sessions grow as they
    warm up) and evict LRU entries until the total is within
    [max_bytes].  A single session larger than the whole budget is
    still admitted by {!find_or_build} — it is evicted here, {e after}
    serving its batch, and counted under
    ["session.cache_evictions_bytes"].  No-op without a budget beyond
    refreshing the gauges.  Call after each batch's model work. *)

val size : t -> int
val capacity : t -> int
val max_bytes : t -> int option

val resident_bytes : t -> int
(** Byte estimate of the resident set as of the last insertion or
    {!enforce_budget} pass. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Process-wide totals (the underlying telemetry counters are shared
    across caches, like all counters). *)
