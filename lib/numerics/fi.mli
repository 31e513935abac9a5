(** Deterministic fault injection: named, armed injection sites.

    The chaos layer's foundation.  Production modules declare {e sites}
    at the exact points where the environment could bite — an IO write
    failing mid-checkpoint ([atomic_io.write_fail]), a pool worker
    dying mid-section ([pool.crash]), a NaN appearing in one
    vector-matrix product ([transient.step_nan]) — and consult
    {!fires} there.  Tests and the [bench --chaos-report] harness then
    {!arm} a site with a deterministic [(after, count)] plan and assert
    that the recovery machinery (checkpoint quarantine, pool
    supervision, the sweep-verification escalation ladder) restores the
    clean answer or fails with a structured error.

    {b Cost when disabled.}  Everything is off by default; {!fires} is
    one atomic load and a branch, the same discipline as
    [Telemetry.enabled], so the probes stay wired into the hot paths
    permanently.

    {b Determinism.}  An armed site fires on consultations numbered
    [after .. after + count - 1] of its own counter (counted only while
    armed; concurrent consultations claim unique indices atomically).
    Randomness enters only one level up, where a chaos harness draws
    plans from a seeded [Rng] — so any observed failure replays from
    its seed.

    Registered sites: [atomic_io.{write_fail,short_write,fsync_fail,
    rename_fail,dir_fsync_fail}], [checkpoint.{truncate,bitflip,
    version_skew}], [pool.crash], [transient.{step_nan,step_overflow}],
    [budget.clock_skew], and the server IO sites
    [server.{slow_read,disconnect,frame_flood,short_write}] (a stalled
    client read, a client vanishing mid-batch, a frame burst forcing
    admission to shed, a partial [write] to the client). *)

type site
(** An interned injection point; obtain with {!site}, consult with
    {!fires}. *)

exception Injected of string
(** Raised by {!inject} (and by the [pool.crash] site) with the site
    name.  Deliberately {e not} a [Diag.Error]: it models an abrupt
    crash and therefore exercises the generic (retryable) failure
    paths. *)

val site : string -> site
(** Intern a site by name (idempotent; thread-safe). *)

val name : site -> string

val fires : site -> bool
(** Consult the site: [true] iff injection is globally enabled, the
    site is armed, and this consultation falls inside the armed
    [(after, count)] window.  Each [true] consumes one firing. *)

val inject : site -> unit
(** [if fires s then raise (Injected (name s))]. *)

val enabled : unit -> bool
(** Whether any [arm] is in effect (the global fast-path flag). *)

val arm : ?after:int -> ?count:int -> string -> unit
(** [arm name] resets the site's counters and schedules it to fire on
    its next [count] (default 1) consultations after skipping the first
    [after] (default 0).  Enables injection globally.  Raises
    [Invalid_argument] on [after < 0] or [count < 1]. *)

val disarm : string -> unit
(** Remove the site's plan (counters and the global flag are left;
    use {!reset} to restore the all-off state). *)

val reset : unit -> unit
(** Disable injection globally and clear every site's plan and
    counters — the state test teardowns restore. *)

val hits : string -> int
(** Consultations of the site while armed (since its last [arm]). *)

val fired : string -> int
(** Firings of the site since its last [arm]. *)

val armed : unit -> (string * int * int) list
(** The active plans, as sorted [(name, after, count)] triples. *)

val registered : unit -> string list
(** All site names interned so far, sorted. *)

val with_sites : (string * int * int) list -> (unit -> 'a) -> 'a
(** [with_sites [(site, after, count); ...] f] resets the registry,
    arms each named site to fire on consultations
    [after .. after + count - 1], runs [f], and disarms everything
    again (also on exception) — the scoped arming idiom the fault
    tests and the chaos harness are built from. *)
