(** Structured diagnostics for the numerical engines.

    Every guarded failure mode in the code base is one of these
    variants; raising [Error] instead of [failwith] lets callers match
    on the class of failure (and lets the CLI map each class to a
    distinct exit code, {!exit_code}). *)

type error =
  | Invalid_model of { what : string; violations : string list }
      (** A model or parameter set failed validation; [violations]
          lists every problem found, not just the first. *)
  | Nonconvergence of {
      algorithm : string;
      iterations : int;
      residual : float;
      tolerance : float;
      attempted : string list;
          (** members of a fallback chain that were tried, in order *)
    }  (** An iterative method exhausted its budget. *)
  | Numerical_breakdown of { where : string; detail : string }
      (** NaN/Inf contamination, probability-mass loss, CDF
          non-monotonicity, step-size collapse: the computation would
          otherwise return garbage. *)
  | Budget_exhausted of { what : string; budget : int }
      (** A step or work budget ran out before completion. *)
  | Cancelled of { what : string; progress : string }
      (** Cooperative cancellation was requested (SIGINT, an explicit
          [Budget.cancel]) and honoured at the next check point;
          [progress] summarises the work completed so far. *)
  | Parse_error of {
      source : string;  (** file name, or ["<string>"] *)
      line : int;  (** 1-based; 0 when no line applies (e.g. IO) *)
      field : string option;
      message : string;
    }  (** Malformed external input. *)

exception Error of error

val error_to_string : error -> string
(** One-paragraph human-readable rendering. *)

val pp : Format.formatter -> error -> unit

val exit_code : error -> int
(** Stable per-class CLI exit code: [Invalid_model] 3, [Parse_error]
    4, [Nonconvergence] 5, [Numerical_breakdown] 6,
    [Budget_exhausted] 7, [Cancelled] 8. *)

val fail : error -> 'a
(** [fail e] raises [Error e]. *)

val invalid_model : what:string -> string list -> 'a

val breakdown : where:string -> ('a, unit, string, 'b) format4 -> 'a
(** [breakdown ~where fmt ...] raises a [Numerical_breakdown]. *)

(** {1 Diagnostics events}

    Numerical components record which path ran (e.g. "fell back to
    Jacobi") into a process-wide sink; the CLI and the experiment
    runner drain it to surface the events next to their results.

    The sink is shared across domains (recording is mutex-protected).
    A parallel fan-out that wants deterministic logs uses {!capture}
    around each task — events recorded by the task's domain land in a
    private per-task buffer — and {!replay}s the buffers in input
    order, so the merged stream is independent of domain scheduling. *)

type event = {
  origin : string;
  detail : string;
  fallback : bool;
  ctx : string option;
      (** trace context (request id) active when the event was
          recorded — see {!with_context}; preserved by
          {!capture}/{!replay} so merged per-request notes stay
          attributable *)
}

val record : ?fallback:bool -> origin:string -> string -> unit
(** Record an event; the current domain's {!with_context} value (if
    any) is stamped on it. *)

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context rid f] stamps every event the {e current domain}
    records during [f] with [rid], mirroring
    [Telemetry.with_context].  Restores the previous context when [f]
    returns or raises; nests, inner wins. *)

val current_context : unit -> string option

val capture : (unit -> 'a) -> 'a * event list
(** [capture f] runs [f] with the {e current domain's} recordings
    redirected to a fresh buffer and returns [f]'s result with the
    events recorded during the call, oldest first.  Nests (the inner
    capture shadows the outer one for its extent).  If [f] raises, the
    redirection is undone and the exception propagates (the buffered
    events are dropped).  Recordings made by {e other} domains during
    the call are not captured — wrap each parallel task separately. *)

val replay : event list -> unit
(** Re-record events in list order (into the shared sink, or into the
    enclosing capture buffer if one is in flight).  Events are
    re-recorded verbatim — in particular each keeps the [ctx] it was
    originally recorded under, not the replaying domain's. *)

val events : unit -> event list
(** Recorded events, oldest first. *)

val clear_events : unit -> unit
