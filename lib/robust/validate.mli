(** Up-front model validation that reports {e every} violation.

    Each checker walks its whole input and returns the complete list of
    problems found (empty = valid), so a user mistyping three CLI flags
    sees three diagnostics, not a fix-one-rerun loop.  Use
    {!to_result} or {!run} to turn a report into a structured
    {!Batlife_numerics.Diag.Invalid_model}. *)

type violation = { subject : string; problem : string }

val message : violation -> string
(** ["subject: problem"]. *)

val messages : violation list -> string list

val to_result :
  what:string -> violation list -> (unit, Batlife_numerics.Diag.error) result
(** [Ok ()] on an empty report, otherwise
    [Error (Invalid_model { what; violations })] carrying every
    message. *)

val run : what:string -> violation list -> unit
(** Like {!to_result} but raises {!Batlife_numerics.Diag.Error}. *)

val kibam :
  ?subject:string -> capacity:float -> c:float -> k:float -> unit ->
  violation list
(** Hard KiBaM parameter checks on the raw values (before
    {!Batlife_battery.Kibam.params} would reject them one at a time):
    finiteness, [capacity > 0], [c] in (0, 1], [k >= 0]. *)

val kibam_pedantic :
  ?subject:string -> capacity:float -> c:float -> k:float -> unit ->
  violation list
(** Soft findings a strict caller may escalate: currently [k = 0] with
    [c < 1], which silently strands the bound charge.  The CLI fails on
    these under [--strict] (the default) and downgrades them to
    warnings under [--lenient]. *)

val generator :
  ?tol:float -> ?subject:string -> Batlife_ctmc.Generator.t ->
  violation list
(** Structural CTMC checks: finite entries, non-negative off-diagonal
    rates, and row sums within [tol] (default [1e-9], relative to the
    largest exit rate) of zero.  The [Generator] constructors guarantee
    this by construction; this checker is for generators that may have
    been mutated or built from untrusted data. *)

val uniformisation_q :
  ?subject:string -> Batlife_ctmc.Generator.t -> float -> violation list
(** A user-supplied uniformisation rate must be positive, finite, and
    at least the largest exit rate (otherwise [P = I + Q/q] has
    negative entries and sweeps silently return garbage). *)

val probability_vector :
  ?tol:float -> ?subject:string -> float array -> violation list
(** Finite, non-negative entries summing to 1 (within [tol] scaled by
    the length). *)

val workload :
  ?subject:string -> Batlife_workload.Model.t -> violation list
(** Combined report over a workload model: per-state currents (finite,
    non-negative), the initial distribution, and the mode-switching
    generator. *)
