(** Exact stochastic simulation of the KiBaMRM.

    A replication samples the CTMC jump chain of the workload; within
    each sojourn the load is constant, so the battery follows the
    {e analytic} KiBaM solution and the empty instant is located by
    root finding — no time-discretisation error anywhere.  This is the
    "simulation" curve of the paper's Figs. 7, 8 and 10. *)

open Batlife_numerics
open Batlife_battery
open Batlife_core

type outcome =
  | Died of float  (** battery empty at this time *)
  | Survived of Kibam.state  (** still alive at the horizon *)

type sim
(** A prepared simulator: the per-state jump tables are built once and
    shared across replications. *)

val prepare : Kibamrm.t -> sim

val run : ?horizon:float -> sim -> Rng.t -> outcome
(** One replication, truncated at [horizon] (default [1e9]). *)

val sample_lifetime : ?horizon:float -> Rng.t -> Kibamrm.t -> outcome
(** Convenience one-shot wrapper over {!prepare} and {!run}. *)

type event = {
  time : float;  (** jump instant *)
  state : int;  (** workload state entered *)
  battery : Kibam.state;  (** well contents at the jump *)
}

val sample_path : ?horizon:float -> Rng.t -> Kibamrm.t -> event list * outcome
(** Full trajectory (jump events in chronological order) plus the
    outcome; for debugging and for the example programs. *)
