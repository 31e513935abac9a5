(** Slot-based stochastic evaluation of the modified KiBaM, in the
    spirit of Rao et al.'s stochastic battery model (see DESIGN.md,
    substitutions).

    Time advances in fixed slots; consumption is deterministic, while
    the bound-to-available recovery flow in each slot is gated by a
    Bernoulli trial whose success probability is the modified model's
    recovery attenuation.  In expectation one recovers the
    deterministic modified KiBaM; individual runs fluctuate, and the
    mean lifetime over many replications is what Table 1's
    "stochastic" column reports. *)

open Batlife_numerics
open Batlife_battery

val sample_lifetime :
  ?max_time:float ->
  slot:float ->
  Rng.t ->
  Modified_kibam.params ->
  Load_profile.t ->
  float option
(** One replication: the battery-empty time under the profile, [None]
    if it survives past [max_time] (default [1e9]). *)

val mean_lifetime :
  ?seed:int64 ->
  ?runs:int ->
  ?max_time:float ->
  slot:float ->
  Modified_kibam.params ->
  Load_profile.t ->
  float * (float * float)
(** Mean over [runs] (default 200) replications with a 95 % CI.
    Raises [Failure] if any replication survives past [max_time]. *)
