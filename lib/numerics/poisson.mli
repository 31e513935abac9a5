(** Truncated Poisson weight computation for uniformisation.

    Uniformisation of a CTMC expresses a transient measure as
    [sum_n pois(lambda; n) m_n].  For large [lambda] (the paper's Fig. 7
    needs [lambda = q t ~ 4e4]) one needs the weights of the bulk of the
    distribution only, computed in a numerically stable way.  This module
    follows the Fox–Glynn approach: start at the mode, recur outwards,
    truncate when the accumulated tail mass is below the requested
    accuracy, and renormalise. *)

type t = private {
  left : int;  (** first retained index *)
  right : int;  (** last retained index *)
  weights : float array;
      (** [weights.(n - left)] is the (renormalised) Poisson probability
          of [n] *)
  defect : float;
      (** upper bound on the truncated-away tail mass, from the
          geometric tail bounds at the window's two stopping points
          ([>= 0]; at most [accuracy / 2] by construction) — the
          quantity the sweeps' a-posteriori Fox–Glynn audit checks *)
}

val weights : ?accuracy:float -> float -> t
(** [weights ?accuracy lambda] computes truncated weights for a Poisson
    distribution with rate [lambda >= 0].  The truncated total mass
    before renormalisation is at least [1 - accuracy] (default
    [1e-12]).  Raises [Invalid_argument] on negative [lambda]. *)

val prob : t -> int -> float
(** [prob w n] is the weight of [n], zero outside the truncation
    window. *)

val fold : t -> init:'a -> f:('a -> int -> float -> 'a) -> 'a
(** Fold over the retained [(n, weight)] pairs in increasing order of
    [n]. *)

val expect : t -> float array -> float
(** [expect w xs] is [sum_n weight(n) *. xs.(n)] over the retained
    [n], summed in increasing order of [n] — the Poisson-weighted value
    of a per-step series, the fold every uniformisation result is.  A
    monomorphic loop over the weights: no closure, no boxed
    accumulator.  Raises [Invalid_argument] if [xs] does not reach
    [right]. *)

val total : t -> float
(** Sum of the retained weights (1 up to rounding, after
    renormalisation). *)

val cdf_complement : t -> int -> float
(** [cdf_complement w n] is [P(N > n)] under the truncated
    distribution. *)
