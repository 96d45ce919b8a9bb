(** A from-scratch gradient-boosted regression-tree model — the stand-in
    for the XGBoost cost model Ansor trains on measured programs (§II-B).

    Squared-error boosting with exact greedy splits; small by design (the
    training sets are at most the ~1000 measured trials of one tuning
    session).  The point reproduced here is the {e workflow} cost: the
    model must be retrained on freshly measured data every round, which is
    precisely the overhead MCFuser's analytical model removes. *)

type t

type params = {
  n_trees : int;
  max_depth : int;
  learning_rate : float;
  min_samples_split : int;
}

val train : ?params:params -> (float array * float) list -> t
(** [train samples] fits on (features, target) pairs.
    @raise Invalid_argument on an empty training set or inconsistent
    feature arity. *)

val predict : t -> float array -> float

val feature_vector : Mcf_ir.Lower.t -> float array
(** The schedule features Ansor-style models consume: log-scaled traffic,
    FLOPs, trip counts, block count, shared-memory footprint, tile
    extents, flags for flat tiling and online softmax. *)
