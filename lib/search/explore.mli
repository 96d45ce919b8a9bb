(** Heuristic exploration — Algorithm 1 of §IV-B.

    An evolutionary loop over the pruned space: every generation ranks
    the population by the {e analytical} model's estimates, read from
    the enumeration's scores (free: no model runs here), measures only
    the top [n] candidates on the device (expensive — charged to the
    virtual tuning clock), and stops automatically once the best
    measured time converges within [epsilon].  The next population is drawn from the
    current one with probability proportional to 1/estimate and mutated by
    stepping one axis's tile size to a neighbouring option.

    Replacing the learned cost model with the analytical one and replacing
    a fixed trial budget with the convergence criterion are the two changes
    relative to Ansor's search loop that produce Table IV's 70-140x tuning
    speedups. *)

val log_src : Logs.src
(** Log source ["mcfuser.search"]: generation-by-generation progress at
    debug level, per-tune summaries at info. *)

type params = {
  population : int;  (** N of Algorithm 1. *)
  top_k : int;  (** n of Algorithm 1 (paper: 8). *)
  epsilon : float;  (** Relative convergence threshold. *)
  min_generations : int;
      (** Rounds before the convergence test may fire (guards against
          measurement noise faking an early plateau). *)
  max_generations : int;  (** Safety stop. *)
  measure_repeats : int;  (** Timed runs per measurement session. *)
  compile_cost_s : float;  (** Virtual toolchain cost per measured candidate. *)
}

val default_params : params

type stats = {
  generations : int;
  estimated : int;  (** Entries ranked by estimate (the whole pruned space). *)
  measured : int;  (** Unique candidates measured on the device. *)
}

type result = {
  best : Space.entry;
  best_time_s : float;  (** Measured (simulated) kernel time. *)
  stats : stats;
}

val run :
  ?params:params ->
  ?measure:Measure.t ->
  ?on_phase:(string -> float -> unit) ->
  scores:(float * float) array ->
  rng:Mcf_util.Rng.t ->
  clock:Mcf_gpu.Clock.t ->
  Mcf_gpu.Spec.t ->
  Space.entry list ->
  result option
(** [None] when no candidate in the space compiles and launches.

    [scores] are the [(estimate, traffic)] pairs index-aligned with
    [entries] that {!Space.enumerate_scored} returns: the enumeration's
    fused streaming pass is the search's only scorer, so the explorer
    ranks by these as given and evaluates no model itself.  The estimate
    is the enumeration's objective (eq. (2)-(5)'s total time unless the
    caller chose another); traffic (scaled by eq. (5)'s alpha) seeds the
    second, data-movement ranking of the initial population.
    [stats.estimated] counts the entries ranked.
    @raise Invalid_argument if [scores] and [entries] differ in length.

    [entries] must be one enumeration's, as {!Space.enumerate} returns
    them (a subsequence of it, reservoir-bounded or not): the loop
    mutates each entry's rank with {!Space.neighbour} and finds the
    stepped rank by binary search.
    @raise Invalid_argument if a rank is negative (a {!Space.make_entry}
    entry) or the ranks are not strictly increasing.

    [measure] is the batched measurement engine each generation's fresh
    top-k goes through (defaults to a fresh cache-less {!Measure.create}
    on [spec]); attach a cache there to reuse measurements across runs.
    Results are bit-identical with or without a cache and at any jobs
    count — see {!Measure}.  [on_phase] receives ["tuner.measure"] with
    the total measurement wall time once the loop finishes, for the
    tuner's phase breakdown. *)
