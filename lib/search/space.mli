(** Search-space construction and pruning (§III-A, §III-C).

    The raw space is the cross product of every tiling expression (deep
    permutations + flat forms) with every tile-size vector (multiples of 16
    per axis) — about 10^8 points for the paper's running example.  The
    four pruning rules shrink it to ~10^4 concrete candidates that are
    worth estimating:

    - {b Rule 1} (deduplication): candidates sharing a per-thread-block
      sub-tiling expression are equivalent; one canonical representative
      per class is kept.
    - {b Rule 2}: expressions that place a producer's reduction loop
      outside an axis of its intermediate output would cache multiple
      partial tiles (Fig. 6) — dropped structurally.
    - {b Rule 3} (padding): tile sizes must divide power-of-two dimensions
      exactly, and keep the padding ratio below 5 % otherwise.
    - {b Rule 4} (shared memory): the eq. (1) estimate must stay within
      1.2x the device limit.

    Validity (softmax consumed inside its producer's reduction) is checked
    during enumeration as well, mirroring what the real toolchain rejects
    at lowering time. *)

type options = {
  rule1 : bool;
  rule2 : bool;
  rule3 : bool;
  rule4 : bool;
  include_flat : bool;  (** Off reproduces Chimera's deep-only space. *)
  dead_loop_elim : bool;  (** Off reproduces Ansor/Chimera hoisting. *)
  hoisting : bool;
}

val default_options : options
(** Everything on. *)

val max_padding : float
(** Rule 3's padding-ratio threshold (paper: 0.05). *)

val shmem_slack : float
(** Rule 4's slack over the device's shared memory per block (paper:
    1.2). *)

type grid
(** How a point of one pruned space is encoded, and the only place that
    knows: a point is its enumeration rank, the emitting tiling's ordinal
    times the rule-3 tile-combo count plus the combo index (a mixed radix
    over the rule-3 tile options in [chain.axes] order, the first axis
    slowest).  Built once per (chain, [rule3]). *)

val grid : options -> Mcf_ir.Chain.t -> grid
(** The grid of a chain under [options]' rule 3 (the other fields are
    not read). *)

val neighbour : grid -> int -> axis:int -> dir:int -> int option
(** [neighbour g rank ~axis ~dir] is the rank of the point that differs
    from [rank] only in axis [axis]'s tile, stepped [dir] (-1 or 1)
    positions through {!Mcf_ir.Candidate.tile_options}.  [axis] counts
    in sorted axis-name order (a candidate's tile-list order).  [None]
    off either end of the options or when rule 3 pruned the adjacent
    value.  The result need not be in a given pool (rules 1, 2 and 4,
    validity and the reservoir drop points); look it up by rank. *)

(** Everything needed to lower (or analytically cost) a candidate of this
    space: the chain, the structural-pass switches, the element width and
    the grid its entries' ranks index. *)
type ctx = {
  chain : Mcf_ir.Chain.t;
  rule1 : bool;
  dead_loop_elim : bool;
  hoisting : bool;
  elem_bytes : int;
  grid : grid;
}

type entry = {
  cand : Mcf_ir.Candidate.t;
  ctx : ctx;
  cell : Mcf_ir.Lower.t Mcf_util.Once.t;
      (** Lazily-forced lowering; access through {!lowered}.  Estimation
          uses the closed-form {!Mcf_model.Analytic} instead, so only
          candidates reaching measurement or codegen ever force it. *)
  rank : int;
      (** The point's enumeration rank in [ctx.grid] ({!grid}); [-1]
          for an entry built by {!make_entry}. *)
}

val lowered : entry -> Mcf_ir.Lower.t
(** Force (once, domain-safely) and return the entry's lowered program.
    Each first force runs under a [space.lower] trace span and bumps the
    [space.candidates_lowered] counter. *)

val make_entry : ctx -> Mcf_ir.Candidate.t -> entry
(** Wrap a candidate with a lazy lowering cell and rank [-1] (exposed for
    baselines and tests that build entries outside {!enumerate}; such
    entries can be measured but not explored). *)

type funnel = {
  tilings_raw : int;
  tilings_rule1 : int;
  tilings_rule2 : int;
  candidates_raw : float;  (** Raw cardinality (counted, not materialized). *)
  candidates_rule3 : float;
  candidates_rule4 : int;  (** Survivors of the closed-form precheck. *)
  candidates_valid : int;  (** After the softmax-legality check. *)
}

val rule2_rejects : Mcf_ir.Chain.t -> Mcf_ir.Tiling.t -> bool
(** The Rule-2 structural predicate on its own: true when the per-block
    expression places some producer's reduction loop outside an axis of
    its intermediate output (the Fig. 6(b) blow-up).  Exposed so the
    fuzzer can check its soundness direction — a kept tiling must lower
    (under rule-1 canonical execution) with every intermediate's
    residency multiplier equal to 1. *)

val tile_choices :
  options -> Mcf_ir.Chain.t -> (string * int list) list
(** Per-axis tile options after Rule 3 (as enabled). *)

val raw_cardinality : ?include_flat:bool -> Mcf_ir.Chain.t -> float
(** |tilings| x prod |all tile options|, before any pruning; the
    tilings are the deep family alone with [~include_flat:false]
    (default [true]). *)

val funnel_json : funnel -> Mcf_util.Json.t
(** The funnel as the recorder's ["space"] event payload (integer
    fields as integers, counted cardinalities as numbers). *)

type points = {
  pctx : ctx;
  ranks : int array;
      (** The survivors' enumeration ranks, strictly increasing.  A
          point's index in this array is its id in {!Explore.search}. *)
  estimates : float array;  (** Objective score per point, by index. *)
  traffic : float array;
      (** Closed-form traffic per point, scaled by
          [(blocks + sm_count) / blocks]. *)
  build : int -> entry;
      (** [build i] is point [i]'s entry: its candidate plus a lazy
          lowering cell, built on the first call and returned as is on
          every later one.  Not domain-safe: call it from the domain
          that enumerated (the explorer does, before it hands a batch to
          the pool). *)
}
(** The pruned space as the search consumes it: one flat scored set,
    filled straight from the enumeration's drain.  No candidate or entry
    exists for a point until [build] is asked for it, so a tune builds
    entries only for the points it measures.  Every entry built, through
    [build], {!make_entry} or the adapters below, bumps the
    [space.entries_built] counter. *)

val enumerate_points :
  ?options:options ->
  ?objective:(Mcf_model.Perf.breakdown -> float) ->
  ?on_phase:(string -> float -> unit) ->
  ?reservoir:int ->
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  points * funnel
(** Build the pruned space for a device as a scored set, with the Fig. 7
    funnel.

    This is the streaming pipeline, run in the calling domain.  Rules
    1–2 come first: with rule 1 on, the walk visits the rule-1 classes
    (orders of the reduce axes), drops every order rule 2 rejects with
    all its extensions, and keeps each survivor's first raw tiling, in
    raw order; a walk over every raw tiling runs only with rule 1 off
    and, when recording, for the exemplars.  The survivors'
    tile-combo index ranges are packed into ~4096-point chunks; each
    full chunk is scored on the shared {!Mcf_util.Pool} with one fused
    precheck → validity → estimate pass and drained sequentially in rank
    order before the next chunk is packed.  Scoring runs in index space:
    each pool task decodes its range's first combo index into tile/trip
    arrays and a trip=1 mask, then steps the rest as an odometer.  A
    point's summary, keyed by (structural id, the mask's
    {!Mcf_model.Analytic.Memo.relevant} bits), comes from the task's
    bounded slot table, which asks {!Mcf_model.Analytic.Memo} only on a
    slot miss; both the rule-4 footprint and the estimate read it.  A
    point that fits is settled by the summary's
    {!Mcf_model.Analytic.verdict}, and only a valid one is evaluated,
    into a reused {!Mcf_model.Analytic.aggregates} scratch.  No
    candidate is built unless the summary is missing, and the chunks
    share one set of outcome arrays; the drain appends each kept point's
    rank, scores and tiling to flat arrays.
    Peak heap is O(reservoir + chunk), not O(space) (the quotient walk
    also holds one tiling per kept class until it ends), and the result
    — points, their order, scores, the funnel — is bit-identical at any
    [--jobs] (pinned against a brute-force filter over the raw cross
    product in test_stream.ml).  The drain yields the runtime lock once
    per chunk ([Thread.yield]), so other threads of the calling domain
    (the serve daemon's HTTP and submit threads) keep running.

    The estimate is [objective] applied to the point's eq. (2)-(5)
    breakdown ({!Mcf_model.Perf.of_aggregates} over the point's
    {!Mcf_model.Analytic.aggregate}); it defaults to
    [t_total], the paper's model.  The MCFuser-Chimera baseline passes
    its data-movement objective and the ablation a model without alpha.
    These are the search's only model scores: {!Explore.search} ranks by
    them as given.

    [reservoir] bounds how many survivors stay resident: only the
    [reservoir] best by [objective] (ties toward the earlier rank) are
    kept, re-sorted back into enumeration-rank order.  Without it every
    valid point is kept.  [funnel] always counts the full space either
    way, so [candidates_valid] can exceed the number of points when a
    reservoir is set.

    [on_phase] receives named sub-phase wall-clock durations (currently
    exactly ["space.precheck"], reported once with the accumulated
    chunk-scoring time) so the tuner can carve them out of its
    [tuning_wall_s] breakdown without double counting.

    When {!Mcf_obs.Recorder} is recording, enumeration additionally
    emits per-rule ["prune"] attribution events (counts before/after
    each rule with exemplar canonical sub-tiling expressions or
    rejected candidates) and a ["space"] event carrying the funnel.
    Emission happens after the sequential drain has seen the whole
    stream, so recordings are byte-identical at any [--jobs] and
    recording cannot perturb the result. *)

val enumerate :
  ?options:options ->
  ?on_phase:(string -> float -> unit) ->
  ?reservoir:int ->
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  entry list * funnel
(** {!enumerate_points} with every point's entry built, in rank order:
    for callers that need the whole space as entries (the Ansor
    baseline, Fig. 10, perfbench's layer probes and the tests).  Builds
    one entry per returned element. *)

val enumerate_scored :
  ?options:options ->
  ?objective:(Mcf_model.Perf.breakdown -> float) ->
  ?on_phase:(string -> float -> unit) ->
  ?reservoir:int ->
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  entry list * (float * float) array * funnel
(** {!enumerate} plus the per-entry [(estimate, traffic)] pairs,
    index-aligned with the entry list: the adapter {!Explore.run} takes.
    Within [lib/] and [bin/] only [Space] and [Explore] name it
    ([make ci-guard]); tuning goes through {!enumerate_points} and
    {!Explore.search}, which build no entry for an unmeasured point. *)
