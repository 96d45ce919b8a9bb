(** Closed-form analytical model: eqs. (2)-(5) without lowering.

    [breakdown_of_eval spec (eval_candidate ... chain cand)] equals
    [Perf.breakdown spec (Lower.lower ... chain cand)] bit-for-bit.  Both
    read the same {!Mcf_ir.Skeleton.t}: a search's summary is the
    skeleton of one real [Program.build] per {!Memo} key, compiled once
    into flat int arrays of terms, and this module evaluates those
    against a tile vector without instantiating a [Lower.t].  The
    summary also carries eq. (1)'s footprint terms (the skeleton's
    residency items), so the rule-4 precheck ({!footprint},
    {!Shmem.footprint_of_candidate}) reads it too.  This is what lets the
    search score thousands of candidates without lowering a single one
    (the paper's tuning-time win, Table IV).

    The compiled summary is built once per memo key and holds one term
    per residency item (eq. (1)), one per [Access] (bytes per block) and
    one per [Contraction] / [Epilogue] (FLOPs per block, with its float
    factors), plus the grid axes (the block count).  A term's products
    read runs of axis indices from the tile and the trip vector, so a
    point is one linear pass over a few dozen ints; no per-point code
    walks the skeleton.

    Exactness holds because every integer term is far below 2^53: the
    byte and footprint terms are int products whose sum, converted once,
    equals {!Mcf_ir.Lower}'s sum of converted terms; each FLOP term keeps
    {!Mcf_ir.Lower.instantiate}'s float factors and operator order (a
    statement's scale times the sum of its pieces' factor x tile
    product, times its trip product), and statements are summed in
    program order, so the result stays bit-equal even for a
    non-integral factor such as a [Unary]'s FLOPs per element.
    test_model.ml asserts bit-equality of all four breakdown fields
    against the reference walk in the fuzz oracles, across workloads x
    flag combos, and against [Lower.lower] on a chain whose unary
    epilogue costs a non-integral 100.1 FLOPs per element. *)

type summary
(** A compiled {!Mcf_ir.Skeleton.t}.  Depends on the tiling expression
    and on which trip counts of the non-grid and softmax axes equal 1
    ({!Memo.relevant}) — never on tile magnitudes, which enter only at
    {!footprint} / {!evaluate} time. *)

val summarize :
  ?rule1:bool ->
  ?dead_loop_elim:bool ->
  ?hoisting:bool ->
  Mcf_ir.Chain.t ->
  Mcf_ir.Candidate.t ->
  summary
(** The candidate's skeleton ({!Mcf_ir.Skeleton.make}), compiled;
    unmemoized. *)

val skeleton : summary -> Mcf_ir.Skeleton.t
(** The skeleton the summary was compiled from, for
    {!Mcf_ir.Lower.instantiate}. *)

type eval = {
  bytes_per_block : float;  (** = [Lower.bytes_per_block]. *)
  flops_per_block : float;  (** = [Lower.flops_per_block]. *)
  blocks : float;  (** = [float_of_int (Program.grid_blocks ...)]. *)
  traffic_bytes : float;  (** = [Lower.total_traffic_bytes]. *)
  everdict : (unit, Mcf_ir.Program.invalid) result;
      (** = [Skeleton.validate] — the softmax-legality verdict. *)
}

val footprint :
  elem_bytes:int -> summary -> tiles:int array -> trips:int array -> int
(** Eq. (1) in bytes: for each resident tensor (every intermediate, the
    output accumulator, each loaded input), its tile times the trips of
    the axes iterating below its producer's reduction on the producer's
    Compute path.  Equals [Shmem.estimate_bytes] of the lowered program
    under the summary's [rule1] / [dead_loop_elim]; hoisting does not
    enter.  @raise Invalid_argument when [tiles] or [trips] is shorter
    than the chain's axes. *)

val verdict : summary -> (unit, Mcf_ir.Program.invalid) result
(** The summary's validity verdict, [eval.everdict] of every point it
    scores: it depends on the summary alone, so a search reads it before
    evaluating a point and skips the evaluation of an invalid one. *)

type aggregates = {
  mutable abytes : float;  (** = [eval.bytes_per_block]. *)
  mutable aflops : float;  (** = [eval.flops_per_block]. *)
  mutable ablocks : float;  (** = [eval.blocks]. *)
  mutable atraffic : float;  (** = [eval.traffic_bytes]. *)
}
(** A scratch for {!aggregate}: a record of floats only, stored flat,
    so filling it boxes nothing. *)

val aggregates : unit -> aggregates
(** A fresh, zeroed scratch. *)

val aggregate :
  elem_bytes:int ->
  summary ->
  tiles:int array ->
  trips:int array ->
  aggregates ->
  unit
(** The numeric evaluation of a summary for a tile vector given as
    {!Mcf_ir.Skeleton.tile_arrays}, written into the scratch: one linear
    pass over the term arrays that allocates nothing, so a search scores
    a point straight from its decoded index and reuses one scratch for
    every point.  {!Perf.of_aggregates} turns the scratch's [atraffic],
    [aflops] and [ablocks] into eq. (2)'s breakdown.
    @raise Invalid_argument as {!footprint}. *)

val evaluate_tiles :
  elem_bytes:int -> summary -> tiles:int array -> trips:int array -> eval
(** {!aggregate} into a fresh scratch, with the {!verdict}, as a record. *)

val evaluate : elem_bytes:int -> summary -> Mcf_ir.Candidate.t -> eval
(** {!evaluate_tiles} on the candidate's tile arrays. *)

val breakdown_of_eval : Mcf_gpu.Spec.t -> eval -> Perf.breakdown

val eval_candidate :
  ?rule1:bool ->
  ?dead_loop_elim:bool ->
  ?hoisting:bool ->
  elem_bytes:int ->
  Mcf_ir.Chain.t ->
  Mcf_ir.Candidate.t ->
  eval

(** Summary memoization for search hot loops.

    Keyed by an int: a structural id above the trip=1 bits the summary
    reads, [sid lsl n_axes lor (mask land relevant)] — exactly the inputs
    the summary depends on.  The structural id interns the rule-1
    canonical per-block sub-tiling expression (the full expression when
    rule 1 is off).  A summary reads a trip only through dead-loop
    splicing (the body nest), the blind-epilogue check (which skips grid
    axes) and online softmax (the softmax axes), so a grid axis's trip=1
    bit is dropped from the key unless it is a softmax axis; with rule 1
    on every spatial axis is a grid axis.  Hits and misses are surfaced
    as the [model.memo.hits] / [model.memo.misses] counters.
    Domain-safe: hits read an immutable snapshot without a lock; only
    inserts and interning take a mutex, and summaries are computed
    outside it (pure, so a racing duplicate is only wasted work). *)
module Memo : sig
  type t

  val create :
    ?rule1:bool ->
    ?dead_loop_elim:bool ->
    ?hoisting:bool ->
    elem_bytes:int ->
    Mcf_ir.Chain.t ->
    t
  (** One memo per (chain, flags) — the key does not encode the flags, so
      never share an instance across flag settings. *)

  val sid : t -> Mcf_ir.Tiling.t -> int
  (** The tiling's structural id, interned on first sight, which also
      records the id's {!relevant} mask.  Ids are dense from 0 in
      first-sight order. *)

  val relevant : t -> sid:int -> int
  (** The trip=1 bits (bit [i] for the [i]-th axis of [chain.axes]) a
      summary of the structural id reads: every non-grid axis, plus the
      softmax axes.  Two masks that agree on these bits give the same
      summary. *)

  val summary_at :
    t -> sid:int -> mask:int -> (unit -> Mcf_ir.Candidate.t) -> summary
  (** The summary for a structural id and a trip=1 mask (bit [i] set when
      the [i]-th axis of [chain.axes] has trip 1), looked up by
      [mask land relevant t ~sid].  The candidate thunk is forced only on
      a miss, to build and compile its skeleton; it must agree with [sid]
      and [mask]. *)

  val find : t -> sid:int -> mask:int -> summary
  (** The summary {!summary_at} already holds for the key, without
      counting a lookup.  @raise Not_found when none has filled it. *)

  val reused : t -> int -> unit
  (** Count [n] lookups a caller answered from a summary it already held
      for the same key, as [model.memo.hits]: a scorer stepping a run of
      points with one key looks the summary up once. *)

  val estimate : t -> Mcf_gpu.Spec.t -> Mcf_ir.Candidate.t -> float
  (** Eq. (2)'s total time for a candidate, through its memoized
      summary. *)
end
