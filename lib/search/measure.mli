(** Batched measurement engine with a content-addressed cache.

    Measurement dominates tuning wall time once enumeration and
    estimation are parallel: the evolutionary loop hands each
    generation's fresh top-k here as one batch instead of simulating
    point-wise.  The engine runs in two stages:

    + {b parallel} — per candidate the cache does not answer: lower
      (forcing the entry's lazy cell), compile, apply the engine's
      kernel transform (see {!create}), and run the deterministic
      simulator on the shared {!Mcf_util.Pool}, one candidate per chunk;
    + {b sequential drain} in rank order — virtual-clock charges (in
      float addition order), the caller's [commit] callback (recorder
      events, measured-table fills).

    Because stage 1 is pure and the simulator is deterministic, every
    observable — funnel counts, recordings, tuner results, virtual time
    — is bit-identical at any [--jobs].

    This is the one place that simulates a compiled search entry: the
    explore loop, BOLT and Ansor measure batches through {!run_batch},
    and Fig. 11 and the model-only ablation take single uncharged times
    from {!time}.  All of them, baselines and experiments included,
    feed the [explore.measure_s] histogram, one observation per
    simulation.

    The optional cache is content-addressed: the key combines the
    {!Mcf_gpu.Spec.fingerprint}, a hash of the
    {!Mcf_ir.Chain.fingerprint}, the structural-pass flags, and the
    rule-1 canonical candidate form ({!Mcf_ir.Tiling.sub_tiling} +
    sorted tile vector), so a hit is valid by construction.  Hits skip
    the simulation but are charged to the clock identically (virtual-
    time accounting is a model of real hardware, where the measurement
    would still have run); the wall-time saving, about one lower +
    compile + simulate per hit, shows up in the [tuner.measure] phase
    and the [measure.cache.{hits,misses}] counters.

    The caller looks every item's key up before stage 1, so only the
    misses reach the pool, and the drain fills the table in rank order;
    a key repeated within one batch is simulated once and its later
    items count as hits.  One mutex guards the table, a
    {!Mcf_util.Boundtbl} that holds at most 2^20 entries and drops the
    oldest insertion beyond that.  Nothing waits for a simulation
    another caller has in flight: two concurrent batches (two serve
    sessions) that both miss one key both simulate it, with
    bit-identical results.  Each duplicate costs one simulation, a few
    microseconds, and a wait would cost a pending slot and a condition
    variable in a table that only saves wall time. *)

(** {1 Measurement cache} *)

type cache

val cache_create : unit -> cache
(** An empty cache, bounded as above; safe to share between threads and
    domains. *)

val cache_size : cache -> int
(** Measurements currently resident. *)

val cache_save : cache -> string -> int
(** Persist to a JSONL file ([{"key": ..., "time_s": float|null}] per
    line, sorted by key, through {!Mcf_util.Json.write_keyed}); returns
    the number of lines.  Floats round-trip exactly, so a warm-started
    run reproduces cached times bit-for-bit. *)

val cache_load : cache -> string -> int * int
(** Warm-start from a JSONL file: [(loaded, malformed)].  Malformed
    lines are counted, logged and skipped; a missing file is [(0, 0)]. *)

(** {1 Engine} *)

type t

val create :
  ?cache:cache -> ?derate:(Mcf_gpu.Kernel.t -> Mcf_gpu.Kernel.t) ->
  Mcf_gpu.Spec.t -> t
(** An engine measuring on one device.  Stage 1 runs on the shared
    {!Mcf_util.Pool}; at [--jobs 1] it runs inline in the caller.

    [derate] transforms each compiled kernel before it is simulated
    (default: none); Ansor passes its math derating.  Cache keys do not
    name the transform, so a derating engine takes no cache (passing
    both raises [Invalid_argument]) and underated keys are unchanged. *)

val chain_fp : Mcf_ir.Chain.t -> string
(** Hex-hashed {!Mcf_ir.Chain.fingerprint} (the key's chain component). *)

val time : t -> Space.entry -> float option
(** One entry measured as {!run_batch} measures it, uncharged and in the
    caller: the cache lookup, then on a miss compile, transform,
    simulate and fill.  [None] when the entry fails to compile or
    launch. *)

val run_batch :
  t ->
  clock:Mcf_gpu.Clock.t ->
  compile_cost_s:float ->
  repeats:int ->
  commit:(int -> float option -> unit) ->
  (int * Space.entry) list ->
  unit
(** Measure a rank-ordered batch of [(id, entry)] items.  Stage 1 runs
    on the shared pool; the drain then, in list order and per item:
    charges one compile, charges the measurement when it succeeded, and
    calls [commit id result].  With a cache attached, duplicate-key
    items within one batch are simulated once; callers wanting
    exactly-once commits per id must dedup ids themselves (the explore
    loop does). *)
