(** Batched measurement engine with a sharded content-addressed cache.

    Measurement dominates tuning wall time once enumeration and
    estimation are parallel: the evolutionary loop hands each
    generation's fresh top-k here as one batch instead of simulating
    point-wise.  The engine runs in two stages:

    + {b parallel} — per candidate: lower (forcing the entry's lazy
      cell), compile, apply the engine's kernel transform (see
      {!create}), and run the deterministic simulator on the shared
      {!Mcf_util.Pool}, one candidate per chunk;
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
    feed the [explore.measure_s] histogram.

    The optional cache is content-addressed: the key combines the
    {!Mcf_gpu.Spec.fingerprint}, a hash of the
    {!Mcf_ir.Chain.fingerprint}, the structural-pass flags, and the
    rule-1 canonical candidate form ({!Mcf_ir.Tiling.sub_tiling} +
    sorted tile vector), so a hit is valid by construction.  Hits skip
    the simulation but are charged to the clock identically (virtual-
    time accounting is a model of real hardware, where the measurement
    would still have run); the wall-time saving shows up in the
    [tuner.measure] phase and the [measure.cache.{hits,misses,
    inflight_waits}] counters.  The backing store is a
    {!Mcf_util.Shardmap}: per-shard locks, LRU-bounded, and in-flight
    dedup so two domains never simulate the same key concurrently. *)

val log_src : Logs.src
(** Log source ["mcfuser.measure"] (cache load/save diagnostics). *)

(** {1 Measurement cache} *)

type cache

val cache_create : ?shards:int -> ?capacity_per_shard:int -> unit -> cache
(** Defaults: 16 shards, 65536 entries per shard (LRU beyond that). *)

val cache_size : cache -> int
(** Completed measurements currently resident. *)

val cache_save : cache -> string -> int
(** Persist to a JSONL file ([{"key": ..., "time_s": float|null}] per
    line, sorted by key, written atomically via rename); returns the
    number of lines.  Floats round-trip exactly, so a warm-started run
    reproduces cached times bit-for-bit. *)

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
(** The per-entry function {!run_batch}'s stage 1 maps, uncharged and in
    the caller: compile, transform, simulate (through the cache when one
    is attached).  [None] when the entry fails to compile or launch. *)

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
    calls [commit id result].  Duplicate-key items within one batch are
    deduplicated by the in-flight table when a cache is attached;
    callers wanting exactly-once commits per id must dedup ids
    themselves (the explore loop does). *)
