(** Runtime resource telemetry: a low-overhead sampler for GC and
    domain-pool state.

    The tuner's headline claim is search {e speed}, and speed claims
    need resource evidence: where the heap high-water mark sits, how
    hard the allocator is working, whether the worker domains are busy
    or parked.  {!start} spawns one sampler thread that, every
    [period_s], snapshots [Gc.quick_stat] and {!Mcf_util.Pool.stats}
    and publishes:

    - [rsrc.*] gauges in the {!Metrics} registry — [rsrc.heap_words],
      [rsrc.heap_words_peak] (session high-water mark, in words),
      [rsrc.minor_collections], [rsrc.major_collections],
      [rsrc.promoted_words], [rsrc.alloc_words_per_s], plus a
      [rsrc.samples] counter; every tick also refreshes the [pool.*]
      gauges (see {!sync_pool}), so short phases are no longer
      invisible in metrics output;
    - Chrome trace counter events (["ph":"C"], via {!Trace.counter}):
      series [rsrc.heap_words] ([heap]/[peak]), [rsrc.pool_util]
      ([busy]/[utilization]), [rsrc.alloc_words_per_s] and [rsrc.gc],
      interleaved with the phase spans, so [--trace] output shows heap
      and pool-utilization timelines in Perfetto.

    Sampling is strictly read-only: nothing in the search reads the
    gauges or the trace back, so tuner results are bit-identical with
    sampling on or off at any [--jobs] (asserted in test_search).  Off
    by default and zero-cost when off — the cooperative {!sample} tick
    is one atomic load and a branch.

    OCaml 5 vantage caveat: [Gc.quick_stat]'s minor-heap figures are
    per-domain, so the sampler thread's minor numbers describe its own
    (idle) domain; the cooperative {!sample} calls at phase boundaries
    (wired into [Tuner.tune] and [Space.enumerate]) contribute the main
    domain's view.  Major-heap words and [top_heap_words] are
    process-global either way, which is what the peak-heap metric and
    the CI gate rely on. *)

val start : period_s:float -> unit
(** Begin sampling every [period_s] seconds (clamped to >= 0.1ms).  One
    sample is taken immediately, so even a run shorter than the period
    produces every series.  No-op when already running. *)

val stop : unit -> unit
(** Stop and join the sampler thread, then take one closing sample.
    No-op when not running. *)

val active : unit -> bool

val sample : unit -> unit
(** Cooperative tick: take one sample from the calling domain, if the
    sampler is running (no-op otherwise — safe on hot-ish paths such as
    phase boundaries). *)

val sample_now : unit -> unit
(** Take one sample unconditionally, whether or not the periodic sampler
    is running.  The telemetry [/status] endpoint forces a sample per
    request so the [rsrc.*] gauges are fresh even without
    [--sample-ms]. *)

val sync_pool : unit -> unit
(** Copy the current {!Mcf_util.Pool.stats} snapshot into the [pool.*]
    gauges: [pool.domains], [pool.spawned], [pool.jobs], [pool.chunks],
    [pool.idle_s], [pool.busy] and [pool.utilization] ([busy / domains]).
    [Mcf_util.Pool] cannot push into the registry itself ([mcf_obs]
    depends on [mcf_util]).  Gauge writes are idempotent, so any metrics
    dump site may call it; every sample calls it too. *)

val peak_heap_words : unit -> float
(** Heap high-water mark in words: the sampler's session peak if it ran,
    combined with [Gc.quick_stat]'s process-lifetime [top_heap_words]
    (meaningful even when sampling never started).  Recorded in the
    flight recorder's [end] event and diffed by [mcfuser report]. *)
