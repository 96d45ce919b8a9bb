(** Persistent domain pool.

    Spawning (and joining) fresh domains per parallel call would put
    domain startup on the tuner's hot path: a single [Tuner.tune] run
    calls into the parallel layer hundreds of times.  A pool spawns its
    worker domains once and reuses them for every job.  It is the only
    place library code spawns domains.

    Scheduling is chunked self-scheduling: each job is split into
    contiguous index ranges (a few per domain), and every participant
    claims the next unclaimed range from one shared atomic counter until
    none is left.  The calling domain takes part in the job, so a pool
    of size 1 spawns no domains at all and runs inline.  Concurrent
    callers (e.g. several systhreads sharing the global pool) are safe:
    each caller runs its own job to completion, with whatever workers
    join in.

    {!init} is deterministic and order-preserving: the result is
    bit-identical to [Array.init] whatever the pool size, provided [f] is
    pure.  If the body raises in any participant, one of the raised
    exceptions is re-raised in the caller after the job drains;
    remaining chunks are skipped (each index is visited at most once).

    Nested calls from inside a pool task run sequentially rather than
    deadlocking on the shared pool. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool with [domains] participants
    ([domains - 1] worker domains plus the caller).  Defaults to
    {!jobs}[ ()].  Values are clamped to at least 1. *)

val shutdown : t -> unit
(** Terminate and join the pool's worker domains.  Idempotent.  Using the
    pool after [shutdown] runs jobs sequentially in the caller. *)

val size : t -> int
(** Number of participants (worker domains + the calling domain). *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a temporary pool of [jobs]
    participants, shutting it down afterwards (also on exceptions). *)

val init : min_chunk_work:int -> t -> int -> (int -> 'a) -> 'a array
(** [init ~min_chunk_work p n f] is a parallel [Array.init n f], with
    [min_chunk_work] as in {!run_range}.  Useful for indexed virtual
    spaces where materializing the input would defeat the point. *)

val run_range : min_chunk_work:int -> t -> int -> (int -> int -> unit) -> unit
(** [run_range ~min_chunk_work p n body] partitions [\[0, n)] into
    chunks and calls [body lo hi] for each chunk [\[lo, hi)], in
    parallel.  [body] must only write to disjoint state per index (e.g.
    distinct array cells).

    [min_chunk_work] is the caller's per-call sequential cutoff: ranges
    shorter than it run inline in the caller, and parallel runs never
    cut chunks smaller than it, so chunk handoff cannot dominate
    sub-microsecond items.  Callers with cheap per-item bodies pass a
    coarse value (the enumeration precheck passes 64); callers whose
    per-item body is expensive (a whole device measurement) pass
    [~min_chunk_work:1] to parallelize even tiny ranges one item per
    chunk.  Results are bit-identical whatever its value. *)

(** {1 The shared global pool}

    Library code ({!Mcf_search.Space}, {!Mcf_search.Measure}) uses one
    process-wide pool so domains are spawned once per process.  Its
    requested size is, in order of precedence: the last {!set_jobs} call,
    the [MCFUSER_JOBS] environment variable, then
    [min 8 (Domain.recommended_domain_count ())]; the spawned size is
    additionally clamped to [Domain.recommended_domain_count ()], so
    [--jobs 4] on a 1-core container runs sequentially instead of
    oversubscribing (explicit {!create} is not clamped). *)

val get : unit -> t
(** The global pool, (re)spawned on demand to match {!effective_jobs}[ ()]. *)

val set_jobs : int -> unit
(** Override the global pool size (e.g. from a [--jobs] CLI flag).
    Takes effect at the next {!get}; clamped to at least 1. *)

val jobs : unit -> int
(** The currently configured (requested) global pool size. *)

val effective_jobs : unit -> int
(** [min (jobs ()) (max 1 (Domain.recommended_domain_count ()))] — the
    size the global pool is actually spawned with. *)

val default_jobs : unit -> int
(** [max 1 (min 8 (Domain.recommended_domain_count ()))] — the value used
    when neither {!set_jobs} nor [MCFUSER_JOBS] is in effect. *)

(** {1 Stats}

    Process-wide cumulative scheduler counters, for the observability
    layer ([Mcf_obs.Resource] pulls these into the metrics registry;
    [mcf_util] cannot depend on [mcf_obs]). *)

type stats = {
  domains : int;  (** size of the live global pool (0 before first use) *)
  spawned : int;  (** worker domains spawned over the process lifetime *)
  jobs : int;  (** parallel jobs submitted (sequential runs excluded) *)
  chunks : int;
      (** chunks executed across all parallel jobs, one [body] call each *)
  idle_ns : int;
      (** caller nanoseconds spent waiting on straggler workers *)
  busy : int;
      (** participants currently executing chunks — an instantaneous
          sample, not a cumulative counter; the resource telemetry
          sampler reads it to build the pool-utilization timeline *)
}

val stats : unit -> stats
