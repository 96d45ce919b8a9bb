(** The [mcfuser serve] daemon: a long-lived tuning service over
    {!Mcf_util.Httpd}.

    Endpoints (on top of the {!Mcf_obs.Export} telemetry surface, which
    keeps answering [/metrics], [/healthz], [/readyz] and [/]):

    - [POST /tune] — body per {!Protocol.parse_tune_request}.  Answers
      [200] with a completed job when the schedule cache already holds
      the key, else [202] with a queued/coalesced job.  Malformed
      requests are [400]; submissions during shutdown are [503].
    - [GET /jobs/:id] — one job document (state, source, result).
    - [GET /jobs] — every job this daemon still holds, in submission
      order, plus per-state counts (see {!max_finished_jobs}).
    - [POST /shutdown] — request a graceful drain ([202]).
    - [GET /status] — the telemetry status document extended with a
      ["serve"] section (lifecycle, queue depth, cache size).

    Requests whose {!Protocol.key} matches an in-flight session attach
    to it (coalescing: one tuner run, N answers); completed keys are
    served from the schedule table, a {!Mcf_util.Boundtbl} read and
    written under the server lock, holding at most 2^20 schedules and
    dropping the oldest beyond that; it is warm-started from and
    persisted to JSONL.  All sessions share one content-addressed
    measurement cache ({!Mcf_search.Measure}), which never changes
    results — a served schedule is bit-identical to a one-shot
    [Tuner.tune] of the same request.  Two sessions running at once
    that miss one measurement both simulate it.

    [serve.*] counters: [requests], [coalesced], [rejected],
    [sessions], [jobs_done], plus the [serve.latency_s] histogram.  Each
    accepted request looks its key up in the schedule table once,
    counted by {!Protocol.count_lookup} on [cache.hits] or
    [cache.misses] (a coalesced request is a miss), the pair [/status]
    reports as [caches.schedule]. *)

type config = {
  addr : string;
  port : int;  (** 0 asks the kernel; read back with {!port}. *)
  workers : int;  (** Tuner worker threads (≥ 1). *)
  max_connections : int;
  read_timeout_s : float;
  max_body_bytes : int;
  schedule_cache_file : string option;
      (** Warm-start source and graceful-shutdown sink (JSONL). *)
  measure_cache_file : string option;
      (** Shared measurement cache warm-start/persist (JSONL). *)
}

val default_config : config
(** 127.0.0.1:0, 2 workers, 16 connections, 5s read timeout, 1 MiB
    bodies, no persistence. *)

type source = Tuned | Cached | Coalesced

val source_string : source -> string

type job_status =
  | Queued
  | Running
  | Done of Protocol.sched
  | Failed of string

type job_view = {
  vid : string;
  vkey : string;
  vworkload : string;
  vdevice : string;
  vsource : source;
  vstatus : job_status;
}

type t

val start : ?config:config -> unit -> (t, string) result
(** Warm-start the caches, bind the listener and spawn the workers. *)

val url : t -> string
val port : t -> int

val submit : t -> Protocol.tune_request -> (string * source, string) result
(** In-process submission (the [POST /tune] handler and the tests use
    this path): returns the new job id and how it was satisfied —
    [Cached] (already done), [Coalesced] (attached to an in-flight
    session) or [Tuned] (a fresh session was queued).  [Error] once
    shutdown has begun. *)

val max_finished_jobs : int
(** Finished jobs the daemon keeps (4096).  Every accepted request, a
    cache hit included, adds a job; once more than this many have
    finished, the oldest finished (by completion) is dropped and its id
    answers as an unknown one.  Queued and running jobs are never
    dropped. *)

val job : t -> string -> job_view option
val jobs : t -> job_view list  (** Submission order. *)

val await : t -> string -> job_view option
(** Block until the job completes ([None] for unknown ids). *)

val cache_size : t -> int
(** Schedules in the table (taken under the server lock). *)

val request_shutdown : t -> unit
(** Async shutdown trigger (signal handlers, [POST /shutdown]). *)

val wait_shutdown : t -> unit
(** Block the calling thread until {!request_shutdown} fires. *)

val stop : t -> unit
(** Graceful stop: refuse new submissions, drain every queued and
    running session to completion, stop the listener, then persist the
    caches.  Idempotent. *)

val handler : t -> Mcf_util.Httpd.request -> Mcf_util.Httpd.response
(** The daemon's request router (exposed for direct-handler tests). *)
