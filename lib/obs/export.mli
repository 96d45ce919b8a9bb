(** Live telemetry surface: Prometheus exposition, [/status] JSON, and
    the listener lifecycle behind [--listen ADDR:PORT].

    The endpoints (all [GET], [Connection: close]):

    - [/metrics] — the whole {!Metrics} registry in Prometheus text
      exposition format 0.0.4.  Registry names map 1:1 onto exposition
      names as [mcfuser_] + the name with every non-[[A-Za-z0-9_]]
      character replaced by [_] (so [explore.measure_s] becomes
      [mcfuser_explore_measure_s]); no [_total] suffix is appended.
      Counters and gauges are single samples; log-scale histograms
      become cumulative [_bucket{le="..."}] series (one bucket per
      power of two actually hit, plus the mandatory [le="+Inf"] bucket)
      with [_sum] and [_count].
    - [/status] — one JSON object with the live phase (what {!Progress}
      would print to a TTY), generation/ETA, the candidate funnel so
      far, [rsrc.*] gauges (a {!Resource.sample_now} is forced per
      request so they are fresh without [--sample-ms]), pool state, and
      cache hit/miss pairs.  Schema in DESIGN.md.
    - [/healthz] — liveness: always [200 ok].
    - [/readyz] — readiness: [200 ready] (the listener only exists once
      the process is serving).
    - [/] — plain-text index of the above.

    Everything here is strictly observational: handlers only read
    atomics and mutex-guarded snapshots that the search never reads
    back, so tuner results are bit-identical with the listener on or
    off at any [--jobs] (asserted in test_telemetry). *)

val metrics_text :
  ?labels:(string * string) list -> ?filter:(string -> bool) -> unit -> string
(** Render the registry as Prometheus text exposition.  [labels] are
    attached to every sample (values escaped: backslash, double-quote,
    newline); [filter] selects registry names to include (default:
    all).  Output is deterministic for a fixed registry state: metrics
    sorted by name, buckets ascending. *)

val write_metrics : string -> (unit, string) result
(** Write the registry as {!Metrics.to_json} to a file (the [--metrics]
    dump), atomically ({!Mcf_util.Json.write_atomic}) and after a
    {!Resource.sync_pool}. *)

val status_json : unit -> Mcf_util.Json.t
(** The [/status] document.  Forces a {!Resource.sample_now} first. *)

val handler : Mcf_util.Httpd.request -> Mcf_util.Httpd.response
(** Request router for the endpoints above; 404 for unknown paths, 405
    for non-GET methods.  Exposed so [mcfuser serve] can wrap it. *)

val parse_listen : string -> (string * int, string) result
(** Parse ["ADDR:PORT"] (or ["PORT"], meaning [127.0.0.1:PORT]) — the
    shared [--listen] syntax of the telemetry listener and the serve
    daemon. *)

val serve : listen:string -> (Mcf_util.Httpd.t, string) result
(** Parse [listen] as ["ADDR:PORT"] (["PORT"] alone means
    [127.0.0.1:PORT]; port [0] asks the kernel) and start the listener
    with {!handler}.  Also calls {!Progress.track} so [/status] has
    phase data without [--progress]. *)

val shutdown : Mcf_util.Httpd.t -> unit
(** Graceful stop (drains in-flight requests) + {!Progress.untrack}. *)

val selfcheck : Mcf_util.Httpd.t -> (unit, string) result
(** Probe a running listener over its real socket: fetch [/healthz],
    [/status] (must parse as JSON with a ["phase"] field) and
    [/metrics] (must pass {!validate_metrics_text}).  Backs
    [--listen-selfcheck] and [make telemetry-smoke]. *)

val selfcheck_url : string -> (unit, string) result
(** {!selfcheck} against an arbitrary base URL (no trailing slash) —
    lets [mcfuser submit --selfcheck] probe a remote daemon it did not
    start. *)

val validate_metrics_text : string -> (unit, string) result
(** Structural validator for Prometheus text exposition, used by the
    selfcheck and the unit tests: every line is a comment or a
    [name{labels} value] sample; each histogram's [_bucket] series has
    ascending [le] bounds, monotonically non-decreasing cumulative
    counts, a final [le="+Inf"] bucket, and [_count] equal to the
    [+Inf] cumulative count, with [_sum] present. *)
