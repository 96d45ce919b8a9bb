(** Cross-run performance history with robust regression detection.

    Bench runs append one JSONL entry per workload to a history file
    (default [BENCH_history.jsonl]): timestamp, git revision, device,
    workload, the host's core count and OCaml version, and a flat metric
    map ([points_per_s], [tune_wall_s],
    [best_time_s], [peak_heap_words], [alloc_words_per_point],
    [summaries_per_enumeration], ...).
    [mcfuser
    perf] then renders per-workload trends as sparkline tables and, with
    [--gate], compares the newest run against a {e robust baseline} —
    median plus median-absolute-deviation over a trailing window — and
    reports regressions.

    The store is append-only and self-describing, so files survive
    schema growth (unknown metrics simply appear as new rows) and a
    truncated tail costs only the damaged lines: {!load} counts and
    skips malformed lines instead of failing, through the same
    {!Mcf_util.Json.fold_jsonl} as the schedule and measurement caches.

    Direction of improvement is inferred from the metric name: a
    [_per_s] suffix means higher-is-better (throughputs), anything else
    is lower-is-better (times, heap and allocated words).  The regression band is
    [median ± max(tolerance·|median|, 3·MAD)]; the tolerance floor keeps
    an all-identical window (MAD = 0) from flagging every subsequent
    change, and 3·MAD widens the band for genuinely noisy metrics. *)

type entry = {
  time : float;  (** Unix seconds. *)
  rev : string;  (** Git revision the run was built from. *)
  device : string;
  workload : string;
  cores : int option;
      (** [Domain.recommended_domain_count] of the host that ran the
          bench; [None] in rows written before it was recorded. *)
  ocaml : string option;  (** [Sys.ocaml_version]; likewise optional. *)
  metrics : (string * float) list;
}

val higher_is_better : string -> bool
(** [true] exactly for names ending in [_per_s]. *)

val to_json : entry -> Mcf_util.Json.t

val of_json : Mcf_util.Json.t -> entry option
(** [None] when a required field is missing or mistyped. *)

val append : path:string -> entry -> unit
(** Append one line, creating the file if needed. *)

val load : string -> entry list * int
(** Entries in file order plus the count of malformed lines skipped.
    A missing file is an empty history, not an error. *)

val current_rev : unit -> string
(** [MCFUSER_GIT_REV] if set (tests and reproducible seeds), else
    [git rev-parse --short HEAD], else ["unknown"]. *)

val of_search_doc : ?time:float -> ?rev:string -> Mcf_util.Json.t -> entry list
(** Convert a [BENCH_search.json] document into one entry per workload,
    taking the highest-[--jobs] row of each measurement table, plus a
    workload's top-level [peak_heap_words], [alloc_words_per_point] and
    [summaries_per_enumeration]; the document's [cores] and [ocaml]
    fields become every entry's.
    [time] defaults to now, [rev] to {!current_rev}. *)

type verdict = {
  vdevice : string;
  vworkload : string;
  vmetric : string;
  latest : float;
  baseline_median : float;
  baseline_mad : float;
  threshold : float;  (** Band edge the latest value was compared to. *)
  n_baseline : int;  (** Baseline samples used (<= window). *)
  regressed : bool;
}

val gate : ?window:int -> ?tolerance:float -> entry list -> verdict list
(** Compare each (device, workload) group's newest entry against the
    robust baseline of up to [window] (default 10) preceding runs with
    the same [cores] (rows without [cores] match only each other), at
    relative [tolerance] (default 0.05).  Metrics with no baseline
    sample — single-run groups, groups whose older runs all came from
    other core counts, or a metric first recorded in the newest run —
    produce no verdict: the gate passes trivially rather than dividing
    by zero. *)

val render : ?workload:string -> entry list -> string
(** Per-workload trend tables: latest value, delta vs the oldest run,
    and an ASCII sparkline per metric. *)

val render_gate : tolerance:float -> entry list -> verdict list -> string
(** [render_gate ~tolerance entries (gate ~tolerance entries)]: one
    [skip] line per group whose older runs all came from other core
    counts, so that no matching baseline is left, then one line per
    verdict ([ok]/[FAIL]) plus a summary.  The caller turns any
    [regressed] verdict into a non-zero exit. *)
