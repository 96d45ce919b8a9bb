(** Wire format of the tuning service: request parsing, the served
    schedule record, and the coalescing-key derivation.

    A [POST /tune] body is one JSON object:

    {v
    { "workload": "G1",            // a built-in workload name, or
      "chain": { "kind": "gemm",   // gemm | mlp | attention | gemm3
                 "batch": 1, "m": 256, "n": 128, "k": 64, "h": 64,
                 "p": 64 },        // gemm3 only
      "device": "A100",            // optional, default A100
      "seed": 7,                   // optional tuner seed
      "reservoir": 512 }           // optional enumeration bound
    v}

    exactly one of ["workload"] / ["chain"] must be present.  The full
    schema (including responses) is documented in DESIGN.md. *)

type tune_request = {
  workload : string;  (** Display label: workload name or chain name. *)
  chain : Mcf_ir.Chain.t;
  spec : Mcf_gpu.Spec.t;
  seed : int option;
  reservoir : int option;
}

(** The served result of one tuning session — everything a client needs
    to deploy the schedule plus the session's funnel accounting.  This
    is also the schedule cache's value type, so a cache hit replays the
    original session's answer bit-for-bit. *)
type sched = {
  cand : string;  (** {!Mcf_ir.Candidate.serialize} spelling. *)
  time_s : float;  (** Measured (simulated) kernel time. *)
  virtual_s : float;  (** Tuning cost on the virtual clock. *)
  estimated : int;
  measured : int;
  generations : int;
}

val chain_of_workload : string -> (Mcf_ir.Chain.t, string) result
(** Resolve a built-in workload name (G1-G12, S1-S9, D5-D8, network
    names like bert-base, and mha-<x> as an alias for the Bert-<x>
    attention shape), case-insensitively.  The CLI, serve and the bench
    share it. *)

val parse_tune_request : string -> (tune_request, string) result
(** Parse a [POST /tune] body.  All errors are client errors (400). *)

val key : tune_request -> string
(** Coalescing/cache key: device name + spec fingerprint hash + chain
    fingerprint hash + seed + reservoir.  Requests with equal keys are
    guaranteed to produce bit-identical schedules, so they share one
    tuner session (in-flight) or one cache entry (completed). *)

val sched_json : sched -> Mcf_util.Json.t
val sched_of_json : Mcf_util.Json.t -> sched option
val sched_of_outcome : Mcf_search.Tuner.outcome -> sched

(** {2 Schedule-cache file}

    The one persistent schedule cache, shared by [mcfuser tune --cache]
    and [mcfuser serve --schedule-cache]: one JSON object per line, the
    {!sched_json} fields plus ["key"] ({!key}), with floats printed
    [%.17g] so a loaded [sched] equals the stored one bit for bit. *)

val load_cache : string -> (string * sched) list * int
(** [(entries, malformed)]: the file's (key, sched) entries in file
    order (a later entry for the same key supersedes an earlier one) and
    the number of lines counted and skipped as malformed — including
    lines of any other format.  A missing file is empty. *)

val persist_cache : string -> (string * sched) list -> int
(** Write [entries] sorted by key, atomically ({!Mcf_util.Json.write_atomic});
    returns the number written. *)

val tune :
  ?cache_file:string ->
  ?measure:Mcf_search.Measure.t ->
  tune_request ->
  (sched * Mcf_search.Tuner.outcome option, Mcf_search.Tuner.error) result
(** Run [Tuner.tune] with the request's seed and reservoir (and
    [measure], which never changes the outcome).  With [cache_file],
    look {!key} up in that file first: a hit returns the stored schedule
    and no outcome, counted on [cache.hits]; a miss, counted on
    [cache.misses], tunes and rewrites the file with the new entry. *)
