(** Search flight recorder: an append-only JSONL event stream of one
    tuning run.

    The tuner's headline claims are search claims — the Fig. 7 pruning
    funnel, the eqs. (2)-(5) model ranking candidates well enough to
    guide measurement, Algorithm 1 converging in few trials — and the
    recorder captures the evidence for each of them as it happens: the
    run header (device, chain, options, seed, jobs), per-rule prune
    attribution from the space enumeration, per-generation population
    summaries from the evolutionary loop, and every estimate ↔
    measurement pair.  [mcfuser report] renders a recording;
    {!Fidelity} scores the model against the measurements in it.

    Like {!Trace}, recording is off by default and zero-cost when off:
    {!emit} is one atomic load and a branch, and the field thunk is
    never evaluated.  Events are buffered in memory and flushed to disk
    by {!write} after the run.  Every emission site in the pipeline
    sits in sequential code (after parallel stages have joined), so a
    recording is byte-identical at any [--jobs] setting modulo the two
    wall-clock fields ([time] in the run header, [wall_s] in the [end]
    event) — and since nothing in the search ever reads the buffer
    back, recording cannot perturb tuner results.

    Event schema: one JSON object per line, discriminated by ["ev"] —
    ["run"], ["prune"], ["space"], ["generation"], ["mutation"],
    ["measure"], ["result"], ["end"].  See DESIGN.md for the field-level
    schema. *)

val start : unit -> unit
(** Clear the buffer and begin recording. *)

val stop : unit -> unit
(** Stop recording; the buffer is kept for {!events} / {!write}. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all buffered events. *)

val emit : string -> (unit -> (string * Mcf_util.Json.t) list) -> unit
(** [emit ev fields] appends [{"ev": ev, ...fields ()}] to the buffer
    when enabled; the thunk is not evaluated otherwise. *)

val now : unit -> float
(** Wall-clock seconds since the epoch, for the run header's [time]
    field (emitters below [mcf_obs] do not link [unix] themselves). *)

val events : unit -> Mcf_util.Json.t list
(** Buffered events in emission order. *)

val strip_clock : Mcf_util.Json.t -> Mcf_util.Json.t
(** Drop the wall-clock fields ([time], [wall_s], [phases],
    [peak_heap_words] — per-phase durations and the heap high-water mark
    are clock/memory-pressure dependent too) from an event, leaving
    exactly the deterministic payload — what the cross-[--jobs]
    byte-identity tests compare. *)

val write : string -> (int, string) result
(** Flush the buffer to a JSONL file (one event per line, written
    atomically by {!Mcf_util.Json.write_atomic}); returns the number of
    events written, or [Error] when the file cannot be written. *)

val load : string -> (Mcf_util.Json.t list, string) result
(** Parse a JSONL recording back; blank lines are skipped, a malformed
    line fails with its line number. *)
